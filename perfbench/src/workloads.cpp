// The three workloads. Each mode runs in blocks, each block on a fresh app
// object, as a closed loop (each iteration waits for the previous one):
// set-up, warm-up, a correctness check against the seq mode at a fixed
// iteration, then timed iterations for the block's share of the run.
// Modes take turns block by block; the seq blocks also run the
// checkpoint/restore round trips. Before each round of blocks, the modes
// time a group of cold set-ups, taking turns.
#include <cmath>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "airfoil/airfoil.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/io/h5lite.hpp"
#include "apl/profile.hpp"
#include "bench.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"

namespace perfbench {
namespace {

using apl::exec::Backend;

// Eager op2 threads reorders colored increments (measured 8.9e-16 max abs
// difference after 100 Airfoil iterations), so it is held to this relative
// tolerance instead of bitwise equality.
constexpr double kThreadsRtol = 1e-12;
// CloverLeaf's reflective box conserves mass up to round-off.
constexpr double kMassRtol = 1e-10;
// Traced samples per mode: enough for stable medians, bounded memory.
constexpr std::size_t kMaxTracedSamples = 2000;
// Iteration times kept per mode: a uniform sample of all timed iterations.
constexpr std::size_t kKeptSamples = std::size_t{1} << 16;

struct ModeSpec {
  Backend backend = Backend::kSeq;
  bool lazy = false;
};

ModeSpec mode_spec(const std::string& m) {
  if (m == "seq") return {Backend::kSeq, false};
  if (m == "simd") return {Backend::kSimd, false};
  if (m == "threads") return {Backend::kThreads, false};
  if (m == "lazy") return {Backend::kSeq, true};
  if (m == "lazy_threads") return {Backend::kThreads, true};
  throw std::invalid_argument("unknown mode " + m);
}

bool threaded(const std::string& m) {
  return m == "threads" || m == "lazy_threads";
}

double ms(double s) { return s * 1e3; }

/// One app instance under test, as the mode runner sees it.
class Subject {
public:
  virtual ~Subject() = default;
  /// One Airfoil iteration or CloverLeaf step.
  virtual void iterate() = 0;
  /// Explicit flush point (drains lazy chains; a no-op when eager).
  virtual void flush() = 0;
  /// The solution the correctness checks compare.
  virtual std::vector<double> state() = 0;
  virtual Counters counters() = 0;
  /// Per-loop stats of the loops that ran: the context's profile, or the
  /// rank contexts' profiles merged when distributed.
  virtual apl::Profile loop_profile() = 0;
  virtual void clear_profiles() = 0;
  /// Why the run is unhealthy (a non-finite scalar so far), or nullopt.
  virtual std::optional<std::string> health() = 0;
  /// Bytes of every dat and map one iteration touches.
  virtual std::uint64_t working_set_bytes() = 0;
  virtual void checkpoint(apl::io::CheckpointStore& store) = 0;
  virtual void restore(apl::io::CheckpointStore& store) = 0;
};

void add_profile(const apl::Profile& p, Counters& c) {
  for (const auto& [name, s] : p.all()) {
    c.loop_s += s.seconds;
    c.loop_calls += s.calls;
  }
}

void merge(apl::Profile& into, const apl::Profile& from) {
  for (const auto& [name, s] : from.all()) {
    apl::LoopStats& m = into.stats(name);
    m.calls += s.calls;
    m.seconds += s.seconds;
    m.bytes_direct += s.bytes_direct;
    m.bytes_gather += s.bytes_gather;
    m.bytes_scatter += s.bytes_scatter;
    m.colors += s.colors;
  }
}

// ---- Airfoil ----------------------------------------------------------------

class AirfoilSubject final : public Subject {
public:
  AirfoilSubject(const airfoil::Airfoil::Options& opts, const ModeSpec& spec)
      : app_(opts) {
    app_.ctx().set_backend(spec.backend);
    app_.ctx().set_lazy(spec.lazy);
  }
  void iterate() override {
    const double rms = app_.iteration();
    if (!std::isfinite(rms) && !bad_) {
      bad_ = "non-finite rms " + json_number(rms);
    }
  }
  void flush() override { app_.ctx().flush(); }
  std::vector<double> state() override { return app_.solution(); }
  Counters counters() override {
    Counters c;
    add_profile(app_.ctx().profile(), c);
    c.plan_s = app_.ctx().plan_seconds();
    const op2::ChainStats& cs = app_.ctx().chain_stats();
    c.chain_flushes = cs.flushes;
    c.chain_tiles = cs.tiles;
    c.chain_rounds = cs.rounds;
    c.chain_verbatim = cs.verbatim;
    c.chain_eager_bytes = cs.eager_bytes;
    c.chain_tiled_bytes = cs.tiled_bytes;
    c.ckpt_bytes = ckpt_bytes_;
    return c;
  }
  apl::Profile loop_profile() override { return app_.ctx().profile(); }
  void clear_profiles() override { app_.ctx().profile().clear(); }
  std::optional<std::string> health() override { return bad_; }
  void checkpoint(apl::io::CheckpointStore& store) override {
    const std::vector<double> q = app_.solution();
    apl::io::File f;
    f.put<double>("q", q, {static_cast<std::uint64_t>(q.size())});
    store.save(f);
    ckpt_bytes_ = store.last_write_bytes();
  }
  void restore(apl::io::CheckpointStore& store) override {
    const std::vector<double> q = store.load().get<double>("q");
    op2::Dat<double>& dat = app_.q();
    if (q.size() != static_cast<std::size_t>(dat.set().size()) * dat.dim()) {
      throw std::runtime_error("restore: checkpoint holds the wrong q size");
    }
    for (op2::index_t e = 0; e < dat.set().size(); ++e) {
      dat.unpack_entry(e, q.data() + static_cast<std::size_t>(e) * dat.dim());
    }
  }
  std::uint64_t working_set_bytes() override {
    std::uint64_t b = 0;
    op2::Context& ctx = app_.ctx();
    for (op2::index_t d = 0; d < ctx.num_dats(); ++d) {
      b += static_cast<std::uint64_t>(ctx.dat(d).set().size()) *
           ctx.dat(d).entry_bytes();
    }
    for (op2::index_t m = 0; m < ctx.num_maps(); ++m) {
      b += ctx.map(m).table().size() * sizeof(op2::index_t);
    }
    return b;
  }

private:
  airfoil::Airfoil app_;
  std::optional<std::string> bad_;
  std::uint64_t ckpt_bytes_ = 0;
};

// ---- CloverLeaf ---------------------------------------------------------------

class CloverSubject final : public Subject {
public:
  CloverSubject(const cloverleaf::Options& opts, int ranks,
                const ModeSpec& spec, Tracer* tracer)
      : app_(opts) {
    if (ranks > 0) {
      Scope s(tracer, "enable_distributed");
      app_.enable_distributed(ranks, spec.backend);
    } else {
      app_.ctx().set_backend(spec.backend);
    }
  }
  void iterate() override {
    app_.step();
    if (!std::isfinite(app_.dt()) && !bad_) {
      bad_ = "non-finite dt " + json_number(app_.dt());
    }
  }
  void flush() override {
    if (ops::Distributed* d = app_.distributed()) {
      for (int r = 0; r < d->num_ranks(); ++r) d->rank_context(r).flush();
    }
    app_.ctx().flush();
  }
  std::vector<double> state() override {
    std::vector<double> s = app_.density();
    const std::vector<double> u = app_.velocity_x();
    s.insert(s.end(), u.begin(), u.end());
    return s;
  }
  double mass() { return app_.field_summary().mass; }
  std::uint64_t working_set_bytes() override {
    std::uint64_t b = 0;
    for (ops::index_t d = 0; d < app_.ctx().num_dats(); ++d) {
      const ops::DatBase& dat = app_.ctx().dat(d);
      b += dat.alloc_points() * static_cast<std::uint64_t>(dat.dim()) *
           dat.elem_bytes();
    }
    return b;
  }
  Counters counters() override {
    Counters c;
    // Calls as the app issued them; seconds as the rank loops ran them
    // (lazy rank chains execute at exchanges, outside the global timer).
    add_profile(app_.ctx().profile(), c);
    if (ops::Distributed* d = app_.distributed()) {
      c.loop_s = 0;
      for (int r = 0; r < d->num_ranks(); ++r) {
        for (const auto& [name, s] : d->rank_context(r).profile().all()) {
          c.loop_s += s.seconds;
        }
      }
    }
    c.plan_s = app_.ctx().plan_seconds();
    const auto add_chain = [&c](const ops::Context& ctx) {
      const ops::ChainStats& cs = ctx.chain_stats();
      c.chain_flushes += cs.flushes;
      c.chain_tiles += cs.tiles;
      c.chain_eager_bytes += cs.eager_bytes;
      c.chain_tiled_bytes += cs.tiled_bytes;
    };
    add_chain(app_.ctx());
    if (ops::Distributed* d = app_.distributed()) {
      for (int r = 0; r < d->num_ranks(); ++r) {
        c.plan_s += d->rank_context(r).plan_seconds();
        add_chain(d->rank_context(r));
      }
      const apl::mpisim::Traffic& t = d->comm().traffic();
      c.messages = t.messages();
      c.msg_bytes = t.total_bytes();
      c.allreduces = t.allreduces();
    }
    c.ckpt_bytes = ckpt_bytes_;
    return c;
  }
  apl::Profile loop_profile() override {
    ops::Distributed* d = app_.distributed();
    if (!d) return app_.ctx().profile();
    apl::Profile merged;
    for (int r = 0; r < d->num_ranks(); ++r) {
      merge(merged, d->rank_context(r).profile());
    }
    return merged;
  }
  void clear_profiles() override {
    app_.ctx().profile().clear();
    if (ops::Distributed* d = app_.distributed()) {
      for (int r = 0; r < d->num_ranks(); ++r) {
        d->rank_context(r).profile().clear();
      }
    }
  }
  std::optional<std::string> health() override { return bad_; }
  void checkpoint(apl::io::CheckpointStore& store) override {
    app_.distributed()->checkpoint(store, app_.steps_taken());
    ckpt_bytes_ = store.last_write_bytes();
  }
  void restore(apl::io::CheckpointStore& store) override {
    app_.set_steps_taken(static_cast<int>(app_.distributed()->recover(store)));
  }

private:
  cloverleaf::CloverOps app_;
  std::optional<std::string> bad_;
  std::uint64_t ckpt_bytes_ = 0;
};

// ---- the mode runner -----------------------------------------------------------

using Factory =
    std::function<std::unique_ptr<Subject>(const ModeSpec&, Tracer*)>;

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.loop_s = a.loop_s - b.loop_s;
  d.loop_calls = a.loop_calls - b.loop_calls;
  d.plan_s = a.plan_s - b.plan_s;
  d.chain_flushes = a.chain_flushes - b.chain_flushes;
  d.chain_tiles = a.chain_tiles - b.chain_tiles;
  d.chain_rounds = a.chain_rounds - b.chain_rounds;
  d.chain_verbatim = a.chain_verbatim - b.chain_verbatim;
  d.chain_eager_bytes = a.chain_eager_bytes - b.chain_eager_bytes;
  d.chain_tiled_bytes = a.chain_tiled_bytes - b.chain_tiled_bytes;
  d.messages = a.messages - b.messages;
  d.msg_bytes = a.msg_bytes - b.msg_bytes;
  d.allreduces = a.allreduces - b.allreduces;
  d.ckpt_bytes = a.ckpt_bytes;
  return d;
}

Counters& operator+=(Counters& a, const Counters& d) {
  a.loop_s += d.loop_s;
  a.loop_calls += d.loop_calls;
  a.plan_s += d.plan_s;
  a.chain_flushes += d.chain_flushes;
  a.chain_tiles += d.chain_tiles;
  a.chain_rounds += d.chain_rounds;
  a.chain_verbatim += d.chain_verbatim;
  a.chain_eager_bytes += d.chain_eager_bytes;
  a.chain_tiled_bytes += d.chain_tiled_bytes;
  a.messages += d.messages;
  a.msg_bytes += d.msg_bytes;
  a.allreduces += d.allreduces;
  a.ckpt_bytes = d.ckpt_bytes;
  return a;
}

/// A uniform random sample of at most kKeptSamples values of a stream
/// (algorithm R, fixed seed), plus the stream's count and sum. Keeping a
/// fixed number bounds the memory a run touches, so peak_rss_mb does not
/// grow with the number of iterations a run happens to fit.
class Reservoir {
public:
  Reservoir() { kept_.reserve(kKeptSamples); }
  void add(double v) {
    ++count_;
    sum_ += v;
    if (kept_.size() < kKeptSamples) {
      kept_.push_back(v);
      return;
    }
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t j = (state_ >> 11) % count_;
    if (j < kKeptSamples) kept_[j] = v;
  }
  const std::vector<double>& kept() const { return kept_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  bool empty() const { return count_ == 0; }

private:
  std::vector<double> kept_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::uint64_t state_ = 0x853c49e6748fea9bull;
};

/// Everything one mode measured, accumulated over the run's blocks.
struct ModeRun {
  std::string mode;
  int op = -1;                    ///< the mode's checker operation
  bool bitwise = true;            ///< every block matched the reference bitwise
  bool compared = false;          ///< a block was compared to the reference
  bool colored = false;           ///< ran colored op2 increments (tolerance)
  std::vector<double> setup_s;    ///< one per set-up round
  std::vector<double> first_iter_s;
  std::vector<double> plan_s;     ///< plan seconds at the end of set-up
  Reservoir samples;              ///< untraced timed iterations (s)
  Reservoir traced;               ///< traced timed iterations (s)
  apl::Profile profile;           ///< loops of the timed iterations
  Counters timed;                 ///< counter deltas over timed iterations
  Counters first_two;             ///< ... over the first two of them
  std::vector<double> ckpt_s, restore_s;
  std::uint64_t ckpt_bytes = 0;

  std::uint64_t iterations() const { return samples.count() + traced.count(); }
  /// Median and mean of the untraced iterations, which tracing does not
  /// slow down.
  double median_s() const { return median(samples.kept()); }
  double mean_s() const {
    return samples.empty()
               ? 0.0
               : samples.sum() / static_cast<double>(samples.count());
  }
  /// Profile loop seconds per timed iteration. Spans end outside the
  /// loops, so the traced iterations count too.
  double loop_s_per_iter() const {
    return iterations() > 0
               ? timed.loop_s / static_cast<double>(iterations())
               : 0.0;
  }
};

/// Extra end-of-block check (CloverLeaf mass drift).
using EndCheck = std::function<std::optional<std::string>(Subject&)>;

struct Plan {
  Plan(const RunConfig& c, Checker& k, Tracer& t, Factory f, EndCheck e)
      : cfg(&c), check(&k), tracer(&t), factory(std::move(f)),
        end_check(std::move(e)) {}
  const RunConfig* cfg;
  Checker* check;
  Tracer* tracer;
  Factory factory;
  EndCheck end_check;
  /// Reference state at the check point; filled by the first (seq) block.
  std::vector<double> reference;
  std::unique_ptr<apl::io::CheckpointStore> store;
  std::uint64_t working_set_bytes = 0;
};

void run_round_trips(Plan& plan, Subject& subj, ModeRun& r, double budget) {
  const Workload& w = *plan.cfg->workload;
  const double t_begin = apl::now_seconds();
  for (int rt = 0; rt < w.max_round_trips; ++rt) {
    if (rt >= w.min_round_trips && apl::now_seconds() - t_begin >= budget) {
      break;
    }
    const int op = plan.check->attempt(
        w.name + "/" + r.mode + "/checkpoint_restore#" +
        std::to_string(r.ckpt_s.size()));
    try {
      double t0 = apl::now_seconds();
      {
        Scope s(plan.tracer, "checkpoint");
        subj.checkpoint(*plan.store);
      }
      r.ckpt_s.push_back(apl::now_seconds() - t0);
      for (int k = 0; k < w.restore_steps; ++k) {
        subj.iterate();
        subj.flush();
      }
      const std::vector<double> uninterrupted = subj.state();
      t0 = apl::now_seconds();
      {
        Scope s(plan.tracer, "recover");
        subj.restore(*plan.store);
      }
      r.restore_s.push_back(apl::now_seconds() - t0);
      for (int k = 0; k < w.restore_steps; ++k) {
        subj.iterate();
        subj.flush();
      }
      plan.check->expect(op, mismatch(subj.state(), uninterrupted, 0.0));
      plan.check->expect(op, subj.health());
    } catch (const std::exception& e) {
      plan.check->fail(op, e.what());
    }
  }
  r.ckpt_bytes = subj.counters().ckpt_bytes;
}

/// One block of one mode on a fresh app: cold set-up, warm-up, the check
/// against the reference, then timed iterations for `budget` seconds.
void run_block(Plan& plan, ModeRun& r, int block, double budget,
               bool with_io) {
  const RunConfig& cfg = *plan.cfg;
  const Workload& w = *cfg.workload;
  Tracer& tracer = *plan.tracer;
  std::unique_ptr<Subject> subj;
  Scope mode_span(&tracer, "mode:" + r.mode);
  tracer.set_probe([&subj] { return subj ? subj->counters() : Counters{}; });
  try {
    const ModeSpec spec = mode_spec(r.mode);
    {
      Scope s(&tracer, "construct");
      subj = plan.factory(spec, &tracer);
    }
    const double t1 = apl::now_seconds();
    {
      Scope s(&tracer, "first_iteration");
      subj->iterate();
      subj->flush();
    }
    r.first_iter_s.push_back(apl::now_seconds() - t1);
    plan.working_set_bytes = subj->working_set_bytes();
    r.plan_s.push_back(subj->counters().plan_s);
    for (int i = 0; i < w.warmup; ++i) {
      subj->iterate();
      subj->flush();
    }

    // Correctness at the check point (iteration 1 + warmup).
    std::vector<double> st = subj->state();
    if (r.mode == cfg.plant_mismatch && !st.empty()) {
      double& v = st[st.size() / 2];
      v = std::nextafter(v, v + 1.0);
    }
    plan.check->expect(r.op, subj->health());
    if (plan.reference.empty()) {
      plan.check->expect(r.op, non_finite(st));
      plan.reference = std::move(st);
    } else {
      r.compared = true;
      // op2 loops that run through the colored threads plan reorder
      // increments: eager threads always, lazy_threads whenever the
      // traffic model vetoed fusion and a chain replayed verbatim.
      const bool colored =
          w.app == "airfoil" && spec.backend == Backend::kThreads &&
          (!spec.lazy || subj->counters().chain_verbatim > 0);
      r.colored = r.colored || colored;
      const auto why = mismatch(st, plan.reference, colored ? kThreadsRtol : 0.0);
      plan.check->expect(r.op, why);
      r.bitwise = r.bitwise && !why && !colored;
    }
    st.clear();
    st.shrink_to_fit();

    subj->clear_profiles();
    const Counters start = subj->counters();
    const std::size_t traced_cap =
        kMaxTracedSamples / static_cast<std::size_t>(w.blocks);
    std::size_t traced = 0;
    const double t_begin = apl::now_seconds();
    for (std::size_t n = 0;; ++n) {
      if (static_cast<int>(n) >= w.min_samples &&
          apl::now_seconds() - t_begin >= budget) {
        break;
      }
      const bool trace_this = tracer.enabled() && n % 2 == 0 && traced < traced_cap;
      Tracer* tp = trace_this ? &tracer : nullptr;
      const double s0 = apl::now_seconds();
      {
        Scope s(tp, "iteration");
        subj->iterate();
      }
      {
        Scope s(tp, "flush");
        subj->flush();
      }
      (trace_this ? r.traced : r.samples).add(apl::now_seconds() - s0);
      traced += trace_this ? 1 : 0;
      if (n == 1 && block == 0) r.first_two = subj->counters() - start;
    }
    r.timed += subj->counters() - start;
    merge(r.profile, subj->loop_profile());
    plan.check->expect(r.op, subj->health());
    plan.check->expect(r.op, non_finite(subj->state()));
    if (plan.end_check) plan.check->expect(r.op, plan.end_check(*subj));
    if (with_io) run_round_trips(plan, *subj, r, budget);
  } catch (const std::exception& e) {
    plan.check->fail(r.op, e.what());
  }
  tracer.set_probe(nullptr);
}

/// Times `rounds` cold set-ups per mode, back to back with the modes
/// taking turns: a fresh app, then its first iteration. Back to back, the
/// threaded modes' first iteration does not wait for pool workers that a
/// long idle spell put to sleep, whose wake-up time varies with the host.
void time_setups(Plan& plan, std::vector<ModeRun>& runs, int rounds) {
  for (int k = 0; k < rounds; ++k) {
    for (ModeRun& r : runs) {
      try {
        const double t0 = apl::now_seconds();
        std::unique_ptr<Subject> subj = plan.factory(mode_spec(r.mode), nullptr);
        subj->iterate();
        subj->flush();
        r.setup_s.push_back(apl::now_seconds() - t0);
        plan.check->expect(r.op, subj->health());
      } catch (const std::exception& e) {
        plan.check->fail(r.op, e.what());
      }
    }
  }
}

/// Runs every mode in round-robin blocks, so time-varying load on the
/// host falls on all modes alike; seq goes first and provides the
/// reference. The timed iterations of each mode and the checkpoint round
/// trips share the run's seconds equally.
std::vector<ModeRun> run_modes(Plan& plan, Result& out) {
  const RunConfig& cfg = *plan.cfg;
  const Workload& w = *cfg.workload;
  const auto& modes = mode_names();
  const double budget = cfg.seconds / static_cast<double>(modes.size() + 1) /
                        static_cast<double>(w.blocks);
  std::vector<ModeRun> runs(modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    runs[m].mode = modes[m];
    runs[m].op = plan.check->attempt(w.name + "/" + modes[m]);
  }
  plan.store = std::make_unique<apl::io::CheckpointStore>(
      cfg.io_dir + "/" + w.name + "-" + std::to_string(::getpid()));
  plan.store->remove_files();
  for (int b = 0; b < w.blocks; ++b) {
    // Set-up rounds are spread over the run, like the timed iterations,
    // because the host's speed changes from second to second.
    time_setups(plan, runs,
                (b + 1) * w.setups / w.blocks - b * w.setups / w.blocks);
    for (ModeRun& r : runs) run_block(plan, r, b, budget, r.mode == "seq");
  }
  plan.store->remove_files();
  out.info["working_set_bytes"] =
      json_number(static_cast<double>(plan.working_set_bytes));
  return runs;
}

// ---- metrics shared by both apps ------------------------------------------------

void end_to_end(const std::vector<ModeRun>& runs, Result& out) {
  double setup = 0;
  std::string policy;
  for (const ModeRun& r : runs) {
    policy += (policy.empty() ? "{" : ", ") + json_string(r.mode) + ": " +
              json_string(&r == &runs.front() ? "reference"
                          : r.colored ? "relative tolerance 1e-12 (colored op2 increments)"
                                      : "bitwise");
    setup += median(r.setup_s);
    out.metrics["setup_s"].detail["s." + r.mode] = median(r.setup_s);
    Metric& m = out.metrics["iter_ms." + r.mode];
    m.unit = "ms";
    std::vector<double> v;
    for (double s : r.samples.kept()) v.push_back(ms(s));
    m.value = median(v);
    m.detail["samples"] = static_cast<double>(r.samples.count());
    m.detail["kept"] = static_cast<double>(v.size());
    if (const auto tail = tail_percentile(v)) {
      m.detail["tail_percentile"] = tail->first;
      m.detail["tail_ms"] = tail->second;
    }
    if (r.mode == "seq") {
      Metric& c = out.metrics["ckpt_ms"];
      c.unit = "ms";
      std::vector<double> cv, rv;
      for (double s : r.ckpt_s) cv.push_back(ms(s));
      for (double s : r.restore_s) rv.push_back(ms(s));
      c.value = median(cv);
      c.detail["samples"] = static_cast<double>(cv.size());
      c.detail["bytes"] = static_cast<double>(r.ckpt_bytes);
      Metric& re = out.metrics["restore_ms"];
      re.unit = "ms";
      re.value = median(rv);
      re.detail["samples"] = static_cast<double>(rv.size());
    }
  }
  out.info["check_policy"] = policy + "}";
  Metric& s = out.metrics["setup_s"];
  s.value = setup;
  s.unit = "s";
  s.detail["setups_per_mode"] =
      static_cast<double>(runs.empty() ? 0 : runs[0].setup_s.size());
}

void runtime_layer(const std::vector<ModeRun>& runs, Result& out) {
  double traced = 0, untraced = 0;
  for (const ModeRun& r : runs) {
    const double n = static_cast<double>(r.iterations());
    const double calls = static_cast<double>(r.timed.loop_calls);
    const double per_iter_calls = n > 0 ? calls / n : 0;
    out.set("runtime.loop_us." + r.mode,
            per_iter_calls > 0 ? r.median_s() / per_iter_calls * 1e6 : 0, "us");
    out.set("runtime.outside_loop_share." + r.mode,
            r.mean_s() > 0 ? 1.0 - r.loop_s_per_iter() / r.mean_s() : 0, "1");
    if (!r.traced.empty() && !r.samples.empty()) {
      // Untraced samples interleave with the traced ones (odd iterations).
      traced += median(r.traced.kept());
      untraced += median(r.samples.kept());
    }
  }
  out.set("trace.overhead_fraction", untraced > 0 ? traced / untraced - 1 : 0,
          "1");
  int bitwise = 0;
  for (const ModeRun& r : runs) {
    bitwise += r.mode != "seq" && r.compared && r.bitwise ? 1 : 0;
  }
  out.set("check.bitwise_modes", bitwise, "count");
  const ModeRun& seq = runs.front();
  if (!seq.ckpt_s.empty()) {
    const double b = static_cast<double>(seq.ckpt_bytes);
    out.set("io.ckpt_bytes", b, "B");
    out.set("io.ckpt_gbps", b / median(seq.ckpt_s) * 1e-9, "GB/s");
    out.set("io.restore_gbps", b / median(seq.restore_s) * 1e-9, "GB/s");
  }
}

double host_rate(const Result& out, const std::string& name) {
  const auto it = out.metrics.find(name);
  return it == out.metrics.end() ? 0.0 : it->second.value;
}

}  // namespace

// ---- Airfoil workloads ------------------------------------------------------------

void run_airfoil(const RunConfig& cfg, Checker& check, Tracer& tracer,
                 Result& out) {
  const Workload& w = *cfg.workload;
  airfoil::Airfoil::Options opts;
  opts.nx = w.nx;
  opts.ny = w.ny;
  opts.bump = seed_param(w, 0, cfg.seed);
  out.info["bump"] = json_number(opts.bump);
  Plan plan(cfg, check, tracer,
            [opts](const ModeSpec& spec, Tracer*) {
              return std::make_unique<AirfoilSubject>(opts, spec);
            },
            nullptr);
  const std::vector<ModeRun> runs = run_modes(plan, out);
  end_to_end(runs, out);
  if (!cfg.trace) return;

  runtime_layer(runs, out);
  static const char* kLoops[] = {"save_soln", "adt_calc", "res_calc",
                                 "bres_calc", "update"};
  for (const ModeRun& r : runs) {
    const double n = static_cast<double>(r.iterations());
    for (const char* loop : kLoops) {
      const auto it = r.profile.all().find(loop);
      const bool hit = it != r.profile.all().end() && it->second.calls > 0;
      out.set(std::string("op2.loop_ms.") + loop + "." + r.mode,
              hit ? ms(it->second.seconds / static_cast<double>(it->second.calls)) : 0,
              "ms");
    }
    double bytes = 0, secs = 0, colors = 0;
    for (const auto& [name, s] : r.profile.all()) {
      bytes += static_cast<double>(s.bytes());
      secs += s.seconds;
      colors += static_cast<double>(s.colors);
    }
    const double gbps = secs > 0 ? bytes / secs * 1e-9 : 0;
    out.set("op2.gbps." + r.mode, gbps, "GB/s");
    const double triad = host_rate(
        out, threaded(r.mode) ? "host.triad_gbps.threads" : "host.triad_gbps.seq");
    out.set("op2.bw_fraction." + r.mode, triad > 0 ? gbps / triad : 0, "1");
    out.set("op2.plan_s." + r.mode, median(r.plan_s), "s");
    if (r.mode == "seq") {
      out.set("op2.bytes_per_iter", n > 0 ? bytes / n : 0, "B");
    }
    if (r.mode == "threads") {
      out.set("op2.colors", n > 0 ? colors / n : 0, "count");
    }
    if (r.mode == "lazy") {
      out.set("op2.inspect_s", median(r.first_iter_s) - r.median_s(), "s");
    }
    if (r.mode == "lazy" || r.mode == "lazy_threads") {
      const auto d = [&r](std::uint64_t Counters::*f) {
        return static_cast<double>(r.timed.*f);
      };
      const double per = n > 0 ? 1.0 / n : 0;
      const double flushes = d(&Counters::chain_flushes);
      const std::string sfx = "." + r.mode;
      out.set("op2.chain.flushes" + sfx, flushes * per, "count");
      out.set("op2.chain.tiles" + sfx, d(&Counters::chain_tiles) * per, "count");
      out.set("op2.chain.rounds" + sfx, d(&Counters::chain_rounds) * per, "count");
      out.set("op2.chain.verbatim" + sfx, d(&Counters::chain_verbatim) * per,
              "count");
      out.set("op2.chain.fused_ratio" + sfx,
              flushes > 0 ? 1.0 - d(&Counters::chain_verbatim) / flushes : 0, "1");
      const double eager = d(&Counters::chain_eager_bytes);
      out.set("op2.chain.traffic_saved_projected" + sfx,
              eager > 0 ? 1.0 - d(&Counters::chain_tiled_bytes) / eager : 0, "1");
    }
  }
}

// ---- CloverLeaf workload ------------------------------------------------------------

namespace {

/// The ten CloverLeaf phases a step's loops belong to.
std::string clover_phase(const std::string& loop) {
  static const char* kPrefixes[][2] = {
      {"halo_", "update_halo"},     {"mf_", "advec_mom"},
      {"advec_mom", "advec_mom"},   {"advec_cell", "advec_cell"},
      {"flux_calc", "flux_calc"},   {"reset_field", "reset_field"},
      {"ideal_gas", "ideal_gas"},   {"viscosity", "viscosity"},
      {"calc_dt", "calc_dt"},       {"pdv", "pdv"},
      {"accelerate", "accelerate"},
  };
  for (const auto& p : kPrefixes) {
    if (loop.rfind(p[0], 0) == 0) return p[1];
  }
  return "";
}

}  // namespace

void run_clover(const RunConfig& cfg, Checker& check, Tracer& tracer,
                Result& out) {
  const Workload& w = *cfg.workload;
  cloverleaf::Options opts;
  opts.nx = w.nx;
  opts.ny = w.ny;
  opts.state2_xfrac = seed_param(w, 0, cfg.seed);
  opts.state2_yfrac = seed_param(w, 1, cfg.seed);
  out.info["state2_xfrac"] = json_number(opts.state2_xfrac);
  out.info["state2_yfrac"] = json_number(opts.state2_yfrac);

  // Undistributed seq run: the initial mass, and the state the
  // distributed seq mode must reproduce bitwise.
  double mass0 = 0;
  std::vector<double> serial;
  const int ref_op = check.attempt(w.name + "/serial_reference");
  try {
    CloverSubject ref(opts, 0, {}, nullptr);
    mass0 = ref.mass();
    for (int i = 0; i < 1 + w.warmup; ++i) ref.iterate();
    serial = ref.state();
    check.expect(ref_op, ref.health());
    check.expect(ref_op, non_finite(serial));
  } catch (const std::exception& e) {
    check.fail(ref_op, e.what());
  }

  Plan plan(cfg, check, tracer,
            [opts, &w](const ModeSpec& spec, Tracer* t) {
              cloverleaf::Options o = opts;
              o.lazy = spec.lazy;
              return std::make_unique<CloverSubject>(o, w.ranks, spec, t);
            },
            [mass0](Subject& s) -> std::optional<std::string> {
              const double m = static_cast<CloverSubject&>(s).mass();
              if (std::fabs(m - mass0) <= kMassRtol * std::fabs(mass0)) {
                return std::nullopt;
              }
              return "mass drifted from " + json_number(mass0) + " to " +
                     json_number(m);
            });
  const std::vector<ModeRun> runs = run_modes(plan, out);
  const int dist_op = check.attempt(w.name + "/seq_matches_serial");
  check.expect(dist_op, serial.empty() ? std::optional<std::string>("no serial reference")
                                       : mismatch(plan.reference, serial, 0.0));
  end_to_end(runs, out);
  if (!cfg.trace) return;

  runtime_layer(runs, out);
  for (const ModeRun& r : runs) {
    const double n = static_cast<double>(r.iterations());
    const double per = n > 0 ? 1.0 / n : 0;
    std::map<std::string, double> phase_s;
    for (const auto& [name, s] : r.profile.all()) {
      const std::string ph = clover_phase(name);
      if (!ph.empty()) phase_s[ph] += s.seconds;
    }
    if (r.mode == "seq") {
      for (const char* ph : {"ideal_gas", "viscosity", "calc_dt", "pdv",
                             "accelerate", "flux_calc", "advec_cell",
                             "advec_mom", "reset_field", "update_halo"}) {
        out.set(std::string("ops.loop_ms.") + ph + ".seq", ms(phase_s[ph] * per),
                "ms");
      }
      const auto two = [&r](std::uint64_t Counters::*f) {
        return static_cast<double>(r.first_two.*f) / 2.0;
      };
      out.set("mpisim.messages_per_step", two(&Counters::messages), "count");
      out.set("mpisim.bytes_per_step", two(&Counters::msg_bytes), "B");
      out.set("mpisim.allreduces_per_step", two(&Counters::allreduces), "count");
    }
    out.set("ops.loop_s." + r.mode, r.loop_s_per_iter(), "s");
    out.set("ops.halo_ms." + r.mode, ms(phase_s["update_halo"] * per), "ms");
    out.set("mpisim.exchange_ms." + r.mode,
            ms(r.mean_s() - r.loop_s_per_iter()), "ms");
    if (r.mode == "lazy") {
      out.set("ops.plan_s.lazy", median(r.plan_s), "s");
      out.set("ops.chain.tiles", static_cast<double>(r.timed.chain_tiles) * per,
              "count");
      const double eager = static_cast<double>(r.timed.chain_eager_bytes);
      const double tiled = static_cast<double>(r.timed.chain_tiled_bytes);
      out.set("ops.chain.traffic_saved_projected",
              eager > 0 ? 1.0 - tiled / eager : 0, "1");
    }
  }
}

}  // namespace perfbench
