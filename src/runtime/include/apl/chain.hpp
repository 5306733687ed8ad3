// The lazy loop-chain core shared by op2 and ops (DESIGN.md §7, §15).
//
// Both libraries queue par_loops under set_lazy(true) and run the queue at
// a flush point. Everything about that except the inspector lives here
// once: the queue, the pending-flush flag every dat watches from touch(),
// the re-entrancy flag behind chain_executing(), the parked remainder of
// an interrupted chain, and the flush driver itself.
//
// A library derives its Context from LazyContext<Record, Run> and supplies
// three hooks: plan_chain (the inspector plus its ChainStats charge),
// run_step (one unit of the planned run: an op2 tile, record or color
// round, an ops schedule op) and account_loop (per-loop profile counts).
// `Run` is the library's planned chain; it tells the driver how many steps
// it has (steps()) and what a step is called (unit()).
//
// The flush driver opens one kChain span per chain, charges ChainStats
// once when a chain first runs, and checks the cancel token and the
// preemption flag before every step. An interruption there parks the
// not-yet-run remainder; the next flush point completes it exactly, and
// per-loop accounting happens once, when the chain completes. Any other
// exception (a throwing kernel) drops the chain; either way the context
// leaves the flush lazy and ready to queue again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apl/cancel.hpp"
#include "apl/chain_stats.hpp"
#include "apl/exec.hpp"
#include "apl/trace.hpp"

namespace apl::chain {

/// What a step is called at a cancel/preempt boundary: `point` labels the
/// cancellation point ("op2::tile"), `name` the unit in the preemption
/// diagnostic ("tile").
struct Unit {
  const char* point;
  const char* name;
};

/// ChainStats charge of one planned chain, made once when it first runs.
struct Charge {
  std::uint64_t tiles = 0;
  std::uint64_t eager_bytes = 0;
  std::uint64_t tiled_bytes = 0;
  bool verbatim = false;        ///< no tiled step: counts in stats.verbatim
  std::int64_t span_index = -1; ///< index of the kChain span (-1: none)
};

/// Per-library names: `library` prefixes the preemption diagnostic, the
/// two spans wrap a first run and a resumed remainder.
struct Names {
  const char* library;
  const char* flush_span;
  const char* resume_span;
};

// ---- enqueue-time argument capture -----------------------------------------

/// A global argument: a pointer to caller memory plus reduction scratch.
template <class A>
concept GlobalArg = requires(A a) {
  a.data;
  a.scratch;
};

/// A queued loop runs after par_loop has returned, so a read-only global
/// must not see the caller reuse its variable: freeze() snapshots it.
/// Reduction targets stay live (a reduction flushes before par_loop
/// returns); every other argument is kept as is.
template <class A>
struct Frozen {
  A arg;
};
template <GlobalArg A>
struct Frozen<A> {
  A arg;
  std::vector<std::remove_pointer_t<decltype(A::data)>> snap;  ///< kRead only
};

template <class A>
Frozen<A> freeze(const A& a) {
  if constexpr (GlobalArg<A>) {
    Frozen<A> f{a, {}};
    if (a.acc == exec::Access::kRead && a.data != nullptr) {
      f.snap.assign(a.data, a.data + a.dim);
    }
    return f;
  } else {
    return Frozen<A>{a};
  }
}

/// Re-points a frozen global at its snapshot on every call: the frozen
/// tuple is copied along with its closure, and the pointer must chase the
/// copy that actually runs.
template <class A>
A& thaw(Frozen<A>& f) {
  if constexpr (GlobalArg<A>) {
    if (!f.snap.empty()) f.arg.data = f.snap.data();
  }
  return f.arg;
}

// ---- the lazy context ------------------------------------------------------

/// What each dat watches from touch(): `set` exactly when a flush of
/// `owner` would run work. Turning lazy off flushes first, so it is never
/// set while the context is eager.
struct Pending {
  bool set = false;
  exec::ExecContext* owner = nullptr;
};

/// An ExecContext whose par_loops can queue into a lazy chain (see the
/// file header); op2::Context and ops::Context derive from it.
template <class Record, class Run>
class LazyContext : public exec::ExecContext {
public:
  explicit LazyContext(Names names) : names_(names) {}

  /// par_loop calls this instead of executing when lazy. A loop carrying
  /// a global reduction flushes at once: the caller reads the result as
  /// soon as par_loop returns, so the chain — this loop included — runs
  /// now.
  void enqueue(Record rec) {
    const bool reduction =
        std::any_of(rec.infos.begin(), rec.infos.end(), [](const auto& a) {
          return a.is_gbl && a.acc != exec::Access::kRead;
        });
    queue_.push_back(std::move(rec));
    update_pending();
    if (reduction) flush();
  }
  /// True while a flush runs the chain (par_loop then runs eagerly instead
  /// of re-enqueueing, and touch() does not flush re-entrantly).
  bool chain_executing() const { return executing_; }
  std::size_t chain_length() const { return queue_.size(); }
  /// True when an interrupted chain is parked awaiting the next flush.
  /// Its records still point at the enqueue-time argument storage (frozen
  /// kRead globals excepted), so it must resume while that storage lives;
  /// a driver that retries from a checkpoint instead (apl::serve) simply
  /// discards the context, parked chain and all.
  bool chain_resumable() const { return parked_ != nullptr; }
  const ChainStats& chain_stats() const { return stats_; }

protected:
  /// The flag each declared dat watches from touch().
  const Pending* pending_flag() const { return &pending_; }

  /// Inspects `chain` and returns its planned run; fills `charge`.
  virtual Run plan_chain(const std::vector<Record>& chain, Charge& charge) = 0;
  /// Runs step `i` of `run`.
  virtual void run_step(Run& run, std::size_t i,
                        const std::vector<Record>& chain,
                        ChainStats& stats) = 0;
  /// Per-loop profile accounting, once per record of a completed chain.
  virtual void account_loop(const Record& rec) = 0;

private:
  struct Parked {
    std::vector<Record> chain;
    Run run;
    std::size_t next;
  };

  /// Completes any parked remainder, then runs the queue. Re-entrant
  /// calls (a chain member touching a dat) are no-ops.
  void do_flush() final {
    if (executing_ || (queue_.empty() && parked_ == nullptr)) return;
    executing_ = true;
    update_pending();
    struct Reset {
      LazyContext* c;
      ~Reset() {
        c->executing_ = false;
        c->update_pending();
      }
    } reset{this};
    if (parked_ != nullptr) {
      const std::unique_ptr<Parked> p = std::move(parked_);
      trace::Span span(trace::kChain, names_.resume_span);
      span.set_elements(p->chain.size());
      span.set_index(static_cast<std::int64_t>(p->next));
      drive(p->chain, p->run, p->next);
    }
    if (!queue_.empty()) {
      std::vector<Record> chain = std::move(queue_);
      queue_.clear();
      trace::Span span(trace::kChain, names_.flush_span);
      span.set_elements(chain.size());
      ++stats_.flushes;
      stats_.loops += chain.size();
      stats_.max_chain =
          std::max<std::uint64_t>(stats_.max_chain, chain.size());
      Charge charge;
      Run run = plan_chain(chain, charge);
      stats_.tiles += charge.tiles;
      stats_.eager_bytes += charge.eager_bytes;
      stats_.tiled_bytes += charge.tiled_bytes;
      if (charge.verbatim) ++stats_.verbatim;
      span.set_index(charge.span_index);
      drive(chain, run, 0);
    }
  }

  /// Runs steps [next, steps) with a boundary check before each, then
  /// accounts the chain's loops.
  void drive(std::vector<Record>& chain, Run& run, std::size_t next) {
    for (std::size_t i = next; i < run.steps(); ++i) {
      boundary(chain, run, i);
      run_step(run, i, chain, stats_);
    }
    for (const Record& rec : chain) account_loop(rec);
  }

  /// Cancellation and preemption take effect here, before step `i` (also
  /// before the first, so a pre-armed deadline parks the whole chain).
  /// The remainder is parked before the exception propagates.
  void boundary(std::vector<Record>& chain, Run& run, std::size_t i) {
    try {
      const Unit unit = run.unit();
      cancel::point(unit.point);
      if (cancel::yield_requested()) {
        throw cancel::Cancelled(
            cancel::Reason::kPreempt,
            std::string(names_.library) + " chain preempted at " + unit.name +
                " boundary " + std::to_string(i) +
                " (remainder parked, next flush resumes)");
      }
    } catch (...) {
      parked_ = std::make_unique<Parked>(
          Parked{std::move(chain), std::move(run), i});
      throw;
    }
  }

  void update_pending() {
    pending_.set = !executing_ && (!queue_.empty() || parked_ != nullptr);
  }

  Names names_;
  std::vector<Record> queue_;
  std::unique_ptr<Parked> parked_;
  ChainStats stats_;
  bool executing_ = false;
  Pending pending_{false, this};
};

}  // namespace apl::chain
