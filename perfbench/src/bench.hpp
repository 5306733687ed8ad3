// Shared pieces of the benchmark program: the versioned workload table,
// sample statistics, the correctness checker, the span recorder and the
// metric sink the report is printed from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---- workload table --------------------------------------------------------

/// Bump this whenever a size, mode list or check point below changes: a
/// new version starts a new series, numbers across versions do not compare.
inline constexpr int kWorkloadTableVersion = 1;

inline const std::vector<std::string>& mode_names() {
  static const std::vector<std::string> names = {"seq", "simd", "threads",
                                                 "lazy", "lazy_threads"};
  return names;
}

struct Workload {
  std::string name;
  std::string app;         ///< "airfoil" or "cloverleaf"
  int nx = 0, ny = 0;      ///< cells
  int ranks = 0;           ///< simulated mpisim ranks (0 = not distributed)
  /// Cold set-ups per mode, timed in groups before the rounds of blocks,
  /// back to back with the modes taking turns. setup_s sums the per-mode
  /// medians.
  int setups = 1;
  /// Fresh app objects per mode. Each block sets up cold, warms up, is
  /// checked, then times its share of the iterations; modes take turns
  /// block by block.
  int blocks = 1;
  int warmup = 1;          ///< iterations after the first, before the check
  int min_samples = 1;     ///< timed iterations per block, at least
  int min_round_trips = 1; ///< checkpoint/restore round trips per seq block,
  int max_round_trips = 1; ///< at least and at most
  int restore_steps = 1;   ///< steps re-run after each restore
  /// Physical parameters the seed chooses, each uniform in [lo, hi).
  /// Size, connectivity and modes never depend on the seed.
  struct Param {
    std::string name;
    double lo = 0, hi = 0;
  };
  std::vector<Param> params;
};

const std::vector<Workload>& workload_table();
const Workload* find_workload(const std::string& name);

/// Value of the workload's i-th seeded parameter: a splitmix64 draw from
/// (seed, i) mapped into [lo, hi), so any integer seed is valid.
double seed_param(const Workload& w, std::size_t i, std::uint64_t seed);

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);
/// Highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond it;
/// nullopt when there are fewer than twenty samples.
std::optional<std::pair<double, double>> tail_percentile(std::vector<double> v);

// ---- correctness ------------------------------------------------------------

/// Why `got` does not match `ref`, or nullopt when it does. With rtol == 0
/// the match is bitwise; otherwise |got - ref| <= rtol * max(|ref|, 1).
/// A non-finite entry in `got` always fails.
std::optional<std::string> mismatch(const std::vector<double>& got,
                                    const std::vector<double>& ref,
                                    double rtol);
/// Why `v` holds a non-finite value, or nullopt.
std::optional<std::string> non_finite(const std::vector<double>& v);

/// Counts operations and their failures; failed_fraction = failed/attempted.
class Checker {
public:
  /// Registers one operation; returns its index for fail().
  int attempt(const std::string& op);
  /// Marks operation `id` failed (once) with a reason.
  void fail(int id, const std::string& reason);
  /// fail() when `why` holds a reason.
  void expect(int id, const std::optional<std::string>& why) {
    if (why) fail(id, *why);
  }
  int attempted() const { return static_cast<int>(ops_.size()); }
  int failed() const { return failed_; }
  std::vector<std::string> failures() const;

private:
  struct Op {
    std::string name;
    std::string reason;  ///< empty while the operation has not failed
  };
  std::vector<Op> ops_;
  int failed_ = 0;
};

// ---- tracing ----------------------------------------------------------------

/// Counters the layers expose, read at every span end.
struct Counters {
  double loop_s = 0;               ///< apl::Profile seconds, all loops
  std::uint64_t loop_calls = 0;    ///< apl::Profile calls, all loops
  double plan_s = 0;               ///< Context::plan_seconds()
  std::uint64_t chain_flushes = 0; ///< op2/ops ChainStats
  std::uint64_t chain_tiles = 0;
  std::uint64_t chain_rounds = 0;
  std::uint64_t chain_verbatim = 0;
  std::uint64_t chain_eager_bytes = 0;  ///< projected traffic, eager
  std::uint64_t chain_tiled_bytes = 0;  ///< projected traffic, tiled
  std::uint64_t messages = 0;      ///< mpisim::Traffic
  std::uint64_t msg_bytes = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t ckpt_bytes = 0;    ///< CheckpointStore::last_write_bytes()
};

/// Spans recorded from the benchmark's own code around calls into the
/// library. Kept in memory; written out when the run ends. Disabled
/// tracers record nothing.
class Tracer {
public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0, end = 0;
    Counters at_end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  /// Source of counter values for spans that end from now on.
  void set_probe(std::function<Counters()> probe) { probe_ = std::move(probe); }
  int begin(const std::string& name);
  void end(int id);
  /// {name: [count, total ms, self ms]}; self time is a span's duration
  /// minus the time its child spans cover.
  std::map<std::string, std::vector<double>> self_times() const;
  std::string to_json() const;

private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::function<Counters()> probe_;
};

/// RAII span; a no-op when `tracer` is null or disabled.
class Scope {
public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ ? tracer_->begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer* tracer_;
  int id_;
};

// ---- results ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::map<std::string, double> detail;  ///< samples, percentiles, ...
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  ///< preformatted JSON values
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name].value = value;
    metrics[name].unit = unit;
  }
};

/// Everything a workload run needs from the command line.
struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string io_dir;  ///< directory for checkpoint files
  /// Self-test hook: flips the lowest bit of one entry of this mode's
  /// state at the check point, so the check must report a mismatch.
  std::string plant_mismatch;
};

void run_airfoil(const RunConfig& cfg, Checker& check, Tracer& tracer,
                 Result& out);
void run_clover(const RunConfig& cfg, Checker& check, Tracer& tracer,
                Result& out);
/// Host calibration: streaming triad and random gather / scatter-increment,
/// seq and on every CPU the process may run on, each footprint sized from
/// `llc_bytes`.
void calibrate(std::uint64_t llc_bytes, Result& out);
/// Checks the checker: planted mismatches must count as failures.
int selftest();

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
