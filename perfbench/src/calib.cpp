// Host calibration: the bandwidth this node can reach, measured in the
// same run as the workload it is compared against (paper Table I's
// achieved-over-achievable method). One buffer of 4x the LLC serves as
// the three triad arrays (4/3 LLC each, 4x LLC streamed per pass) and as
// the source of the random gather and scatter-increment (4x LLC), which
// bounds the calibration's memory at 4x the LLC.
#include <sched.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apl/profile.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kPasses = 5;
constexpr std::size_t kGatherAccesses = std::size_t{1} << 23;

/// Runs body(begin, end) over [0, n) split across `threads` threads.
template <class Body>
void parallel_range(std::size_t n, unsigned threads, const Body& body) {
  if (threads <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    team.emplace_back([&body, n, t, threads] {
      body(n * t / threads, n * (t + 1) / threads);
    });
  }
  for (std::thread& th : team) th.join();
}

/// Median seconds of kPasses runs of `pass`.
template <class Pass>
double time_passes(const Pass& pass) {
  std::vector<double> t;
  for (int p = 0; p < kPasses; ++p) {
    const double t0 = apl::now_seconds();
    pass();
    t.push_back(apl::now_seconds() - t0);
  }
  return median(t);
}

}  // namespace

void calibrate(std::uint64_t llc_bytes, Result& out) {
  // The CPUs this process may run on, as run.py sizes OPAL_NUM_THREADS.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) {
    throw std::runtime_error("calibration: sched_getaffinity failed");
  }
  const unsigned nproc = static_cast<unsigned>(CPU_COUNT(&cpus));
  const std::size_t n = 4 * llc_bytes / sizeof(double);
  const std::size_t n3 = n / 3;
  std::vector<double> buf(n, 1.0);
  double* a = buf.data();
  const double* b = buf.data() + n3;
  const double* c = buf.data() + 2 * n3;

  // Gather/scatter indices: a multiplicative stride coprime to n visits
  // distinct, widely spread entries of the whole buffer.
  const std::size_t m = std::min(kGatherAccesses, n);
  std::size_t stride = 2654435761u % n;
  while (stride < 2 || std::gcd(stride, n) != 1) ++stride;
  std::vector<std::uint32_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) {
    idx[i] = static_cast<std::uint32_t>((i * stride) % n);
  }
  std::vector<double> y(m, 0.5);

  for (const unsigned threads : {1u, nproc}) {
    const std::string sfx = threads == 1 ? ".seq" : ".threads";
    const double triad = time_passes([&] {
      parallel_range(n3, threads, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 0.5 * c[i];
      });
    });
    out.set("host.triad_gbps" + sfx, 3.0 * sizeof(double) * n3 / triad * 1e-9,
            "GB/s");
    const double gather = time_passes([&] {
      parallel_range(m, threads, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) y[i] = buf[idx[i]];
      });
    });
    // Index read + gathered value + streamed store.
    out.set("host.gather_gbps" + sfx,
            (sizeof(std::uint32_t) + 2.0 * sizeof(double)) * m / gather * 1e-9,
            "GB/s");
    const double scatter = time_passes([&] {
      parallel_range(m, threads, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) buf[idx[i]] += y[i];
      });
    });
    // Index read + streamed value + read-modify-write of the target.
    out.set("host.scatter_gbps" + sfx,
            (sizeof(std::uint32_t) + 3.0 * sizeof(double)) * m / scatter * 1e-9,
            "GB/s");
  }
  out.info["calibration"] =
      "{\"llc_bytes\": " + json_number(static_cast<double>(llc_bytes)) +
      ", \"threads\": " + std::to_string(nproc) +
      ", \"buffer_bytes\": " + json_number(static_cast<double>(n * sizeof(double))) +
      ", \"triad_array_bytes\": " +
      json_number(static_cast<double>(n3 * sizeof(double))) +
      ", \"triad_bytes_per_pass\": " +
      json_number(static_cast<double>(3 * n3 * sizeof(double))) +
      ", \"gather_source_bytes\": " +
      json_number(static_cast<double>(n * sizeof(double))) +
      ", \"gather_accesses\": " + std::to_string(m) +
      ", \"passes\": " + std::to_string(kPasses) + "}";
}

}  // namespace perfbench
