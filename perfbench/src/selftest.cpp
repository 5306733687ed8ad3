// The benchmark's own test: the correctness check behind failed_fraction
// must count a planted mismatch as a failure, in the comparison helper
// and through the full mode runner of both apps.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "bench.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

/// Runs `w` end to end with a mismatch planted in `plant` ("" = none).
Checker run_small(const Workload& w, const std::string& plant,
                  const std::string& io_dir) {
  RunConfig cfg;
  cfg.workload = &w;
  cfg.seed = 7;
  cfg.seconds = 0.05;
  cfg.io_dir = io_dir;
  cfg.plant_mismatch = plant;
  Checker check;
  Tracer tracer(false);
  Result out;
  if (w.app == "airfoil") {
    run_airfoil(cfg, check, tracer, out);
  } else {
    run_clover(cfg, check, tracer, out);
  }
  for (const std::string& f : check.failures()) std::printf("      %s\n", f.c_str());
  return check;
}

bool names(const Checker& c, const std::string& what) {
  for (const std::string& f : c.failures()) {
    if (f.find(what) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int selftest() {
  const std::vector<double> ref = {1.0, -2.5, 3.25e-7, 0.0};
  std::vector<double> got = ref;
  expect(!mismatch(got, ref, 0.0), "identical state matches bitwise");
  got[1] = std::nextafter(got[1], 0.0);
  expect(mismatch(got, ref, 0.0).has_value(), "one-ulp change fails bitwise");
  expect(!mismatch(got, ref, 1e-12), "one-ulp change passes the tolerance");
  got = ref;
  got[3] = -0.0;
  expect(mismatch(got, ref, 0.0).has_value(), "sign of zero fails bitwise");
  got = ref;
  got[2] = std::numeric_limits<double>::quiet_NaN();
  expect(mismatch(got, ref, 1e-12).has_value(), "NaN fails any tolerance");
  got = ref;
  got.pop_back();
  expect(mismatch(got, ref, 0.0).has_value(), "short state fails");

  Checker c;
  const int a = c.attempt("a");
  c.attempt("b");
  c.fail(a, "planted");
  c.fail(a, "again");
  expect(c.attempted() == 2 && c.failed() == 1,
         "a failed operation counts once against the attempted ones");

  const std::string io_dir = "perfbench-selftest-io";
  std::filesystem::create_directories(io_dir);
  const Workload air{"selftest_airfoil", "airfoil", 8, 4, 0, 2, 2, 3, 3, 2, 2,
                     1, {{"bump", 0.04, 0.10}}};
  expect(run_small(air, "", io_dir).failed() == 0, "airfoil: clean run passes");
  const Checker air_simd = run_small(air, "simd", io_dir);
  expect(air_simd.failed() == 1 && names(air_simd, "/simd"),
         "airfoil: mismatch planted in simd is one failure");
  const Checker air_threads = run_small(air, "threads", io_dir);
  expect(air_threads.failed() == 0,
         "airfoil: one ulp in eager threads stays within its tolerance");
  const Workload clover{"selftest_clover", "cloverleaf", 24, 24, 2, 1, 1, 2, 3,
                        2, 2, 2, {{"state2_xfrac", 0.3, 0.6},
                               {"state2_yfrac", 0.15, 0.3}}};
  expect(run_small(clover, "", io_dir).failed() == 0, "clover: clean run passes");
  const Checker clover_lt = run_small(clover, "lazy_threads", io_dir);
  expect(clover_lt.failed() == 1 && names(clover_lt, "/lazy_threads"),
         "clover: mismatch planted in lazy_threads is one failure");
  std::filesystem::remove_all(io_dir);

  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
