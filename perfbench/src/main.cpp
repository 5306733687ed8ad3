// perfbench: runs one workload of the benchmark and prints one JSON report
// on stdout (perfbench/run.py builds this program, adds the host
// descriptor and prints the metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--llc-bytes <b>] [--out-dir <dir>]
//   perfbench --selftest
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

std::string table_json() {
  std::string s = "{\"version\": " + std::to_string(kWorkloadTableVersion) +
                  ", \"workloads\": [";
  bool first = true;
  for (const Workload& w : workload_table()) {
    s += first ? "" : ", ";
    first = false;
    s += "{\"name\": " + json_string(w.name) + ", \"app\": " + json_string(w.app) +
         ", \"nx\": " + std::to_string(w.nx) + ", \"ny\": " + std::to_string(w.ny) +
         ", \"ranks\": " + std::to_string(w.ranks) +
         ", \"setups\": " + std::to_string(w.setups) +
         ", \"blocks\": " + std::to_string(w.blocks) +
         ", \"warmup\": " + std::to_string(w.warmup) +
         ", \"min_samples\": " + std::to_string(w.min_samples) +
         ", \"modes\": [";
    for (std::size_t i = 0; i < mode_names().size(); ++i) {
      s += (i ? ", " : "") + json_string(mode_names()[i]);
    }
    s += "], \"seed_range\": \"any unsigned 64-bit integer\", \"seeded\": {";
    for (std::size_t i = 0; i < w.params.size(); ++i) {
      s += (i ? ", " : "") + json_string(w.params[i].name) + ": [" +
           json_number(w.params[i].lo) + ", " + json_number(w.params[i].hi) + "]";
    }
    s += "}}";
  }
  return s + "]}";
}

std::string report_json(const RunConfig& cfg, const Checker& check,
                        const Tracer& tracer, const Result& out) {
  std::string s = "{\"workload\": " + json_string(cfg.workload->name) +
                  ", \"seed\": " + std::to_string(cfg.seed) +
                  ", \"seconds\": " + json_number(cfg.seconds) +
                  ", \"trace\": " + (cfg.trace ? "true" : "false") +
                  ", \"workload_table\": " + table_json() +
                  ", \"attempted\": " + std::to_string(check.attempted()) +
                  ", \"failed\": " + std::to_string(check.failed()) +
                  ", \"failures\": [";
  const auto failures = check.failures();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    s += (i ? ", " : "") + json_string(failures[i]);
  }
  s += "], \"info\": {";
  bool first = true;
  for (const auto& [k, v] : out.info) {
    s += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  s += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    s += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit);
    for (const auto& [k, v] : m.detail) {
      s += ", " + json_string(k) + ": " + json_number(v);
    }
    s += "}";
    first = false;
  }
  s += "}, \"span_self_ms\": {";
  first = true;
  for (const auto& [name, row] : tracer.self_times()) {
    s += (first ? "" : ", ") + json_string(name) + ": {\"count\": " +
         json_number(row[0]) + ", \"total_ms\": " + json_number(row[1]) +
         ", \"self_ms\": " + json_number(row[2]) + "}";
    first = false;
  }
  return s + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--llc-bytes <b>] [--out-dir <dir>]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A clean configuration: no persistent plan cache (set-up is measured
  // cold), no guarded execution, no injected faults, no library tracing.
  for (const char* key : {"APL_BACKEND", "OPAL_PLAN_CACHE", "OPAL_VERIFY",
                          "OPAL_FAULTS", "OPAL_RESILIENCE", "OPAL_TRACE",
                          "OPAL_CHECK_FINITE"}) {
    ::unsetenv(key);
  }

  RunConfig cfg;
  std::uint64_t llc_bytes = 32ull << 20;
  std::string out_dir = ".";
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
        have_seconds = cfg.seconds > 0;
      } else if (a == "--trace") {
        cfg.trace = v == "1";
        have_trace = v == "0" || v == "1";
      } else if (a == "--llc-bytes") {
        llc_bytes = std::stoull(v);
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  cfg.workload = find_workload(workload);
  if (!cfg.workload) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  cfg.io_dir = out_dir + "/io";
  std::filesystem::create_directories(cfg.io_dir);

  Result out;
  Checker check;
  Tracer tracer(cfg.trace);
  // The workload runs on a thread of its own. The main thread's stack sits
  // at an offset that varies with ASLR and with the size of argv and the
  // environment; on the tiny workload that offset alone moved iteration
  // times by up to 1.7x from one process to the next (4K aliasing against
  // heap data). A thread stack is page-aligned, so every run gets the same
  // layout.
  std::string error;
  std::thread body([&] {
    try {
      if (cfg.trace) calibrate(llc_bytes, out);
      if (cfg.workload->app == "airfoil") {
        run_airfoil(cfg, check, tracer, out);
      } else {
        run_clover(cfg, check, tracer, out);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  body.join();
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  out.set("failed_fraction",
          check.attempted() > 0
              ? static_cast<double>(check.failed()) / check.attempted()
              : 1.0,
          "1");
  if (cfg.trace) {
    std::ofstream(out_dir + "/trace-" + cfg.workload->name + "-seed" +
                  std::to_string(cfg.seed) + ".json")
        << tracer.to_json();
  }
  std::printf("%s\n", report_json(cfg, check, tracer, out).c_str());
  return 0;
}
