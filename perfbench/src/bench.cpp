#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apl/profile.hpp"

namespace perfbench {

const std::vector<Workload>& workload_table() {
  // Sizes are part of the series identity: change one, bump
  // kWorkloadTableVersion.
  static const std::vector<Workload> table = {
      // ~2.1M cells: the per-iteration working set (~350 MB of dats and
      // maps) overflows a 300 MiB LLC, so the loops stream from DRAM.
      {"airfoil_dram", "airfoil", 2048, 1024, 0, /*setups=*/1,
       /*blocks=*/1, /*warmup=*/1, /*min_samples=*/5, /*min_round_trips=*/3,
       /*max_round_trips=*/8, /*restore_steps=*/1, {{"bump", 0.04, 0.10}}},
      // 32 cells: kernel work is negligible, the per-loop runtime cost is
      // what is left.
      {"airfoil_tiny", "airfoil", 8, 4, 0, 100, 25, 500, 100, 1, 8, 1,
       {{"bump", 0.04, 0.10}}},
      // 512^2 cells on 4 simulated ranks (~50 MB of fields: beyond the
      // summed L2, inside the LLC).
      {"clover_dist", "cloverleaf", 512, 512, 4, 5, 10, 2, 3, 2, 3, 2,
       {{"state2_xfrac", 0.30, 0.60}, {"state2_yfrac", 0.15, 0.30}}},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workload_table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double seed_param(const Workload& w, std::size_t i, std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const Workload::Param& p = w.params.at(i);
  return p.lo + (p.hi - p.lo) * u;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + n / 2));
}

std::optional<std::pair<double, double>> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    const double beyond = std::floor(n * (1.0 - p / 100.0));
    if (beyond < 10.0) continue;
    const auto idx = static_cast<std::size_t>(n - beyond - 1.0);
    return std::make_pair(p, v[idx]);
  }
  return std::nullopt;
}

std::optional<std::string> non_finite(const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      return "non-finite value " + json_number(v[i]) + " at entry " +
             std::to_string(i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> mismatch(const std::vector<double>& got,
                                    const std::vector<double>& ref,
                                    double rtol) {
  if (auto bad = non_finite(got)) return bad;
  if (got.size() != ref.size()) {
    return "size " + std::to_string(got.size()) + " != reference " +
           std::to_string(ref.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool ok = rtol == 0.0
                        ? got[i] == ref[i] &&
                              std::signbit(got[i]) == std::signbit(ref[i])
                        : std::fabs(got[i] - ref[i]) <=
                              rtol * std::max(std::fabs(ref[i]), 1.0);
    if (!ok) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "entry %zu: %.17g vs reference %.17g%s",
                    i, got[i], ref[i], rtol == 0.0 ? " (bitwise)" : "");
      return std::string(buf);
    }
  }
  return std::nullopt;
}

int Checker::attempt(const std::string& op) {
  ops_.push_back({op, ""});
  return static_cast<int>(ops_.size()) - 1;
}

void Checker::fail(int id, const std::string& reason) {
  Op& op = ops_.at(static_cast<std::size_t>(id));
  if (!op.reason.empty()) return;
  op.reason = reason.empty() ? "failed" : reason;
  ++failed_;
}

std::vector<std::string> Checker::failures() const {
  std::vector<std::string> out;
  for (const Op& op : ops_) {
    if (!op.reason.empty()) out.push_back(op.name + ": " + op.reason);
  }
  return out;
}

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = apl::now_seconds();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end = apl::now_seconds();
  if (probe_) s.at_end = probe_();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::self_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& row = out[s.name];
    if (row.empty()) row.assign(3, 0.0);
    row[0] += 1;
    row[1] += (s.end - s.start) * 1e3;
    row[2] += (s.end - s.start - child[i]) * 1e3;
  }
  return out;
}

std::string Tracer::to_json() const {
  std::string out = "[";
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const Counters& c = s.at_end;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\": %zu, \"name\": %s, \"parent\": %d, "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"counters\": "
                  "{\"loop_s\": %.9g, \"loop_calls\": %llu, \"plan_s\": %.9g, "
                  "\"chain_flushes\": %llu, \"chain_tiles\": %llu, "
                  "\"messages\": %llu, \"msg_bytes\": %llu, "
                  "\"allreduces\": %llu, \"ckpt_bytes\": %llu}}",
                  i == 0 ? "" : ",", i, json_string(s.name).c_str(), s.parent,
                  (s.start - t0) * 1e6, (s.end - t0) * 1e6, c.loop_s,
                  static_cast<unsigned long long>(c.loop_calls), c.plan_s,
                  static_cast<unsigned long long>(c.chain_flushes),
                  static_cast<unsigned long long>(c.chain_tiles),
                  static_cast<unsigned long long>(c.messages),
                  static_cast<unsigned long long>(c.msg_bytes),
                  static_cast<unsigned long long>(c.allreduces),
                  static_cast<unsigned long long>(c.ckpt_bytes));
    out += buf;
  }
  return out + "\n]\n";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
