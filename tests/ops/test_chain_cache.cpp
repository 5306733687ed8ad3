// OPS chain-schedule IR and cache: codec round trips, decode validation
// against the live chain (bit-flip robustness sweep included), plan_for
// memoization, the CloverLeaf warm-start differential (zero chain
// analysis, bitwise-identical results), one doctored-entry fallback per
// decoder rejection, and a testkit sweep with the cache enabled end to
// end.
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apl/io/plan_cache.hpp"
#include "apl/testkit/testkit.hpp"
#include "apl/trace.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "ops/ops.hpp"
#include "../support/plan_cache_entries.hpp"

namespace {

using apl::plan_cache::Store;
using apl::trace::Recorder;
using cloverleaf::CloverOps;
using ops::Access;
using ops::ChainSchedule;
using ops::Range;

struct CacheDir {
  explicit CacheDir(const std::string& name)
      : dir((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(dir);
    Store::global().set_directory(dir);
  }
  ~CacheDir() {
    Store::global().set_directory("");
    std::filesystem::remove_all(dir);
  }
  std::string dir;
};

struct Heat2D : apl::testkit::HeatGrid {
  ops::index_t n;
  explicit Heat2D(ops::index_t size = 32) : HeatGrid(size, size), n(size) {}
};

ops::LoopRecord record_of(const ops::Block& blk, const Range& r,
                          std::vector<ops::ArgInfo> infos) {
  ops::LoopRecord rec;
  rec.name = "synthetic";
  rec.block = &blk;
  rec.range = r;
  rec.infos = std::move(infos);
  return rec;
}

/// A jacobi+copy style 2-loop chain with flow and anti dependences —
/// enough structure to produce a tiled segment with nonzero skews.
std::vector<ops::LoopRecord> sweep_chain(Heat2D& h) {
  const Range r = Range::dim2(0, h.n, 0, h.n);
  const ops::ArgInfo read_u{h.u->id(), h.five->id(), Access::kRead,
                            1, sizeof(double), false, false};
  const ops::ArgInfo write_t{h.t->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  const ops::ArgInfo read_t{h.t->id(), h.ctx.stencil_point(2).id(),
                            Access::kRead, 1, sizeof(double), false, false};
  const ops::ArgInfo write_u{h.u->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  std::vector<ops::LoopRecord> chain;
  chain.push_back(record_of(*h.grid, r, {read_u, write_t}));
  chain.push_back(record_of(*h.grid, r, {read_t, write_u}));
  return chain;
}

// ---- schedule IR codec ------------------------------------------------------

TEST(ChainSchedule, EncodeDecodeRoundTrip) {
  Heat2D h;
  const auto chain = sweep_chain(h);
  const ChainSchedule sched = ops::detail::analyze_chain(h.ctx, chain);
  ASSERT_FALSE(sched.ops.empty());

  const auto payload = ops::encode_schedule(sched);
  std::string diag;
  const auto back = ops::decode_schedule(payload, h.ctx, chain, &diag);
  ASSERT_TRUE(back.has_value()) << diag;
  EXPECT_EQ(back->groups, sched.groups);
  ASSERT_EQ(back->ops.size(), sched.ops.size());
  for (std::size_t i = 0; i < sched.ops.size(); ++i) {
    const ChainSchedule::Op& a = sched.ops[i];
    const ChainSchedule::Op& b = back->ops[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.dim, b.dim);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.h, b.h);
    EXPECT_EQ(a.tiles, b.tiles);
    EXPECT_EQ(a.tiled_bytes, b.tiled_bytes);
    EXPECT_EQ(a.skews, b.skews);
  }
}

TEST(ChainSchedule, DecodeRejectsWrongChainLength) {
  Heat2D h;
  auto chain = sweep_chain(h);
  const auto payload = ops::encode_schedule(
      ops::detail::analyze_chain(h.ctx, chain));
  chain.pop_back();
  std::string diag;
  EXPECT_FALSE(ops::decode_schedule(payload, h.ctx, chain, &diag));
  EXPECT_NE(diag.find("chain-ir:"), std::string::npos);
}

TEST(ChainSchedule, DecodeSurvivesSingleBitFlips) {
  // Robustness sweep: no single-bit corruption of the payload may crash
  // the decoder — each flip either still decodes (bit was in a stats
  // field) or rejects with a named diagnostic.
  Heat2D h(16);
  const auto chain = sweep_chain(h);
  const auto payload = ops::encode_schedule(
      ops::detail::analyze_chain(h.ctx, chain));
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    auto bad = payload;
    bad[i] ^= 0x40;
    std::string diag;
    const auto dec = ops::decode_schedule(bad, h.ctx, chain, &diag);
    if (!dec) {
      ++rejected;
      EXPECT_FALSE(diag.empty()) << "rejection without diagnostic at byte "
                                 << i;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ChainSchedule, PlanForMemoizesBySignature) {
  Heat2D h;
  const auto chain = sweep_chain(h);
  const ChainSchedule& s1 = h.ctx.plan_for({"sweep", &chain});
  const ChainSchedule& s2 = h.ctx.plan_for({"sweep", &chain});
  EXPECT_EQ(&s1, &s2);
  EXPECT_NE(s1.signature, 0u);

  // A config change (tile height) must produce a different schedule.
  h.ctx.set_tile_rows(8);
  const ChainSchedule& s3 = h.ctx.plan_for({"sweep", &chain});
  EXPECT_NE(&s3, &s1);
  EXPECT_NE(s3.signature, s1.signature);
}

// ---- CloverLeaf warm start --------------------------------------------------

cloverleaf::Options lazy_opts() {
  cloverleaf::Options o;
  o.nx = 24;
  o.ny = 24;
  o.lazy = true;
  return o;
}

std::vector<double> run_clover(int steps) {
  CloverOps app(lazy_opts());
  // Guarded kAccess forces eager chain flushes (snapshot/diff is
  // meaningless inside a fused chain), which would bypass the schedule
  // cache entirely; drop that one check if OPAL_VERIFY armed it.
  app.ctx().set_verify(app.ctx().verify_checks() & ~apl::verify::kAccess);
  app.run(steps);
  app.ctx().flush();
  return app.density();
}

TEST(ChainCacheWarm, WarmRunSkipsChainAnalysisAndMatchesCold) {
  CacheDir cache("ops_warm_cache");

  const std::vector<double> cold = run_clover(3);
  const auto cold_stats = Store::global().stats();
  ASSERT_GT(cold_stats.stores, 0u);

  Store::global().reset_stats();
  Recorder::global().clear();
  Recorder::global().set_enabled(true);
  const std::vector<double> warm = run_clover(3);
  Recorder::global().set_enabled(false);
  const auto evs = Recorder::global().snapshot();
  Recorder::global().clear();

  std::size_t analyzed = 0, hits = 0;
  for (const auto& e : evs) {
    if (e.name.rfind("chain_analyze", 0) == 0) ++analyzed;
    if (e.name.rfind("chain_hit", 0) == 0) ++hits;
  }
  EXPECT_EQ(analyzed, 0u) << "warm start re-analyzed a chain";
  EXPECT_GT(hits, 0u);

  const auto warm_stats = Store::global().stats();
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.corrupt, 0u);

  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_EQ(std::memcmp(cold.data(), warm.data(),
                        cold.size() * sizeof(double)),
            0)
      << "warm start diverged from cold run";
}

TEST(ChainCacheWarm, CacheOffAndOnAgree) {
  // The cache must be invisible to results: the same lazy run with the
  // store disabled matches the cached runs bitwise.
  std::vector<double> plain;
  {
    Store::global().set_directory("");
    plain = run_clover(2);
  }
  CacheDir cache("ops_cache_vs_plain");
  const std::vector<double> cached = run_clover(2);
  ASSERT_EQ(plain.size(), cached.size());
  EXPECT_EQ(std::memcmp(plain.data(), cached.data(),
                        plain.size() * sizeof(double)),
            0);
}

// ---- doctored entries: every decoder rejection falls back cleanly ----------

/// The heat grid plus a second block: one flushed chain of jacobi and copy
/// on the grid, then a scale loop on the side block — two groups, the
/// first a tiled segment with real skews.
struct TwoBlocks : Heat2D {
  ops::Block* side = nullptr;
  ops::Dat<double>* s = nullptr;

  TwoBlocks() : Heat2D(16) {
    // Guarded kAccess runs every loop eagerly, bypassing the cache.
    ctx.set_verify(ctx.verify_checks() & ~apl::verify::kAccess);
    side = &ctx.decl_block(2, "side");
    s = &ctx.decl_dat<double>(*side, 1, {8, 8, 1}, {1, 1, 0}, {1, 1, 0},
                              "s");
  }

  Range side_range() const { return Range::dim2(0, 8, 0, 8); }

  /// The flushed chain's records as decode_schedule sees them (it reads
  /// only the record count and each record's block).
  std::vector<ops::LoopRecord> chain() const {
    return {record_of(*grid, interior(), {}), record_of(*grid, interior(), {}),
            record_of(*side, side_range(), {})};
  }
};

/// Runs the two-block chain lazily with 4-row tiles and returns u ++ s.
std::vector<double> run_two_blocks() {
  TwoBlocks p;
  ops::par_loop(p.ctx, "init", *p.grid, p.with_halo(),
                [](ops::Acc<double> u, const int* idx) {
                  u(0, 0) = 0.5 + 0.01 * idx[0] + 0.02 * idx[1];
                },
                ops::arg(*p.u, Access::kWrite), ops::arg_idx());
  ops::par_loop(p.ctx, "init_side", *p.side, p.side_range(),
                [](ops::Acc<double> s, const int* idx) {
                  s(0, 0) = 0.25 * idx[0] - 0.125 * idx[1];
                },
                ops::arg(*p.s, Access::kWrite), ops::arg_idx());
  p.ctx.set_tile_rows(4);
  p.ctx.set_lazy(true);
  ops::par_loop(p.ctx, "jacobi", *p.grid, p.interior(),
                [](ops::Acc<double> u, ops::Acc<double> out) {
                  out(0, 0) = 0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1));
                },
                ops::arg(*p.u, *p.five, Access::kRead),
                ops::arg(*p.t, Access::kWrite));
  ops::par_loop(p.ctx, "copy", *p.grid, p.interior(),
                [](ops::Acc<double> out, ops::Acc<double> u) {
                  u(0, 0) = out(0, 0);
                },
                ops::arg(*p.t, Access::kRead), ops::arg(*p.u, Access::kWrite));
  ops::par_loop(p.ctx, "scale", *p.side, p.side_range(),
                [](ops::Acc<double> s) { s(0, 0) = 2.0 * s(0, 0) + 1.0; },
                ops::arg(*p.s, Access::kRW));
  p.ctx.flush();
  std::vector<double> out = p.u->to_vector();
  const std::vector<double> side = p.s->to_vector();
  out.insert(out.end(), side.begin(), side.end());
  return out;
}

ChainSchedule::Op* tiled_op(ChainSchedule& sched) {
  for (ChainSchedule::Op& op : sched.ops) {
    if (op.kind == ChainSchedule::OpKind::kTiledSegment && op.count > 1) {
      return &op;
    }
  }
  return nullptr;
}

/// Cold run, then `doctor` edits the cached schedule (false: not
/// applicable). The warm run must count the entry corrupt with a
/// diagnostic naming `why`, analyze the chain afresh and match the cold
/// run bitwise.
void expect_reinspected(const std::string& cache_name,
                        const std::function<bool(ChainSchedule&)>& doctor,
                        const std::string& why) {
  CacheDir cache(cache_name);
  const std::vector<double> cold = run_two_blocks();
  const TwoBlocks live;
  const std::vector<ops::LoopRecord> chain = live.chain();
  const std::size_t rewritten = test_support::rewrite_entries(
      Store::global(), "ops", [&](std::vector<std::uint8_t>& payload) {
        std::string diag;
        auto sched = ops::decode_schedule(payload, live.ctx, chain, &diag);
        if (!sched || !doctor(*sched)) return false;
        payload = ops::encode_schedule(*sched);
        return true;
      });
  ASSERT_EQ(rewritten, 1u) << "the chain's cached schedule was not doctored";

  Recorder::global().clear();
  Recorder::global().set_enabled(true);
  const std::vector<double> warm = run_two_blocks();
  Recorder::global().set_enabled(false);
  const auto evs = Recorder::global().snapshot();
  Recorder::global().clear();
  std::size_t analyzed = 0;
  for (const auto& e : evs) {
    if (e.name.rfind("chain_analyze", 0) == 0) ++analyzed;
  }

  EXPECT_EQ(Store::global().stats().corrupt, 1u);
  const std::string& diag = Store::global().last_diagnostic();
  EXPECT_NE(diag.find("chain-ir: " + why), std::string::npos) << diag;
  EXPECT_EQ(analyzed, 1u) << "the doctored chain was not analyzed afresh";
  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_EQ(
      std::memcmp(cold.data(), warm.data(), cold.size() * sizeof(double)), 0)
      << "doctored cache entry altered results";
}

TEST(ChainCacheDoctored, OutOfOrderGroupIsRejected) {
  expect_reinspected(
      "ops_doctor_order",
      [](ChainSchedule& s) {
        if (s.groups.empty() || s.groups[0].size() < 2) return false;
        std::swap(s.groups[0][0], s.groups[0][1]);
        return true;
      },
      "group violates chain order or mixes blocks");
}

TEST(ChainCacheDoctored, GroupMixingBlocksIsRejected) {
  expect_reinspected(
      "ops_doctor_blocks",
      [](ChainSchedule& s) {
        if (s.groups.size() != 2) return false;
        s.groups[0].insert(s.groups[0].end(), s.groups[1].begin(),
                           s.groups[1].end());
        s.groups.pop_back();
        return true;
      },
      "group violates chain order or mixes blocks");
}

TEST(ChainCacheDoctored, TiledSegmentGeometryIsRejected) {
  expect_reinspected(
      "ops_doctor_geometry",
      [](ChainSchedule& s) {
        ChainSchedule::Op* op = tiled_op(s);
        if (op == nullptr) return false;
        op->h = 0;
        return true;
      },
      "tiled segment has invalid geometry");
}

TEST(ChainCacheDoctored, SkewTableRangeIsRejected) {
  expect_reinspected(
      "ops_doctor_skew_range",
      [](ChainSchedule& s) {
        ChainSchedule::Op* op = tiled_op(s);
        if (op == nullptr) return false;
        op->skews.pop_back();
        return true;
      },
      "tiled segment skew table out of range");
}

TEST(ChainCacheDoctored, IncreasingSkewsAreRejected) {
  expect_reinspected(
      "ops_doctor_skew_order",
      [](ChainSchedule& s) {
        ChainSchedule::Op* op = tiled_op(s);
        if (op == nullptr) return false;
        op->skews[1] = op->skews[0] + 1;
        return true;
      },
      "tiled segment skews increase along the chain");
}

TEST(ChainCacheDoctored, PartiallyScheduledGroupIsRejected) {
  expect_reinspected(
      "ops_doctor_partial",
      [](ChainSchedule& s) {
        ChainSchedule::Op* op = tiled_op(s);
        if (op == nullptr) return false;
        op->count = 1;
        op->skews.resize(1);
        return true;
      },
      "group 0 left partially scheduled");
}

// ---- testkit sweep with the cache enabled -----------------------------------

TEST(ChainCacheWarm, TestkitSweepCleanWithCacheEnabled) {
  CacheDir cache("testkit_cache_sweep");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const apl::testkit::FuzzReport rep = apl::testkit::fuzz_case(seed);
    EXPECT_TRUE(rep.ok) << rep.message;
  }
  // The sweep's own plans flowed through the store.
  const auto stats = Store::global().stats();
  EXPECT_GT(stats.stores + stats.hits, 0u);
}

}  // namespace
