// Distributed OPS moves halo strips, scatters and gathers a row at a time
// (ops::copy_rows). Each case runs one program serially and on a process
// grid and requires the full allocations, halos included, to agree bit for
// bit: multi-component dats with uneven halo depths, ranks narrower than
// the halo, lazy rank contexts, and scatter/fetch round trips.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "ops/ops.hpp"

namespace {

using ops::Access;
using ops::index_t;
using Extent = std::array<index_t, ops::kMaxDim>;

/// Bytes of a dat's full allocation, halos included.
std::vector<std::uint8_t> bytes_of(const ops::DatBase& dat) {
  const auto* p = static_cast<const std::uint8_t*>(dat.raw());
  return {p, p + dat.alloc_points() * dat.dim() * dat.elem_bytes()};
}

/// Fills every component of every allocated point, halos included, with a
/// value unique to its position.
void fill_unique(ops::Dat<double>& dat, double base) {
  const auto span = dat.storage();
  for (std::size_t n = 0; n < span.size(); ++n) {
    span[n] = base + 0.001 * static_cast<double>(n);
  }
}

/// A two-component field with halo depths that differ per side, stepped
/// by a box stencil reaching the whole halo and by boundary loops that
/// rewrite every physical halo point each step.
struct Uneven {
  Uneven(int ndim, index_t nx, index_t ny, Extent dm, Extent dp)
      : nx(nx), ny(ny), dm(dm), dp(dp) {
    block = &ctx.decl_block(ndim, "grid");
    std::vector<std::array<int, ops::kMaxDim>> pts;
    for (int j = -dm[1]; j <= dp[1]; ++j) {
      for (int i = -dm[0]; i <= dp[0]; ++i) pts.push_back({i, j, 0});
    }
    reach = &ctx.decl_stencil(ndim, pts, "reach");
    v = &ctx.decl_dat<double>(*block, 2, {nx, ny, 1}, dm, dp, "v");
    w = &ctx.decl_dat<double>(*block, 2, {nx, ny, 1}, dm, dp, "w");
  }

  template <class Loop>
  void run(Loop&& loop, int steps) {
    const auto all = ops::Range::dim2(-dm[0], nx + dp[0], -dm[1], ny + dp[1]);
    loop("init", all,
         [](ops::Acc<double> v, ops::Acc<double> w, const int* idx) {
           for (int c = 0; c < 2; ++c) {
             v.at(c, 0, 0) = std::sin(0.37 * (idx[0] + 3) * (c + 1)) +
                             std::cos(0.23 * (idx[1] + 2)) * (c + 1);
             w.at(c, 0, 0) = 0.0;
           }
         },
         ops::arg(*v, Access::kWrite), ops::arg(*w, Access::kWrite),
         ops::arg_idx());
    const auto& pts = reach->points();
    for (int s = 0; s < steps; ++s) {
      const auto bc = [s](ops::Acc<double> v, const int* idx) {
        for (int c = 0; c < 2; ++c) {
          v.at(c, 0, 0) = 0.01 * s + 0.1 * c + 0.003 * idx[0] - 0.002 * idx[1];
        }
      };
      const ops::Range sides[] = {
          ops::Range::dim2(-dm[0], 0, 0, ny),
          ops::Range::dim2(nx, nx + dp[0], 0, ny),
          ops::Range::dim2(-dm[0], nx + dp[0], -dm[1], 0),
          ops::Range::dim2(-dm[0], nx + dp[0], ny, ny + dp[1]),
      };
      for (const ops::Range& side : sides) {
        if (side.empty()) continue;
        loop("bc", side, bc, ops::arg(*v, Access::kWrite), ops::arg_idx());
      }
      loop("mix", ops::Range::dim2(0, nx, 0, ny),
           [&pts](ops::Acc<double> v, ops::Acc<double> w) {
             for (int c = 0; c < 2; ++c) {
               double acc = 0.5 * v.at(c, 0, 0);
               for (std::size_t p = 0; p < pts.size(); ++p) {
                 acc += (0.01 + 0.001 * static_cast<double>(p)) *
                        v.at(1 - c, pts[p][0], pts[p][1]);
               }
               w.at(c, 0, 0) = acc;
             }
           },
           ops::arg(*v, *reach, Access::kRead), ops::arg(*w, Access::kWrite));
      loop("copy", ops::Range::dim2(0, nx, 0, ny),
           [](ops::Acc<double> w, ops::Acc<double> v) {
             v.at(0, 0, 0) = w.at(0, 0, 0);
             v.at(1, 0, 0) = w.at(1, 0, 0);
           },
           ops::arg(*w, Access::kRead), ops::arg(*v, Access::kWrite));
    }
  }

  ops::Context ctx;
  ops::Block* block = nullptr;
  const ops::Stencil* reach = nullptr;
  ops::Dat<double>* v = nullptr;
  ops::Dat<double>* w = nullptr;
  index_t nx, ny;
  Extent dm, dp;
};

struct Case {
  int ndim;
  index_t nx, ny;
  Extent dm, dp;
  int nranks;
  std::array<int, 2> grid;  ///< expected process grid {x, y}
  bool lazy;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.ndim << "D " << c.nx << "x" << c.ny << " on a " << c.grid[0]
      << "x" << c.grid[1] << " grid" << (c.lazy ? ", lazy" : "");
}

/// Runs `c` serially and distributed; returns {serial, distributed} bytes
/// of v then w.
std::array<std::vector<std::uint8_t>, 4> run_both(const Case& c) {
  Uneven ref(c.ndim, c.nx, c.ny, c.dm, c.dp);
  ref.run(
      [&](const char* name, const ops::Range& r, auto&& k, auto... args) {
        ops::par_loop(ref.ctx, name, *ref.block, r, k, args...);
      },
      3);
  Uneven u(c.ndim, c.nx, c.ny, c.dm, c.dp);
  ops::Distributed dist(u.ctx, c.nranks);
  const auto grid = dist.process_grid(*u.block);
  EXPECT_EQ(grid[0], c.grid[0]);
  EXPECT_EQ(grid[1], c.grid[1]);
  dist.set_node_lazy(c.lazy);
  u.run(
      [&](const char* name, const ops::Range& r, auto&& k, auto... args) {
        dist.par_loop(name, *u.block, r, k, args...);
      },
      3);
  // Under lazy rank contexts the last loop is still queued here: fetch
  // must flush it before it copies.
  dist.fetch(*u.v);
  dist.fetch(*u.w);
  return {bytes_of(*ref.v), bytes_of(*u.v), bytes_of(*ref.w), bytes_of(*u.w)};
}

class OpsDistRows : public ::testing::TestWithParam<Case> {};

TEST_P(OpsDistRows, BitwiseMatchesSerial) {
  const auto got = run_both(GetParam());
  EXPECT_TRUE(got[0] == got[1]) << "v differs from the serial run";
  EXPECT_TRUE(got[2] == got[3]) << "w differs from the serial run";
}

// Two components, d_m != d_p in every split dimension. The near-square
// factorization puts the larger factor in y, so a 2D block never splits x
// alone: prime rank counts give y-only grids and a 1D block gives x-only.
INSTANTIATE_TEST_SUITE_P(
    Grids, OpsDistRows,
    ::testing::Values(
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 3, {1, 3}, false},  // y only
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 5, {1, 5}, false},  // y only
        Case{1, 37, 1, {2, 0, 0}, {1, 0, 0}, 4, {4, 1}, false},   // x only
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 4, {2, 2}, false},
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 6, {2, 3}, false}));

// Ranks narrower than the halo: a strip dips into the source rank's own
// halo and deep layers arrive through chained neighbour copies, which
// needs each sweep in flow order. The 1D case is testkit seed 324's shape
// (4 ranks over 4 points under a depth-2 halo).
INSTANTIATE_TEST_SUITE_P(
    NarrowRanks, OpsDistRows,
    ::testing::Values(
        Case{1, 4, 1, {2, 0, 0}, {2, 0, 0}, 4, {4, 1}, false},
        Case{1, 5, 1, {3, 0, 0}, {2, 0, 0}, 5, {5, 1}, false},
        Case{2, 9, 3, {1, 2, 0}, {2, 2, 0}, 3, {1, 3}, false}));

// Lazy rank contexts: exchange, fetch and scatter read dats whose writers
// may still be queued, so every copy must flush first.
INSTANTIATE_TEST_SUITE_P(
    Lazy, OpsDistRows,
    ::testing::Values(
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 4, {2, 2}, true},
        Case{2, 17, 23, {2, 1, 0}, {1, 2, 0}, 6, {2, 3}, true},
        Case{1, 4, 1, {2, 0, 0}, {2, 0, 0}, 4, {4, 1}, true}));

// ---- scatter -> fetch -------------------------------------------------------

class OpsDistRoundTrip : public ::testing::TestWithParam<int> {};

// A node-centred and a cell-centred dat share a block, so the decomposition
// follows the 513 x 65 node extent and the last rank column of the 512 x 64
// cell dat is one point narrower. Constructing Distributed scatters both;
// fetching into zeroed globals must restore every byte, physical halos
// included.
TEST_P(OpsDistRoundTrip, NodeAndCellDatsRestoreEveryByte) {
  ops::Context ctx;
  auto& block = ctx.decl_block(2, "grid");
  auto& node = ctx.decl_dat<double>(block, 2, {513, 65, 1}, {2, 1, 0},
                                    {1, 2, 0}, "node");
  auto& cell = ctx.decl_dat<double>(block, 1, {512, 64, 1}, {1, 1, 0},
                                    {1, 1, 0}, "cell");
  fill_unique(node, 1.0);
  fill_unique(cell, -7.0);
  const auto node_ref = bytes_of(node);
  const auto cell_ref = bytes_of(cell);
  ops::Distributed dist(ctx, GetParam());
  std::memset(node.raw(), 0, node_ref.size());
  std::memset(cell.raw(), 0, cell_ref.size());
  dist.fetch(node);
  dist.fetch(cell);
  EXPECT_TRUE(bytes_of(node) == node_ref);
  EXPECT_TRUE(bytes_of(cell) == cell_ref);
}

INSTANTIATE_TEST_SUITE_P(Ranks, OpsDistRoundTrip, ::testing::Values(3, 6));

// A dat far smaller than its block's reference extent: on a 2x2 grid over
// the 8 x 8 reference, the second rank column starts at x = 4, beyond the
// 2-wide dat. Its one-point local dat overlaps the global allocation only
// in its low-x halo (global x = 3, the dat's high physical halo), so
// scatter copies that column and leaves the rest untouched; fetch takes
// the whole x range from the first column.
TEST(OpsDistRoundTrip, DatNarrowerThanDecompositionClipsToAllocation) {
  ops::Context ctx;
  auto& block = ctx.decl_block(2, "grid");
  ctx.decl_dat<double>(block, 1, {8, 8, 1}, {1, 1, 0}, {1, 1, 0}, "ref");
  auto& thin =
      ctx.decl_dat<double>(block, 1, {2, 8, 1}, {1, 1, 0}, {2, 1, 0}, "thin");
  fill_unique(thin, 3.0);
  const auto ref = bytes_of(thin);
  ops::Distributed dist(ctx, 4);
  ASSERT_EQ(dist.process_grid(block)[0], 2);

  auto& far = static_cast<ops::Dat<double>&>(
      dist.rank_context(1).dat(thin.id()));
  ASSERT_EQ(far.size()[0], 1);
  for (index_t j = -1; j < far.size()[1] + 1; ++j) {
    EXPECT_EQ(*far.at(-1, j), *thin.at(3, j)) << j;
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(*far.at(i, j), 0.0) << i;
  }

  std::memset(thin.raw(), 0, ref.size());
  dist.fetch(thin);
  EXPECT_TRUE(bytes_of(thin) == ref);
}

}  // namespace
