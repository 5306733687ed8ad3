// Distributed backend: the same loops must produce the same answers as the
// sequential backend, for every partitioner and rank count, while all data
// motion flows through the metered simulated communicator. The partition
// itself persists in the plan cache: a warm hit and a corrupt blob are
// covered at the end.
#include "op2/dist.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apl/io/plan_cache.hpp"
#include "apl/trace.hpp"
#include "op2/op2.hpp"
#include "apl/testkit/fixtures.hpp"

namespace {

using apl::graph::PartitionMethod;
using apl::exec::Access;
using op2::index_t;

struct DistHarness {
  explicit DistHarness(index_t nx = 8, index_t ny = 6)
      : mesh(apl::testkit::make_grid(nx, ny)) {
    edges = &ctx.decl_set(mesh.num_edges(), "edges");
    nodes = &ctx.decl_set(mesh.num_nodes(), "nodes");
    e2n = &ctx.decl_map(*edges, *nodes, 2, mesh.edge2node, "e2n");
    x = &ctx.decl_dat<double>(*nodes, 2, mesh.node_coords, "x");
    std::vector<double> qi(mesh.num_nodes());
    for (index_t i = 0; i < mesh.num_nodes(); ++i) qi[i] = 1.0 + i % 7;
    q = &ctx.decl_dat<double>(*nodes, 1, qi, "q");
    res = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "res");
  }
  apl::testkit::GridMesh mesh;
  op2::Context ctx;
  op2::Set* edges;
  op2::Set* nodes;
  op2::Map* e2n;
  op2::Dat<double>* x;
  op2::Dat<double>* q;
  op2::Dat<double>* res;
};

/// Reference: the pseudo-Laplace sweep run with the seq backend.
std::vector<double> reference_sweep(int sweeps) {
  DistHarness h;
  double rms = 0;
  for (int s = 0; s < sweeps; ++s) {
    op2::par_loop(h.ctx, "zero", *h.nodes,
                  [](op2::Acc<double> r) { r[0] = 0; },
                  op2::arg(*h.res, Access::kWrite));
    op2::par_loop(
        h.ctx, "flux", *h.edges,
        [](op2::Acc<double> qa, op2::Acc<double> qb, op2::Acc<double> ra,
           op2::Acc<double> rb) {
          const double f = 0.25 * (qa[0] - qb[0]);
          ra[0] -= f;
          rb[0] += f;
        },
        op2::arg(*h.q, *h.e2n, 0, Access::kRead),
        op2::arg(*h.q, *h.e2n, 1, Access::kRead),
        op2::arg(*h.res, *h.e2n, 0, Access::kInc),
        op2::arg(*h.res, *h.e2n, 1, Access::kInc));
    op2::par_loop(h.ctx, "apply", *h.nodes,
                  [](op2::Acc<double> q, op2::Acc<double> r,
                     op2::Acc<double> s) {
                    q[0] += r[0];
                    s[0] += r[0] * r[0];
                  },
                  op2::arg(*h.q, Access::kRW),
                  op2::arg(*h.res, Access::kRead),
                  op2::arg_gbl(&rms, 1, Access::kInc));
  }
  auto out = h.q->to_vector();
  out.push_back(rms);
  return out;
}

std::vector<double> distributed_sweep(int sweeps, int nranks,
                                      PartitionMethod method,
                                      apl::exec::Backend node_backend,
                                      std::uint64_t* halo_messages = nullptr) {
  DistHarness h;
  op2::Distributed dist(h.ctx, nranks, method, *h.nodes, h.x);
  dist.set_node_backend(node_backend);
  double rms = 0;
  for (int s = 0; s < sweeps; ++s) {
    dist.par_loop("zero", *h.nodes,
                  [](op2::Acc<double> r) { r[0] = 0; },
                  op2::arg(*h.res, Access::kWrite));
    dist.par_loop(
        "flux", *h.edges,
        [](op2::Acc<double> qa, op2::Acc<double> qb, op2::Acc<double> ra,
           op2::Acc<double> rb) {
          const double f = 0.25 * (qa[0] - qb[0]);
          ra[0] -= f;
          rb[0] += f;
        },
        op2::arg(*h.q, *h.e2n, 0, Access::kRead),
        op2::arg(*h.q, *h.e2n, 1, Access::kRead),
        op2::arg(*h.res, *h.e2n, 0, Access::kInc),
        op2::arg(*h.res, *h.e2n, 1, Access::kInc));
    dist.par_loop("apply", *h.nodes,
                  [](op2::Acc<double> q, op2::Acc<double> r,
                     op2::Acc<double> s) {
                    q[0] += r[0];
                    s[0] += r[0] * r[0];
                  },
                  op2::arg(*h.q, Access::kRW),
                  op2::arg(*h.res, Access::kRead),
                  op2::arg_gbl(&rms, 1, Access::kInc));
  }
  dist.fetch(*h.q);
  if (halo_messages) *halo_messages = dist.comm().traffic().messages();
  auto out = h.q->to_vector();
  out.push_back(rms);
  return out;
}

class DistEquivalence
    : public ::testing::TestWithParam<std::tuple<int, PartitionMethod>> {};

TEST_P(DistEquivalence, MatchesSequential) {
  const auto [nranks, method] = GetParam();
  const auto ref = reference_sweep(3);
  const auto got = distributed_sweep(3, nranks, method, apl::exec::Backend::kSeq);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndMethods, DistEquivalence,
    ::testing::Values(std::make_tuple(1, PartitionMethod::kBlock),
                      std::make_tuple(2, PartitionMethod::kBlock),
                      std::make_tuple(3, PartitionMethod::kRcb),
                      std::make_tuple(4, PartitionMethod::kRcb),
                      std::make_tuple(4, PartitionMethod::kKway),
                      std::make_tuple(7, PartitionMethod::kKway)));

TEST(Distributed, HybridMpiThreadsMatchesSequential) {
  const auto ref = reference_sweep(2);
  const auto got =
      distributed_sweep(2, 3, PartitionMethod::kKway, apl::exec::Backend::kThreads);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

TEST(Distributed, HybridMpiCudaSimMatchesSequential) {
  const auto ref = reference_sweep(2);
  const auto got =
      distributed_sweep(2, 2, PartitionMethod::kRcb, apl::exec::Backend::kCudaSim);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

TEST(Distributed, SingleRankNeedsNoMessages) {
  std::uint64_t messages = ~0ull;
  distributed_sweep(2, 1, PartitionMethod::kBlock, apl::exec::Backend::kSeq,
                    &messages);
  EXPECT_EQ(messages, 0u);
}

TEST(Distributed, PartitionCoversEverythingOnce) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
  index_t owned_nodes = 0, owned_edges = 0;
  for (int r = 0; r < 4; ++r) {
    owned_nodes += dist.owned_count(*h.nodes, r);
    owned_edges += dist.owned_count(*h.edges, r);
  }
  EXPECT_EQ(owned_nodes, h.nodes->size());
  EXPECT_EQ(owned_edges, h.edges->size());
}

TEST(Distributed, GhostCountsAreBoundarySized) {
  DistHarness h(16, 16);
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kRcb, *h.nodes, h.x);
  // 2D decomposition of a 17x17 node grid into 4: the total ghost volume
  // should be a small multiple of the cut length, far below the set size.
  const index_t ghosts = dist.total_ghosts(*h.nodes);
  EXPECT_GT(ghosts, 0);
  EXPECT_LT(ghosts, h.nodes->size() / 2);
}

TEST(Distributed, OnDemandExchangeOnlyWhenDirty) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kRcb, *h.nodes, h.x);
  auto read_loop = [&] {
    dist.par_loop("gatheronly", *h.edges,
                  [](op2::Acc<double> qa, op2::Acc<double> len) {
                    len[0] += qa[0];
                  },
                  op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                  op2::arg(*h.res, *h.e2n, 0, Access::kInc));
  };
  read_loop();
  const std::uint64_t after_first = dist.comm().traffic().messages();
  read_loop();  // q untouched since: its halo is clean, no new q exchange
  const std::uint64_t after_second = dist.comm().traffic().messages();
  // Second loop still flushes res increments but must not re-exchange q.
  // Count q-exchange messages as the difference beyond the flush traffic.
  dist.par_loop("touch_q", *h.nodes,
                [](op2::Acc<double> q) { q[0] += 1.0; },
                op2::arg(*h.q, Access::kRW));
  read_loop();  // q dirty again: exchange must happen
  const std::uint64_t after_third = dist.comm().traffic().messages();
  const std::uint64_t second_delta = after_second - after_first;
  const std::uint64_t third_delta = after_third - after_second;
  EXPECT_GT(third_delta, second_delta);
}

TEST(Distributed, MinMaxReductions) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 3, PartitionMethod::kBlock, *h.nodes);
  double mn = 1e300, mx = -1e300;
  dist.par_loop("minmax", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> lo,
                   op2::Acc<double> hi) {
                  lo[0] = std::min(lo[0], q[0]);
                  hi[0] = std::max(hi[0], q[0]);
                },
                op2::arg(*h.q, Access::kRead),
                op2::arg_gbl(&mn, 1, Access::kMin),
                op2::arg_gbl(&mx, 1, Access::kMax));
  EXPECT_EQ(mn, 1.0);
  EXPECT_EQ(mx, 7.0);
}

TEST(Distributed, RejectsIndirectWrite) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kBlock, *h.nodes);
  EXPECT_THROW(dist.par_loop("bad", *h.edges,
                             [](op2::Acc<double> q) { q[0] = 1; },
                             op2::arg(*h.q, *h.e2n, 0, Access::kWrite)),
               apl::Error);
}

TEST(Distributed, RejectsReadAndIncOfSameDat) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kBlock, *h.nodes);
  EXPECT_THROW(
      dist.par_loop("bad", *h.edges,
                    [](op2::Acc<double> a, op2::Acc<double> b) {
                      b[0] += a[0];
                    },
                    op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                    op2::arg(*h.q, *h.e2n, 1, Access::kInc)),
      apl::Error);
}

TEST(Distributed, HaloBytesRecordedInProfile) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kRcb, *h.nodes, h.x);
  dist.par_loop("flux0", *h.edges,
                [](op2::Acc<double> qa, op2::Acc<double> ra) {
                  ra[0] += qa[0];
                },
                op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                op2::arg(*h.res, *h.e2n, 1, Access::kInc));
  // The q halo was clean after scatter, so only the res flush moves bytes.
  const auto& s = h.ctx.profile().all().at("flux0");
  EXPECT_GT(s.halo_bytes, 0u);
}

TEST(Distributed, FetchRoundTripsScatter) {
  DistHarness h;
  const auto before = h.q->to_vector();
  op2::Distributed dist(h.ctx, 3, PartitionMethod::kKway, *h.nodes);
  dist.fetch(*h.q);
  EXPECT_EQ(h.q->to_vector(), before);
}

// ---- partition cache --------------------------------------------------------

/// Scoped plan-cache directory on the global store (disabled again on exit).
struct PartCacheDir {
  explicit PartCacheDir(const std::string& name)
      : dir((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(dir);
    apl::plan_cache::Store::global().set_directory(dir);
  }
  ~PartCacheDir() {
    apl::plan_cache::Store::global().set_directory("");
    std::filesystem::remove_all(dir);
  }
  std::string dir;
};

/// A partition as the public API shows it: per rank, the owned and ghost
/// counts of both sets and the rank-local node coordinates (owned then
/// ghost entries, in the order the owner vector assigns them).
std::vector<double> partition_layout(op2::Distributed& dist,
                                     const DistHarness& h, int nranks) {
  std::vector<double> out;
  for (int r = 0; r < nranks; ++r) {
    for (const op2::Set* s : {h.nodes, h.edges}) {
      out.push_back(dist.owned_count(*s, r));
      out.push_back(dist.ghost_count(*s, r));
    }
    auto* x = dynamic_cast<op2::Dat<double>*>(
        dist.rank_context(r).find_dat("x"));
    const std::vector<double> v = x->to_vector();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

/// Span names recorded while `fn` runs.
template <class Fn>
std::vector<std::string> spans_of(Fn&& fn) {
  auto& rec = apl::trace::Recorder::global();
  rec.clear();
  rec.set_enabled(true);
  fn();
  rec.set_enabled(false);
  std::vector<std::string> names;
  for (const auto& e : rec.snapshot()) names.push_back(e.name);
  rec.clear();
  return names;
}

bool has_span(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(Distributed, PartitionCacheHitReusesOwners) {
  PartCacheDir cache("op2_part_cache_hit");
  auto& store = apl::plan_cache::Store::global();
  DistHarness h;
  std::vector<double> cold_layout;
  const auto cold = spans_of([&] {
    op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
    cold_layout = partition_layout(dist, h, 4);
  });
  EXPECT_TRUE(has_span(cold, "part:nodes"));
  EXPECT_FALSE(has_span(cold, "part_hit:nodes"));
  ASSERT_GE(store.stats().stores, 1u);

  store.reset_stats();
  std::vector<double> warm_layout;
  const auto warm = spans_of([&] {
    op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
    warm_layout = partition_layout(dist, h, 4);
  });
  EXPECT_TRUE(has_span(warm, "part_hit:nodes"));
  EXPECT_FALSE(has_span(warm, "part:nodes")) << "partitioner ran again";
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(warm_layout, cold_layout);
}

TEST(Distributed, OutOfRangeOwnerBlobRepartitions) {
  PartCacheDir cache("op2_part_cache_corrupt");
  auto& store = apl::plan_cache::Store::global();
  DistHarness h;
  std::vector<double> cold_layout;
  {
    op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
    cold_layout = partition_layout(dist, h, 4);
  }

  // Overwrite the stored partition with a valid container whose owner
  // vector names rank 4 of 4. The key is read back from the entry's name.
  std::string entry;
  for (const auto& f : std::filesystem::directory_iterator(cache.dir)) {
    const std::string name = f.path().filename().string();
    if (name.rfind("part-", 0) == 0) entry = name;
  }
  ASSERT_FALSE(entry.empty()) << "no partition entry was stored";
  apl::plan_cache::Key key;
  key.kind = "part";
  key.topology = std::stoull(entry.substr(5, 16), nullptr, 16);
  key.program = std::stoull(entry.substr(22, 16), nullptr, 16);
  key.config = std::stoull(entry.substr(39, 16), nullptr, 16);
  key.version = static_cast<std::uint32_t>(std::stoul(entry.substr(57)));
  ASSERT_EQ(apl::plan_cache::Store::entry_name(key), entry);
  std::vector<index_t> owner(static_cast<std::size_t>(h.nodes->size()), 0);
  owner.back() = 4;
  apl::plan_cache::BlobWriter w;
  w.section_of<index_t>(0x4F574E52, owner);  // "OWNR"
  store.save(key, w.bytes());

  store.reset_stats();
  std::vector<double> layout;
  const auto spans = spans_of([&] {
    op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
    layout = partition_layout(dist, h, 4);
  });
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_EQ(store.last_diagnostic(), "partition blob fails owner validation");
  EXPECT_TRUE(has_span(spans, "part:nodes")) << "did not repartition";
  EXPECT_EQ(layout, cold_layout);
}

}  // namespace
