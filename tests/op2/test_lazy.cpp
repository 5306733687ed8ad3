// The OP2 lazy chain engine (DESIGN.md §15): queueing and flush points,
// lazy-vs-eager bitwise agreement (fused and unfused), chain statistics,
// and the cancellation/preemption contract — a deadline or preemption
// request takes effect at the next tile boundary, the remainder of the
// schedule is parked resumable, and the next flush completes it exactly
// (never a half-flushed or double-executed chain).
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apl/cancel.hpp"
#include "apl/thread_pool.hpp"
#include "op2/op2.hpp"

namespace {

using apl::exec::Access;

constexpr op2::index_t kNodes = 40;
constexpr op2::index_t kEdges = 39;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct LazySys {
  op2::Context ctx;
  op2::Set* nodes = nullptr;
  op2::Set* edges = nullptr;
  op2::Map* e2n = nullptr;
  op2::Dat<double>* x = nullptr;
  op2::Dat<double>* y = nullptr;
};

std::unique_ptr<LazySys> build_sys() {
  auto s = std::make_unique<LazySys>();
  s->ctx.set_verify(s->ctx.verify_checks() & ~apl::verify::kAccess);
  s->nodes = &s->ctx.decl_set(kNodes, "nodes");
  s->edges = &s->ctx.decl_set(kEdges, "edges");
  std::vector<op2::index_t> table(2 * kEdges);
  for (op2::index_t e = 0; e < kEdges; ++e) {
    table[2 * e] = e;
    table[2 * e + 1] = e + 1;
  }
  s->e2n = &s->ctx.decl_map(*s->edges, *s->nodes, 2, table, "e2n");
  std::vector<double> xi(kNodes), yi(kEdges, 0.0);
  for (op2::index_t i = 0; i < kNodes; ++i) {
    xi[static_cast<std::size_t>(i)] = 0.5 + 0.01 * static_cast<double>(i);
  }
  s->x = &s->ctx.decl_dat<double>(*s->nodes, 1, xi, "x");
  s->y = &s->ctx.decl_dat<double>(*s->edges, 1, yi, "y");
  return s;
}

/// Enqueues (or eagerly runs) three steps of relax -> gather -> scatter.
/// `tick` (optional) is called from every relax kernel invocation — the
/// hook the preemption test uses to fire mid-chain.
void enqueue_program(LazySys& s, int* counter = nullptr,
                     void (*tick)(int*) = nullptr) {
  for (int step = 0; step < 3; ++step) {
    op2::par_loop(
        s.ctx, "relax", *s.nodes,
        [counter, tick](op2::Acc<double> v) {
          v[0] = 0.5 * v[0] + 0.25;
          if (counter != nullptr) {
            ++*counter;
            if (tick != nullptr) tick(counter);
          }
        },
        op2::arg(*s.x, Access::kRW));
    op2::par_loop(
        s.ctx, "gather", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          w[0] = a[0] + b[0];
        },
        op2::arg(*s.y, Access::kWrite),
        op2::arg(*s.x, *s.e2n, 0, Access::kRead),
        op2::arg(*s.x, *s.e2n, 1, Access::kRead));
    op2::par_loop(
        s.ctx, "scatter", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          a[0] += 0.125 * w[0];
          b[0] += 0.125 * w[0];
        },
        op2::arg(*s.y, Access::kRead),
        op2::arg(*s.x, *s.e2n, 0, Access::kInc),
        op2::arg(*s.x, *s.e2n, 1, Access::kInc));
  }
}

std::vector<double> state_of(LazySys& s) {
  std::vector<double> out = s.x->to_vector();
  const std::vector<double> ye = s.y->to_vector();
  out.insert(out.end(), ye.begin(), ye.end());
  return out;
}

std::vector<double> eager_reference() {
  auto s = build_sys();
  enqueue_program(*s);
  return state_of(*s);
}

// ---- queueing and flush points ---------------------------------------------

TEST(Op2Lazy, QueuesUntilFlushThenMatchesEager) {
  const std::vector<double> ref = eager_reference();

  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  EXPECT_EQ(s->ctx.chain_length(), 9u) << "par_loop executed eagerly";
  s->ctx.flush();
  EXPECT_EQ(s->ctx.chain_length(), 0u);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "lazy-tiled diverged from eager";
}

TEST(Op2Lazy, UnfusedReplayMatchesEager) {
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_tiling(false);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)));
  EXPECT_GE(s->ctx.chain_stats().verbatim, 1u);
}

TEST(Op2Lazy, RawAccessIsAFlushPoint) {
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  ASSERT_EQ(s->ctx.chain_length(), 9u);
  // No explicit flush: reading the dat must drain the queue first.
  const std::vector<double> got = state_of(*s);
  EXPECT_EQ(s->ctx.chain_length(), 0u);
  EXPECT_TRUE(bitwise_equal(ref, got));
}

TEST(Op2Lazy, ReductionIsAFlushPoint) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  ASSERT_EQ(s->ctx.chain_length(), 9u);
  double sum = 0.0;
  op2::par_loop(
      s->ctx, "sum", *s->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*s->x, Access::kRead),
      op2::arg_gbl(&sum, 1, Access::kInc));
  // The caller reads `sum` right after par_loop returns, so the chain —
  // including the reduction — must already have run.
  EXPECT_EQ(s->ctx.chain_length(), 0u);

  auto ref = build_sys();
  enqueue_program(*ref);
  double ref_sum = 0.0;
  op2::par_loop(
      ref->ctx, "sum", *ref->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*ref->x, Access::kRead),
      op2::arg_gbl(&ref_sum, 1, Access::kInc));
  EXPECT_EQ(std::memcmp(&sum, &ref_sum, sizeof(double)), 0);
}

TEST(Op2Lazy, ChainStatsAccumulate) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  const op2::ChainStats& st = s->ctx.chain_stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.loops, 9u);
  EXPECT_EQ(st.max_chain, 9u);
  EXPECT_EQ(st.verbatim, 0u) << "forced tile size should keep fusion";
  EXPECT_GT(st.tiles, 1u);
  EXPECT_GT(st.eager_bytes, 0u);
  // The whole point: cross-loop reuse makes the fused projection smaller.
  EXPECT_LT(st.tiled_bytes, st.eager_bytes);
  EXPECT_GT(st.traffic_saved_fraction(), 0.0);
}

// ---- cancellation / preemption at tile boundaries ---------------------------

TEST(LazyCancel, DeadlineParksChainBeforeAnyTileAndResumeCompletes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);

  // An already-expired deadline: the first tile boundary fires before any
  // slice runs, so the whole schedule parks untouched.
  tok.cancel(apl::cancel::Reason::kDeadline);
  try {
    s->ctx.flush();
    FAIL() << "flush ignored the cancelled token";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), apl::cancel::Reason::kDeadline);
  }
  EXPECT_TRUE(s->ctx.chain_resumable());
  EXPECT_EQ(s->ctx.chain_length(), 0u) << "queue was not moved into the park";

  // Re-arm and flush: the parked remainder completes exactly.
  tok.reset();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "resumed chain diverged from eager";
}

int g_preempt_counter = 0;
apl::cancel::Token* g_preempt_token = nullptr;

TEST(LazyCancel, PreemptTakesEffectAtNextTileBoundaryThenResumes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);

  // The relax kernel requests preemption mid-chain (after 45 of its 120
  // total invocations, i.e. somewhere inside a middle tile). The current
  // tile must finish — preemption is only observed at tile boundaries —
  // and the remainder parks.
  g_preempt_counter = 0;
  g_preempt_token = &tok;
  enqueue_program(*s, &g_preempt_counter, [](int* c) {
    if (*c == 45) g_preempt_token->request_preempt();
  });
  try {
    s->ctx.flush();
    FAIL() << "flush ignored the preemption request";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), apl::cancel::Reason::kPreempt);
    EXPECT_NE(std::string(c.what()).find("tile boundary"),
              std::string::npos);
  }
  EXPECT_TRUE(s->ctx.chain_resumable());
  const int at_park = g_preempt_counter;
  EXPECT_GE(at_park, 45) << "preempt fired before the trigger";
  EXPECT_LT(at_park, 120) << "chain ran to completion despite preemption";

  // Until the scheduler clears the request, every flush re-parks (the
  // boundary check runs before the first remaining tile).
  EXPECT_THROW(s->ctx.flush(), apl::cancel::Cancelled);
  EXPECT_TRUE(s->ctx.chain_resumable());

  // Re-admission: clear the request and complete. Bitwise agreement with
  // the eager run proves every slice ran exactly once.
  tok.clear_preempt();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_EQ(g_preempt_counter, 120);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "preempted+resumed chain diverged from eager";
}

TEST(LazyCancel, RawAccessCompletesParkedRemainder) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  {
    apl::cancel::Scope scope(&tok);
    enqueue_program(*s);
    tok.cancel(apl::cancel::Reason::kUser);
    EXPECT_THROW(s->ctx.flush(), apl::cancel::Cancelled);
  }
  ASSERT_TRUE(s->ctx.chain_resumable());
  // Outside the cancel scope, any raw read is an ordinary flush point and
  // must finish the parked remainder before exposing data.
  const std::vector<double> got = state_of(*s);
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_TRUE(bitwise_equal(ref, got));
}

// ---- threaded color-round execution (DESIGN.md §15) -------------------------

TEST(LazyThreads, TeamRoundsMatchSerialBitwise) {
  const std::vector<double> ref = eager_reference();
  for (std::size_t team : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    apl::ThreadPool pool(team);  // declared first: outlives the context
    auto s = build_sys();
    s->ctx.set_tile_team(&pool);
    s->ctx.set_tile_size(5);
    s->ctx.set_lazy(true);
    enqueue_program(*s);
    s->ctx.flush();
    EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
        << "team of " << team << " diverged from serial";
    const op2::ChainStats& st = s->ctx.chain_stats();
    EXPECT_EQ(st.verbatim, 0u) << "chain fell back to verbatim replay";
    EXPECT_GT(st.rounds, 0u) << "fused chain did not go through rounds";
    EXPECT_LE(st.rounds, st.tiles) << "more rounds than tiles";
  }
}

TEST(LazyThreads, RoundsCountedOnlyOnTeamPath) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_GT(s->ctx.chain_stats().tiles, 0u);
  EXPECT_EQ(s->ctx.chain_stats().rounds, 0u)
      << "serial tile walk should not report color rounds";
}

TEST(LazyThreads, ProfileAndTrafficMatchSerialExactly) {
  // Accounting contract: per-loop calls, traffic-class bytes and element
  // counts are credited once per loop at chain completion, on the
  // submitting thread — so a team-executed flush must report *exactly*
  // the serial totals, however the tiles were distributed.
  auto serial = build_sys();
  serial->ctx.set_tile_size(5);
  serial->ctx.set_lazy(true);
  enqueue_program(*serial);
  serial->ctx.flush();

  apl::ThreadPool pool(4);
  auto teamed = build_sys();
  teamed->ctx.set_tile_team(&pool);
  teamed->ctx.set_tile_size(5);
  teamed->ctx.set_lazy(true);
  enqueue_program(*teamed);
  teamed->ctx.flush();

  const auto& sp = serial->ctx.profile().all();
  const auto& tp = teamed->ctx.profile().all();
  ASSERT_EQ(sp.size(), tp.size());
  for (const auto& [name, sstats] : sp) {
    ASSERT_TRUE(tp.contains(name)) << name;
    const apl::LoopStats& tstats = tp.at(name);
    EXPECT_EQ(sstats.calls, tstats.calls) << name;
    EXPECT_EQ(sstats.elements, tstats.elements) << name;
    EXPECT_EQ(sstats.bytes_direct, tstats.bytes_direct) << name;
    EXPECT_EQ(sstats.bytes_gather, tstats.bytes_gather) << name;
    EXPECT_EQ(sstats.bytes_scatter, tstats.bytes_scatter) << name;
  }
  EXPECT_EQ(serial->ctx.chain_stats().eager_bytes,
            teamed->ctx.chain_stats().eager_bytes);
  EXPECT_EQ(serial->ctx.chain_stats().tiled_bytes,
            teamed->ctx.chain_stats().tiled_bytes);
}

TEST(LazyThreads, CancelParksAtRoundBoundaryAndResumeCompletes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);

  // Already-expired deadline: the round-boundary check on the submitting
  // thread fires before any round starts, parking the whole schedule.
  tok.cancel(apl::cancel::Reason::kDeadline);
  EXPECT_THROW(s->ctx.flush(), apl::cancel::Cancelled);
  ASSERT_TRUE(s->ctx.chain_resumable());

  tok.reset();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "round-wise resumed chain diverged from eager";
}

TEST(LazyThreads, ResumeAfterTeamDisabledRunsRoundsSerially) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  tok.cancel(apl::cancel::Reason::kDeadline);
  EXPECT_THROW(s->ctx.flush(), apl::cancel::Cancelled);
  ASSERT_TRUE(s->ctx.chain_resumable());

  // The chain parked round-wise; with the team gone it resumes through the
  // same rounds, each run serially in ascending tile order.
  s->ctx.set_tile_team(nullptr);
  ASSERT_FALSE(s->ctx.tile_team_enabled());
  tok.reset();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_GT(s->ctx.chain_stats().rounds, 0u);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "serial round resume diverged from eager";
}

std::atomic<int>* g_round_ticks = nullptr;
apl::cancel::Token* g_round_preempt_token = nullptr;

TEST(LazyThreads, WorkerPreemptParksMidChainAtRoundBoundaryThenResumes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);

  // Same program as enqueue_program, but the relax kernel ticks an atomic
  // (it may run on any team member — scope propagation is what lets it
  // see the token at all) and requests preemption mid-chain. The running
  // round finishes; the remainder parks at the *round* boundary.
  std::atomic<int> ticks{0};
  g_round_ticks = &ticks;
  g_round_preempt_token = &tok;
  for (int step = 0; step < 3; ++step) {
    op2::par_loop(
        s->ctx, "relax", *s->nodes,
        [](op2::Acc<double> v) {
          v[0] = 0.5 * v[0] + 0.25;
          if (g_round_ticks->fetch_add(1) + 1 == 45) {
            g_round_preempt_token->request_preempt();
          }
        },
        op2::arg(*s->x, Access::kRW));
    op2::par_loop(
        s->ctx, "gather", *s->edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          w[0] = a[0] + b[0];
        },
        op2::arg(*s->y, Access::kWrite),
        op2::arg(*s->x, *s->e2n, 0, Access::kRead),
        op2::arg(*s->x, *s->e2n, 1, Access::kRead));
    op2::par_loop(
        s->ctx, "scatter", *s->edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          a[0] += 0.125 * w[0];
          b[0] += 0.125 * w[0];
        },
        op2::arg(*s->y, Access::kRead),
        op2::arg(*s->x, *s->e2n, 0, Access::kInc),
        op2::arg(*s->x, *s->e2n, 1, Access::kInc));
  }
  try {
    s->ctx.flush();
    FAIL() << "flush ignored the preemption request";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), apl::cancel::Reason::kPreempt);
    EXPECT_NE(std::string(c.what()).find("round boundary"),
              std::string::npos)
        << c.what();
  }
  ASSERT_TRUE(s->ctx.chain_resumable());
  const int at_park = ticks.load();
  EXPECT_GE(at_park, 45) << "preempt fired before the trigger";
  EXPECT_LT(at_park, 120) << "chain ran to completion despite preemption";

  tok.clear_preempt();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_EQ(ticks.load(), 120);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "preempted+resumed round execution diverged from eager";
}

TEST(LazyThreads, ThreadsBackendUsesRoundsWithoutExplicitTeam) {
  // backend kThreads alone enables the team path (the process pool).
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_backend(apl::exec::Backend::kThreads);
  ASSERT_TRUE(s->ctx.tile_team_enabled());
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_GT(s->ctx.chain_stats().rounds, 0u);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)));
}

}  // namespace
