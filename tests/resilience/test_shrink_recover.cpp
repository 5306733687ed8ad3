// Shrink-and-continue rank recovery (PR 7 tentpole). The fault matrix:
// every rank of a distributed run is killed at every exchange ordinal, the
// survivors shrink the communicator, repartition, restore from the last
// checkpoint, and the continuation must be BITWISE identical to a
// failure-free run at the surviving rank count restored from the same
// checkpoint — for OP2 (Airfoil) and a lazy-chained OPS CloverLeaf.
// Transient message faults (drop/duplicate/corrupt) must instead be
// absorbed by bounded retry with zero result change, and an exhausted
// degradation ladder must surface as the named LadderExhausted error —
// never a hang, never a raw crash.
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "airfoil/airfoil.hpp"
#include "apl/fault.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/mpisim/recovery.hpp"
#include "apl/resilience.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "op2/dist.hpp"
#include "ops/dist.hpp"

namespace {

using apl::fault::Config;
using apl::fault::Injector;
using apl::io::CheckpointStore;
using apl::resilience::LadderExhausted;

std::string temp_base(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class ShrinkRecoverTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Injector::global().disarm();
    apl::resilience::reset_policy();
  }
};

// ---- OP2: Airfoil fault matrix --------------------------------------------

airfoil::Airfoil::Options airfoil_opts() {
  airfoil::Airfoil::Options o;
  o.nx = 8;
  o.ny = 4;
  return o;
}

TEST_F(ShrinkRecoverTest, AirfoilKillMatrixShrinksBitIdentical) {
  const std::string base = temp_base("shrink_airfoil_matrix");
  const int nranks = 4;
  const int total = 6;

  // Dry run counts the exchanges of a fault-free run (the injector's
  // exchange ordinal ticks whenever it is armed, even with no trigger).
  std::int64_t num_exchanges = 0;
  {
    airfoil::Airfoil app(airfoil_opts());
    app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
    Injector::global().arm(Config{});
    for (int it = 0; it < total; ++it) app.iteration();
    num_exchanges = Injector::global().exchanges_seen();
    Injector::global().disarm();
  }
  ASSERT_GT(num_exchanges, 2);

  // One faulted run per (rank, exchange) cell. The driver checkpoints at
  // steps 0 and 3 while unfailed, so a kill restores from whichever save
  // was last — both mid-flight restore paths get exercised.
  std::map<int, std::vector<double>> q_ref;  // by restored step
  int cells_failed = 0;
  for (int victim = 0; victim < nranks; ++victim) {
    for (std::int64_t m = 0; m < num_exchanges; ++m) {
      CheckpointStore(base).remove_files();
      airfoil::Airfoil app(airfoil_opts());
      app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
      op2::Distributed& dist = *app.distributed();
      CheckpointStore store(base);

      Config cfg;
      cfg.fail_rank = victim;
      cfg.fail_at_exchange = m;
      Injector::global().arm(cfg);
      int it = 0;
      int restored_step = -1;
      while (it < total) {
        if (restored_step < 0 && (it == 0 || it == 3)) {
          dist.checkpoint(store, it);
        }
        try {
          app.iteration();
          ++it;
        } catch (const apl::fault::RankFailure& e) {
          ASSERT_EQ(e.rank(), victim) << "victim " << victim << " @" << m;
          ASSERT_LT(restored_step, 0) << "second failure in one cell";
          restored_step = static_cast<int>(dist.recover_auto(store));
          it = restored_step;
        }
      }
      Injector::global().disarm();
      if (restored_step < 0) continue;  // ordinal past this run's exchanges
      ++cells_failed;
      ASSERT_EQ(dist.num_ranks(), nranks - 1);
      ASSERT_EQ(dist.shrinks_done(), 1);
      EXPECT_EQ(dist.comm().traffic().shrinks(), 1u);
      EXPECT_GE(dist.comm().traffic().mttr(), 0.0);

      // Reference: a failure-free run at the surviving rank count restored
      // from the same checkpoint (cached — the checkpoint contents only
      // depend on the restored step, not on the kill site).
      if (q_ref.find(restored_step) == q_ref.end()) {
        airfoil::Airfoil ref(airfoil_opts());
        ref.enable_distributed(nranks - 1,
                               apl::graph::PartitionMethod::kBlock);
        const auto s0 =
            static_cast<int>(ref.distributed()->recover(store));
        ASSERT_EQ(s0, restored_step);
        for (int i = s0; i < total; ++i) ref.iteration();
        q_ref[restored_step] = ref.solution();
      }
      ASSERT_EQ(app.solution(), q_ref[restored_step])
          << "victim " << victim << " killed at exchange " << m
          << " (restored from step " << restored_step << ")";
    }
  }
  // Every victim rank must actually have died somewhere in the sweep.
  EXPECT_GE(cells_failed, nranks);
  CheckpointStore(base).remove_files();
}

// ---- OPS: lazy-chained CloverLeaf fault matrix ----------------------------

cloverleaf::Options clover_opts() {
  cloverleaf::Options o;
  o.nx = 12;
  o.ny = 12;
  o.lazy = true;  // rank contexts run the PR 1 chaining engine
  return o;
}

TEST_F(ShrinkRecoverTest, CloverLeafLazyKillMatrixShrinksBitIdentical) {
  const std::string base = temp_base("shrink_clover_matrix");
  const int nranks = 4;
  const int total = 4;

  std::int64_t num_exchanges = 0;
  {
    cloverleaf::CloverOps app(clover_opts());
    app.enable_distributed(nranks);
    Injector::global().arm(Config{});
    app.run(total);
    num_exchanges = Injector::global().exchanges_seen();
    Injector::global().disarm();
  }
  ASSERT_GT(num_exchanges, 2);

  // The full matrix would be slow at CloverLeaf's exchange density; kill
  // every rank at a stride of ordinals covering begin, middle and end.
  const std::int64_t stride = std::max<std::int64_t>(1, num_exchanges / 7);
  std::map<int, std::vector<double>> d_ref;
  int cells_failed = 0;
  for (int victim = 0; victim < nranks; ++victim) {
    for (std::int64_t m = 0; m < num_exchanges; m += stride) {
      CheckpointStore(base).remove_files();
      cloverleaf::CloverOps app(clover_opts());
      app.enable_distributed(nranks);
      ops::Distributed& dist = *app.distributed();
      CheckpointStore store(base);

      Config cfg;
      cfg.fail_rank = victim;
      cfg.fail_at_exchange = m;
      Injector::global().arm(cfg);
      int it = 0;
      int restored_step = -1;
      while (it < total) {
        if (restored_step < 0 && (it == 0 || it == 2)) {
          dist.checkpoint(store, it);
        }
        try {
          app.step();
          ++it;
        } catch (const apl::fault::RankFailure& e) {
          ASSERT_EQ(e.rank(), victim) << "victim " << victim << " @" << m;
          ASSERT_LT(restored_step, 0) << "second failure in one cell";
          restored_step = static_cast<int>(dist.recover_auto(store));
          it = restored_step;
          app.set_steps_taken(it);  // xy/yx advection parity
        }
      }
      Injector::global().disarm();
      if (restored_step < 0) continue;
      ++cells_failed;
      ASSERT_EQ(dist.num_ranks(), nranks - 1);
      ASSERT_EQ(dist.shrinks_done(), 1);

      if (d_ref.find(restored_step) == d_ref.end()) {
        cloverleaf::CloverOps ref(clover_opts());
        ref.enable_distributed(nranks - 1);
        const auto s0 =
            static_cast<int>(ref.distributed()->recover(store));
        ASSERT_EQ(s0, restored_step);
        ref.set_steps_taken(s0);
        for (int i = s0; i < total; ++i) ref.step();
        d_ref[restored_step] = ref.density();
      }
      ASSERT_EQ(app.density(), d_ref[restored_step])
          << "victim " << victim << " killed at exchange " << m
          << " (restored from step " << restored_step << ")";
    }
  }
  EXPECT_GE(cells_failed, nranks);
  CheckpointStore(base).remove_files();
}

// ---- transient faults: absorbed by bounded retry --------------------------

TEST_F(ShrinkRecoverTest, TransientFaultsRetryWithZeroResultChange) {
  const int nranks = 3;
  const int total = 5;

  airfoil::Airfoil ref(airfoil_opts());
  ref.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
  for (int i = 0; i < total; ++i) ref.iteration();
  const auto q_ref = ref.solution();

  for (const char* trigger : {"drop_msg", "dup_msg", "corrupt_msg"}) {
    airfoil::Airfoil app(airfoil_opts());
    app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
    Config cfg = apl::fault::parse_config(std::string(trigger) + "=40");
    Injector::global().arm(cfg);
    for (int i = 0; i < total; ++i) app.iteration();
    Injector::global().disarm();
    const auto& t = app.distributed()->comm().traffic();
    EXPECT_GE(t.retries(), 1u) << trigger;
    EXPECT_GT(t.retry_backoff_seconds(), 0.0) << trigger;
    EXPECT_EQ(t.shrinks(), 0u) << trigger;
    EXPECT_EQ(app.solution(), q_ref) << trigger;
  }
}

TEST_F(ShrinkRecoverTest, OpsTransientFaultsRetryWithZeroResultChange) {
  const int nranks = 4;
  const int total = 3;

  cloverleaf::CloverOps ref(clover_opts());
  ref.enable_distributed(nranks);
  ref.run(total);
  const auto d_ref = ref.density();

  for (const char* trigger : {"drop_msg", "dup_msg", "corrupt_msg"}) {
    cloverleaf::CloverOps app(clover_opts());
    app.enable_distributed(nranks);
    Config cfg = apl::fault::parse_config(std::string(trigger) + "=25");
    Injector::global().arm(cfg);
    app.run(total);
    Injector::global().disarm();
    const auto& t = app.distributed()->comm().traffic();
    EXPECT_GE(t.retries(), 1u) << trigger;
    EXPECT_EQ(app.density(), d_ref) << trigger;
  }
}

// ---- the degradation ladder, rung by rung ---------------------------------

TEST_F(ShrinkRecoverTest, RetryBudgetZeroEscalatesToLadderExhausted) {
  apl::resilience::Policy p;
  p.max_retries = 0;  // first transient fault exhausts the retry rung
  apl::resilience::set_policy(p);

  airfoil::Airfoil app(airfoil_opts());
  app.enable_distributed(3, apl::graph::PartitionMethod::kBlock);
  Config cfg;
  cfg.drop_msg = 10;
  Injector::global().arm(cfg);
  EXPECT_THROW(
      {
        for (int i = 0; i < 4; ++i) app.iteration();
      },
      LadderExhausted);
}

// ---- the rank-failure rungs, on both front ends ---------------------------
//
// op2 and ops share one recovery driver (apl::mpisim::RecoveryDriver), so
// every rung below runs unchanged on Airfoil and on a lazy-chained
// CloverLeaf.

/// One distributed proxy app as the ladder tests see it.
class FrontEnd {
 public:
  virtual ~FrontEnd() = default;
  virtual apl::mpisim::RecoveryDriver& dist() = 0;
  virtual void step() = 0;
  /// Rewinds the app's step counter to a restored checkpoint step.
  virtual void resume_at(int /*step*/) {}
  virtual std::vector<double> state() = 0;
};

class AirfoilFrontEnd final : public FrontEnd {
 public:
  AirfoilFrontEnd(int nranks, bool big)
      : app_(big ? airfoil::Airfoil::Options{} : airfoil_opts()) {
    app_.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
  }
  apl::mpisim::RecoveryDriver& dist() override { return *app_.distributed(); }
  void step() override { app_.iteration(); }
  std::vector<double> state() override { return app_.solution(); }

 private:
  airfoil::Airfoil app_;
};

class CloverFrontEnd final : public FrontEnd {
 public:
  CloverFrontEnd(int nranks, bool big) : app_(opts(big)) {
    app_.enable_distributed(nranks);
  }
  apl::mpisim::RecoveryDriver& dist() override { return *app_.distributed(); }
  void step() override { app_.step(); }
  void resume_at(int step) override { app_.set_steps_taken(step); }
  std::vector<double> state() override { return app_.density(); }

 private:
  static cloverleaf::Options opts(bool big) {
    cloverleaf::Options o = clover_opts();
    if (big) o.nx = o.ny = 16;
    return o;
  }
  cloverleaf::CloverOps app_;
};

struct FrontEndCase {
  std::string name;
  /// Builds the app on `nranks` ranks; `big` picks a larger mesh, whose
  /// checkpoints do not fit the default one.
  std::unique_ptr<FrontEnd> (*make)(int nranks, bool big);
};

void PrintTo(const FrontEndCase& c, std::ostream* os) { *os << c.name; }

class RankLadderTest : public ShrinkRecoverTest,
                       public ::testing::WithParamInterface<FrontEndCase> {
 protected:
  std::unique_ptr<FrontEnd> make(int nranks, bool big = false) const {
    return GetParam().make(nranks, big);
  }
  std::string base(const std::string& what) const {
    return temp_base("ladder_" + GetParam().name + "_" + what);
  }
};

/// Kills `victim` at exchange `at` (counted from the arming), steps until
/// the failure surfaces, and disarms. Returns false if the run of `max`
/// steps never reached that exchange.
bool step_until_failure(FrontEnd& app, int victim, std::int64_t at, int max) {
  Config cfg;
  cfg.fail_rank = victim;
  cfg.fail_at_exchange = at;
  Injector::global().arm(cfg);
  bool failed = false;
  try {
    for (int i = 0; i < max; ++i) app.step();
  } catch (const apl::fault::RankFailure&) {
    failed = true;
  }
  Injector::global().disarm();
  return failed;
}

TEST_P(RankLadderTest, PolicyFailForbidsRecovery) {
  apl::resilience::Policy p;
  p.rank_failure = apl::resilience::OnRankFailure::kFail;
  apl::resilience::set_policy(p);

  const std::string path = base("policy_fail");
  CheckpointStore(path).remove_files();
  auto app = make(3);
  CheckpointStore store(path);
  app->dist().checkpoint(store, 0);

  ASSERT_TRUE(step_until_failure(*app, 1, 2, 4));
  EXPECT_THROW(app->dist().recover_auto(store), LadderExhausted);
  store.remove_files();
}

TEST_P(RankLadderTest, PolicyReviveTakesTheRollbackPath) {
  apl::resilience::Policy p;
  p.rank_failure = apl::resilience::OnRankFailure::kRevive;
  apl::resilience::set_policy(p);

  const std::string path = base("policy_revive");
  CheckpointStore(path).remove_files();
  auto app = make(3);
  apl::mpisim::RecoveryDriver& dist = app->dist();
  CheckpointStore store(path);
  const int total = 5;

  auto ref = make(3);
  for (int i = 0; i < total; ++i) ref->step();

  Config cfg;
  cfg.fail_rank = 1;
  cfg.fail_at_exchange = 3;
  Injector::global().arm(cfg);
  int it = 0;
  while (it < total) {
    if (it == 0) dist.checkpoint(store, it);
    try {
      app->step();
      ++it;
    } catch (const apl::fault::RankFailure&) {
      it = static_cast<int>(dist.recover_auto(store));
      app->resume_at(it);
    }
  }
  EXPECT_EQ(dist.num_ranks(), 3);    // revive keeps the communicator
  EXPECT_EQ(dist.shrinks_done(), 0);
  EXPECT_EQ(app->state(), ref->state());
  store.remove_files();
}

TEST_P(RankLadderTest, ShrinkBudgetSpentFallsBackToSingleRank) {
  apl::resilience::Policy p;
  p.max_shrinks = 0;  // jump straight to the last rung
  apl::resilience::set_policy(p);

  const std::string path = base("fallback");
  CheckpointStore(path).remove_files();
  const int nranks = 3;
  const int total = 5;

  auto app = make(nranks);
  apl::mpisim::RecoveryDriver& dist = app->dist();
  CheckpointStore store(path);

  Config cfg;
  cfg.fail_rank = 0;
  cfg.fail_at_exchange = 2;
  Injector::global().arm(cfg);
  int it = 0;
  int restored_step = -1;
  while (it < total) {
    if (restored_step < 0 && it == 0) dist.checkpoint(store, it);
    try {
      app->step();
      ++it;
    } catch (const apl::fault::RankFailure&) {
      restored_step = static_cast<int>(dist.recover_auto(store));
      it = restored_step;
      app->resume_at(it);
    }
  }
  Injector::global().disarm();
  ASSERT_GE(restored_step, 0);
  EXPECT_EQ(dist.num_ranks(), 1);  // replicated single-rank execution

  // Still bitwise against a single-rank run restored from the checkpoint.
  auto ref = make(1);
  const auto s0 = static_cast<int>(ref->dist().recover(store));
  ref->resume_at(s0);
  for (int i = s0; i < total; ++i) ref->step();
  EXPECT_EQ(app->state(), ref->state());

  // The ladder is now truly exhausted: another death cannot shrink below
  // one rank and the fallback has been reached.
  ASSERT_TRUE(step_until_failure(*app, 0, 1, 3));
  EXPECT_THROW(dist.recover_auto(store), LadderExhausted);
  store.remove_files();
}

TEST_P(RankLadderTest, MismatchedCheckpointFailsBeforeShrinking) {
  const std::string bad_path = base("validate_bad");
  const std::string good_path = base("validate_good");
  CheckpointStore(bad_path).remove_files();
  CheckpointStore(good_path).remove_files();
  const int nranks = 3;
  const int total = 4;

  // A checkpoint written by a larger mesh than the app restoring it.
  {
    auto big = make(nranks, /*big=*/true);
    CheckpointStore bad(bad_path);
    big->dist().checkpoint(bad, 0);
  }
  auto app = make(nranks);
  apl::mpisim::RecoveryDriver& dist = app->dist();
  CheckpointStore good(good_path);
  dist.checkpoint(good, 0);
  ASSERT_TRUE(step_until_failure(*app, 1, 2, total));

  CheckpointStore bad(bad_path);
  try {
    dist.recover_auto(bad);
    FAIL() << "mismatched checkpoint layout was accepted";
  } catch (const apl::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint layout mismatch"), std::string::npos)
        << msg;
    // The diagnostic names the survivor count it was restoring at.
    EXPECT_NE(msg.find("restoring at " + std::to_string(nranks - 1) + ")"),
              std::string::npos)
        << msg;
  }
  // Nothing was shrunk: the failed rank is still known, so the ladder can
  // be walked again with the good checkpoint.
  EXPECT_EQ(dist.num_ranks(), nranks);
  EXPECT_EQ(dist.shrinks_done(), 0);
  EXPECT_EQ(dist.comm().failed_ranks().size(), 1u);

  const int s0 = static_cast<int>(dist.recover_auto(good));
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(dist.num_ranks(), nranks - 1);
  app->resume_at(s0);
  for (int i = s0; i < total; ++i) app->step();

  auto ref = make(nranks - 1);
  ref->dist().recover(good);
  ref->resume_at(s0);
  for (int i = s0; i < total; ++i) ref->step();
  EXPECT_EQ(app->state(), ref->state());
  bad.remove_files();
  good.remove_files();
}

TEST_P(RankLadderTest, OutcomeNamesTheRungARecoveryFailedOn) {
  apl::resilience::Policy p;
  p.rank_failure = apl::resilience::OnRankFailure::kRevive;
  apl::resilience::set_policy(p);

  const std::string path = base("outcome_revive");
  CheckpointStore(path).remove_files();
  auto app = make(3);
  ASSERT_TRUE(step_until_failure(*app, 1, 2, 4));

  // No checkpoint was ever written: the revive rung fails, and says so.
  CheckpointStore empty(path);
  const apl::resilience::Outcome out = app->dist().recover_outcome(empty);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.rung, apl::resilience::Rung::kRevive);
  EXPECT_EQ(out.error_kind, "Error");
  EXPECT_FALSE(out.error.empty());

  // Same verdict once the shrink budget is spent: the policy still asks
  // for revive, so that is the rung that failed.
  p.max_shrinks = 0;
  apl::resilience::set_policy(p);
  const apl::resilience::Outcome spent = app->dist().recover_outcome(empty);
  EXPECT_FALSE(spent.ok);
  EXPECT_EQ(spent.rung, apl::resilience::Rung::kRevive);
  EXPECT_EQ(spent.error_kind, "Error");
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, RankLadderTest,
    ::testing::Values(
        FrontEndCase{"airfoil",
                     [](int n, bool big) -> std::unique_ptr<FrontEnd> {
                       return std::make_unique<AirfoilFrontEnd>(n, big);
                     }},
        FrontEndCase{"cloverleaf",
                     [](int n, bool big) -> std::unique_ptr<FrontEnd> {
                       return std::make_unique<CloverFrontEnd>(n, big);
                     }}),
    [](const ::testing::TestParamInfo<FrontEndCase>& info) {
      return info.param.name;
    });

// ---- satellite: named checkpoint-layout diagnostic ------------------------

TEST_F(ShrinkRecoverTest, MismatchedCheckpointLayoutNamesTheCulprit) {
  const std::string base = temp_base("shrink_layout_mismatch");
  CheckpointStore(base).remove_files();

  // A checkpoint written by a *larger mesh* than the app restoring it.
  {
    airfoil::Airfoil big(airfoil::Airfoil::Options{});  // default 60x30
    big.enable_distributed(2, apl::graph::PartitionMethod::kBlock);
    CheckpointStore store(base);
    big.distributed()->checkpoint(store, 0);
  }
  airfoil::Airfoil small(airfoil_opts());
  small.enable_distributed(2, apl::graph::PartitionMethod::kBlock);
  CheckpointStore store(base);
  try {
    small.distributed()->recover(store);
    FAIL() << "mismatched checkpoint layout was accepted";
  } catch (const apl::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint layout mismatch"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("found"), std::string::npos) << msg;
  }
  store.remove_files();
}

}  // namespace
