// The rank-failure recovery driver shared by op2::Distributed and
// ops::Distributed (paper Sec. VI: checkpoint-restart belongs to the
// library, which owns every dataset and its distribution, not to the
// application). The transient rung lives beside it in retry.hpp; this
// class holds the rest of the degradation ladder over one communicator:
//
//   recover_auto:  policy dispatch -> revive rollback | shrink (bounded by
//                  the policy's shrink budget) -> replicated single-rank
//                  fallback -> LadderExhausted (a named error, never a hang)
//
// and the collective checkpoint it restores from. Every rung follows one
// skeleton — load the newest valid checkpoint, validate its dataset layout
// while the communicator is still intact, revive or shrink, restore the
// global datasets, redistribute them, and charge the replica bytes to the
// Traffic ledger and the "<recover>" profile row. A front end supplies only
// what depends on its mesh type, through the protected hooks below.
//
// Checkpoint file keys written here: meta/step (i64[1], the caller's step
// counter) and meta/nranks (i64[1], the writing rank count); the front end
// writes its datasets under dat/<name>.
#pragma once

#include <cstdint>
#include <string>

#include "apl/mpisim/comm.hpp"
#include "apl/profile.hpp"
#include "apl/resilience.hpp"
#include "apl/trace.hpp"

namespace apl::io {
class CheckpointStore;
class File;
struct Dataset;
}  // namespace apl::io

namespace apl::mpisim {

class RecoveryDriver {
 public:
  virtual ~RecoveryDriver() = default;
  RecoveryDriver(const RecoveryDriver&) = delete;
  RecoveryDriver& operator=(const RecoveryDriver&) = delete;

  int num_ranks() const { return comm_.size(); }
  Comm& comm() { return comm_; }
  const Comm& comm() const { return comm_; }

  /// Collective checkpoint: gathers authoritative owner values of every
  /// dataset into the global context and writes one crash-safe snapshot
  /// tagged with the caller's `step` counter.
  void checkpoint(io::CheckpointStore& store, std::int64_t step);
  /// Collective rollback after a rank failure: revives all ranks, discards
  /// in-flight messages, restores every dataset from the last good
  /// checkpoint and re-scatters it. The redistribution bytes are accounted
  /// as recovery traffic. Returns the step recorded at checkpoint time.
  std::int64_t recover(io::CheckpointStore& store);
  /// Shrink-and-continue recovery (ULFM-style): removes the failed ranks
  /// from the communicator, redistributes the mesh over the survivors,
  /// restores every dataset from the last good checkpoint re-scattered
  /// onto the new rank count, and resumes — bitwise-identical to a
  /// failure-free run at that rank count. Returns the recorded step.
  std::int64_t shrink_recover(io::CheckpointStore& store);
  /// The degradation ladder: consults resilience::policy() and takes the
  /// configured rung for a permanent rank loss. Never hangs.
  std::int64_t recover_auto(io::CheckpointStore& store);
  /// recover_auto with the result *as data*: the rung reached, the resume
  /// step, the ledger deltas (retries/shrinks/backoff/MTTR) this recovery
  /// cost, and — on failure — the named error kind instead of a throw.
  /// LadderExhausted and recovery errors are absorbed into the Outcome;
  /// anything non-resilience (e.g. a fresh injected Kill) still throws.
  resilience::Outcome recover_outcome(io::CheckpointStore& store);
  /// Shrink-and-continue recoveries performed so far (ladder bookkeeping).
  int shrinks_done() const { return shrinks_done_; }

 protected:
  /// `label` prefixes the ladder's diagnostics ("op2", "ops");
  /// recoveries appear in `profile` (the global context's) as the
  /// "<recover>" row.
  RecoveryDriver(int nranks, std::string label, Profile& profile);

  // ---- front-end hooks
  /// Gathers owner values into the global datasets and writes each one to
  /// `file` under "dat/<name>".
  virtual void save_dats(io::File& file) = 0;
  /// Restores the global datasets `file` holds.
  virtual void load_dats(const io::File& file) = 0;
  /// "" when dataset `name`, as stored in a checkpoint, fits this mesh
  /// (unknown names fit); otherwise "expected ..., found ...".
  virtual std::string dat_layout_mismatch(const std::string& name,
                                          const io::Dataset& stored) const = 0;
  /// Pushes every global dataset out to the ranks (owned + halo copies).
  virtual void scatter_all() = 0;
  /// Re-derives the distribution over comm().size() ranks from the global
  /// mesh alone and rebuilds the rank contexts from the global datasets.
  virtual void redistribute() = 0;
  /// Bytes of every rank's replicas — what a recovery moves.
  virtual std::uint64_t replica_bytes() const = 0;

  Comm comm_;

 private:
  /// Names the first dataset whose stored layout does not fit, with the
  /// rank counts the checkpoint was written and is restored at.
  void validate_layout(const io::File& file, int restoring_at) const;
  /// Ledger, profile row and span bytes common to every rung; returns the
  /// checkpoint's step.
  std::int64_t finish_recovery(const io::File& file, trace::Span& span,
                               double t0);

  std::string label_;
  Profile* profile_;
  int shrinks_done_ = 0;
};

}  // namespace apl::mpisim
