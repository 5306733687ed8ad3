// The in-loop checkpointer both front ends share (paper Sec. VI, Fig. 8).
//
// op2::Checkpointer and ops::Checkpointer differ only in how a dataset
// becomes bytes (AoS entries vs. the raw allocation, halos included) and
// in how a loop's arguments project onto apl::ckpt::ArgAccess. Everything
// else lives here, once:
//
//   * the save state machine: every presented loop goes through
//     apl::ckpt::ChainAnalysis; datasets it classifies SAVE are packed
//     right then (before the loop may modify them), and when the
//     classification completes the checkpoint is written through the
//     crash-safe CheckpointStore;
//   * the checkpoint file codec:
//       dat/<name>          u8[bytes]  front-end payload of each saved dat
//       meta/entry_loop     i64[1]     chain position the restart resumes at
//       meta/gbl_log        u8[n]      global outputs of loops [0, entry)
//       meta/gbl_offsets    i64[entry+1] per-loop offsets into gbl_log
//       meta/loop_names     u8[m]      '\n'-terminated loop names, in order
//   * fast-forward replay on restart: loops before the entry are skipped
//     (their names must match the recorded sequence) and their logged
//     global outputs replayed; at the entry loop the saved datasets are
//     restored and normal execution resumes.
//
// The par_loop drivers call the public hooks only when a checkpointer is
// attached to their context; the virtual front-end hooks run only while a
// checkpoint is being saved or restored.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apl/ckpt.hpp"
#include "apl/io/ckpt.hpp"

namespace apl::io {

class ChainCheckpointer {
 public:
  enum class LoopAction { kExecute, kSkipReplay };
  using index_t = ckpt::index_t;
  using Options = ckpt::Options;
  using ChainEntry = ckpt::ChainEntry;

  virtual ~ChainCheckpointer() = default;
  // The front end's context holds this object's address.
  ChainCheckpointer(const ChainCheckpointer&) = delete;
  ChainCheckpointer& operator=(const ChainCheckpointer&) = delete;

  // ---- user API
  /// Requests a checkpoint; with speculative mode it may be deferred by up
  /// to one period of the loop chain.
  void request_checkpoint();
  bool checkpoint_complete() const { return checkpoint_complete_; }
  /// Loop-sequence position (number of par_loop calls seen so far).
  index_t position() const { return analysis_.position(); }
  bool replaying() const { return replaying_; }

  /// The crash-safe store backing this checkpointer.
  const CheckpointStore& store() const { return store_; }

  // ---- par_loop hooks
  void after_loop(std::span<const std::uint8_t> gbl_payload);
  /// Fast-forward: copies the next `bytes` of the replayed loop's logged
  /// global outputs, from `offset` on, into `dst` and advances `offset`.
  void replay_gbl(void* dst, std::size_t bytes, std::size_t& offset) const;
  void finish_replayed_loop();

  // ---- introspection (Fig. 8 bench and tests)
  const std::vector<ChainEntry>& chain() const { return analysis_.chain(); }

  /// The Fig. 8 "units of data saved if entering checkpointing mode here"
  /// value for chain position `pos`, computed from the recorded chain.
  /// Returns nullopt when the recorded lookahead is insufficient to decide
  /// every dataset ("unknown yet" in Fig. 8).
  std::optional<index_t> units_if_entering_at(index_t pos) const {
    return analysis_.units_if_entering_at(pos);
  }

  /// Smallest period p with chain[i] == chain[i+p] for all recorded i
  /// (0 if the chain is not periodic over the recorded window).
  index_t detect_period() const { return analysis_.detect_period(); }

  /// Datasets a checkpoint entered at `pos` would save, in save order.
  std::vector<index_t> datasets_saved_at(index_t pos) const {
    return analysis_.datasets_saved_at(pos);
  }

 protected:
  /// Fresh run (`replay` false): record the chain and save to the `path`
  /// slot files when requested. Restart (`replay` true): load the newest
  /// checkpoint generation that validates and fast-forward to its entry.
  ChainCheckpointer(std::string path, Options opts, index_t num_dats,
                    bool replay);

  /// Presents one loop, its arguments already projected: replays it during
  /// fast-forward, otherwise advances the save state machine.
  LoopAction on_loop(const std::string& name,
                     std::vector<ckpt::ArgAccess> args);

  const ckpt::ChainAnalysis& analysis() const { return analysis_; }

  // ---- front-end hooks
  virtual std::string dat_name(index_t dat) const = 0;
  /// The dataset's checkpoint payload, packed before the loop that may
  /// modify it.
  virtual std::vector<std::uint8_t> pack_dat(index_t dat) = 0;
  /// Restores the dataset `name` from its payload at the entry loop.
  virtual void unpack_dat(const std::string& name,
                          std::span<const std::uint8_t> bytes) = 0;

 private:
  void finalize_checkpoint();

  CheckpointStore store_;
  Options opts_;
  ckpt::ChainAnalysis analysis_;

  std::vector<std::vector<std::uint8_t>> gbl_log_;  ///< per executed loop

  // saving state: the checkpoint under construction (payloads packed at
  // classification time)
  File saving_;
  bool checkpoint_complete_ = false;

  // replay state
  bool replaying_ = false;
  index_t replay_entry_seq_ = -1;
  std::vector<std::vector<std::uint8_t>> replay_gbl_;
  std::vector<std::string> replay_names_;
  File replay_file_;  ///< the loaded checkpoint, kept for entry
};

}  // namespace apl::io
