// Loop-chain-analysis checkpointing (paper Sec. VI, Fig. 8).
//
// Because every dataset is owned by the library and every loop declares how
// it accesses each dataset, the library can reason about the state of all
// data at any point of execution. When a checkpoint is requested:
//
//   * entering "checkpointing mode" at loop i, each dataset is classified
//     lazily as the subsequent loops are reached: first access is a read
//     (R/RW/Inc) -> the dataset must be SAVED (its value still equals the
//     value at loop i, so it is written to the checkpoint right then);
//     first access is a whole write (W) -> DROPPED; never modified since
//     application start -> not saved (restart re-creates initial data);
//   * the "units of data saved if entering here" column of Fig. 8 is
//     exactly the sum of saved dataset dimensions, computable for any
//     candidate entry point from the recorded chain;
//   * in speculative mode the checkpointer recognises the periodic kernel
//     sequence and defers entry to the cheapest phase of the period (for
//     Airfoil: right before save_soln or update, 8 units instead of 13);
//   * on restart the application runs identically, but par_loop skips all
//     computation and only restores recorded global-reduction outputs
//     ("fast-forwarding"); when the entry loop is reached, the saved
//     datasets are restored and normal execution resumes.
//
// The classification lives in apl::ckpt::ChainAnalysis and the save state
// machine, checkpoint file codec and fast-forward replay in
// apl::io::ChainCheckpointer, both shared with ops::Checkpointer; this
// class supplies the OP2-specific parts: packing dat payloads (AoS entry
// order) and projecting loop arguments. Files are written through
// apl::io::CheckpointStore, so `path` is a base name for the crash-safe
// slot pair `<path>.a` / `<path>.b` plus `<path>.mf`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apl/io/chain_ckpt.hpp"
#include "op2/arg.hpp"

namespace op2 {

class Context;

class Checkpointer : public apl::io::ChainCheckpointer {
public:
  /// Fresh run: record the chain, save to the `path` slot files when
  /// requested.
  Checkpointer(Context& ctx, std::string path, Options opts)
      : Checkpointer(ctx, std::move(path), opts, /*replay=*/false) {}
  Checkpointer(Context& ctx, std::string path)
      : Checkpointer(ctx, std::move(path), Options{}) {}

  /// Restart: fast-forward (replaying logged global outputs) to the saved
  /// entry loop, then restore datasets and resume normal execution. Loads
  /// the newest checkpoint generation that validates.
  static Checkpointer restore(Context& ctx, std::string path, Options opts) {
    return Checkpointer(ctx, std::move(path), opts, /*replay=*/true);
  }
  static Checkpointer restore(Context& ctx, std::string path) {
    return restore(ctx, std::move(path), Options{});
  }

  // ---- par_loop hook
  LoopAction on_loop(const std::string& name,
                     const std::vector<ArgInfo>& args) {
    return ChainCheckpointer::on_loop(name, project(args));
  }

private:
  Checkpointer(Context& ctx, std::string path, Options opts, bool replay);

  /// Projects the OP2 descriptors onto the library-agnostic form; map id
  /// and component are folded into `aux` so chain equality stays exact.
  static std::vector<apl::ckpt::ArgAccess> project(
      const std::vector<ArgInfo>& args);

  std::string dat_name(index_t dat) const override;
  std::vector<std::uint8_t> pack_dat(index_t dat) override;
  void unpack_dat(const std::string& name,
                  std::span<const std::uint8_t> bytes) override;

  Context* ctx_;
};

namespace detail {

/// Fast-forward replay and logging of one argument's global output (the
/// gbl log of apl::io::ChainCheckpointer); dats carry none.
template <class T>
void replay_gbl(Checkpointer& ck, ArgGbl<T>& g, std::size_t& offset) {
  if (writes(g.acc)) ck.replay_gbl(g.data, g.dim * sizeof(T), offset);
}
template <class T>
void replay_gbl(Checkpointer&, ArgDat<T>&, std::size_t&) {}

template <class T>
void log_gbl(const ArgGbl<T>& g, std::vector<std::uint8_t>& out) {
  if (!writes(g.acc)) return;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(g.data);
  out.insert(out.end(), bytes, bytes + g.dim * sizeof(T));
}
template <class T>
void log_gbl(const ArgDat<T>&, std::vector<std::uint8_t>&) {}

}  // namespace detail

}  // namespace op2
