// Checkpointing for structured-mesh loop chains (paper Sec. VI, Fig. 8,
// extended to OPS as in the loop-tiling follow-up paper: the same run-time
// chain analysis that drives tiling drives checkpoint placement).
//
// Semantics match op2::Checkpointer exactly — the chain classification
// (apl::ckpt::ChainAnalysis) and the save state machine, file codec and
// fast-forward replay (apl::io::ChainCheckpointer) are shared; this class
// supplies what is specific to structured meshes:
//   * payloads are each dataset's full allocation, halos included;
//   * request_checkpoint() is a *flush point* for the lazy loop-chain
//     engine: the queued chain executes first, so the analysis sees data
//     values at a well-defined program position;
//   * while a checkpoint is pending/saving, par_loop flushes before each
//     loop (wants_eager()), so payloads packed at classification time
//     capture true loop-entry values;
//   * a kWrite over a sub-range is reclassified as a read-modify-write
//     unless it covers everything written since attach (classify_write);
//   * on restart loop bodies are skipped (never enqueued).
//
// Files go through apl::io::CheckpointStore: `path` is a base name for
// the crash-safe slot pair `<path>.a` / `<path>.b` plus `<path>.mf`.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apl/io/chain_ckpt.hpp"
#include "ops/arg.hpp"

namespace ops {

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
  /// entry loop, then restore datasets and resume normal execution.
  static Checkpointer restore(Context& ctx, std::string path, Options opts) {
    return Checkpointer(ctx, std::move(path), opts, /*replay=*/true);
  }
  static Checkpointer restore(Context& ctx, std::string path) {
    return restore(ctx, std::move(path), Options{});
  }

  // ---- user API
  /// Requests a checkpoint (a flush point for the lazy engine); with
  /// speculative mode entry may be deferred by up to one period.
  void request_checkpoint();
  /// True while the checkpointer needs loop-entry data values: par_loop
  /// flushes the queued chain before presenting each loop then.
  bool wants_eager() const {
    return analysis().mode() != apl::ckpt::ChainAnalysis::Mode::kMonitor;
  }

  // ---- par_loop hooks
  /// Classifier view of one write access. A kWrite only means "replay
  /// rebuilds this dat" when its range covers every point written since
  /// this checkpointer attached: replay re-executes exactly those writes,
  /// and state established *before* attach (mesh loading, initial
  /// conditions) is the application's responsibility to re-create on
  /// restart. A kWrite whose range misses part of the post-attach dirty
  /// region is a read-modify-write — the uncovered points would be lost
  /// (found by the testkit fuzzer, seed 13: an init loop over a sub-range
  /// classified a dat dirtied outside that sub-range as recompute). The
  /// dirty region is tracked as a per-dat bounding box, a safe
  /// over-approximation. Call once per written dat arg, in program order,
  /// before on_loop.
  Access classify_write(index_t dat_id, Access acc, const Range& range,
                        int ndim);
  LoopAction on_loop(const std::string& name,
                     const std::vector<ArgInfo>& args) {
    return ChainCheckpointer::on_loop(name, project(args));
  }

private:
  Checkpointer(Context& ctx, std::string path, Options opts, bool replay);

  /// Projects the OPS descriptors onto the library-agnostic form. ArgIdx
  /// pseudo-arguments carry no data access and are skipped; the stencil id
  /// goes into `aux` so chain equality stays exact.
  static std::vector<apl::ckpt::ArgAccess> project(
      const std::vector<ArgInfo>& args);

  std::string dat_name(index_t dat) const override;
  std::vector<std::uint8_t> pack_dat(index_t dat) override;
  void unpack_dat(const std::string& name,
                  std::span<const std::uint8_t> bytes) override;

  Context* ctx_;

  /// Per-dat bounding box of every range written since attach (see
  /// classify_write). Indexed by dat id; `valid` false until first write.
  struct DirtyBox {
    bool valid = false;
    std::array<index_t, kMaxDim> lo{};
    std::array<index_t, kMaxDim> hi{};
  };
  std::vector<DirtyBox> dirty_;
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
inline void replay_gbl(Checkpointer&, ArgIdx&, std::size_t&) {}

template <class T>
void log_gbl(const ArgGbl<T>& g, std::vector<std::uint8_t>& out) {
  if (!writes(g.acc)) return;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(g.data);
  out.insert(out.end(), bytes, bytes + g.dim * sizeof(T));
}
template <class T>
void log_gbl(const ArgDat<T>&, std::vector<std::uint8_t>&) {}
inline void log_gbl(const ArgIdx&, std::vector<std::uint8_t>&) {}

}  // namespace detail

}  // namespace ops
