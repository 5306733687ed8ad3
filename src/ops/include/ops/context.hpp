// The OPS context: owner of blocks, stencils, datasets, inter-block halos
// and run-time configuration.
//
// Execution configuration (backend, debug checks, lazy mode, profile, flop
// hints) comes from the unified execution API base (apl/exec.hpp), lazy
// queueing and flushing from the shared lazy core (apl/chain.hpp). The OPS
// context supplies the chain inspector (ops/lazy.hpp): with set_lazy(true),
// par_loop enqueues loop records which execute — with cross-loop
// cache-blocked tiling — at the next flush point.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apl/exec.hpp"
#include "apl/profile.hpp"
#include "ops/arg.hpp"
#include "ops/core.hpp"
#include "ops/lazy.hpp"

namespace ops {

class Checkpointer;

class Context : public apl::chain::LazyContext<LoopRecord, ChainRun> {
public:
  Context() : LazyContext({"ops", "chain_flush", "chain_resume"}) {}

  // ---- declarations (ops_decl_block / _stencil / _dat)
  Block& decl_block(int ndim, const std::string& name);
  Stencil& decl_stencil(int ndim,
                        std::vector<std::array<int, kMaxDim>> points,
                        const std::string& name);
  /// Common stencils by name: "point" (centre only) and symmetric
  /// box/cross stencils built on demand.
  Stencil& stencil_point(int ndim);

  template <class T>
  Dat<T>& decl_dat(const Block& block, index_t dim,
                   std::array<index_t, kMaxDim> size,
                   std::array<index_t, kMaxDim> d_m,
                   std::array<index_t, kMaxDim> d_p,
                   const std::string& name) {
    auto dat = std::make_unique<Dat<T>>(static_cast<index_t>(dats_.size()),
                                        block, dim, size, d_m, d_p, name);
    Dat<T>& ref = *dat;
    ref.attach_context(this, pending_flag());
    dats_.push_back(std::move(dat));
    topology_hash_.reset();
    return ref;
  }

  const Block& block(index_t id) const { return *blocks_.at(id); }
  const Stencil& stencil(index_t id) const { return *stencils_.at(id); }
  DatBase& dat(index_t id) { return *dats_.at(id); }
  const DatBase& dat(index_t id) const { return *dats_.at(id); }
  index_t num_blocks() const { return static_cast<index_t>(blocks_.size()); }
  index_t num_stencils() const {
    return static_cast<index_t>(stencils_.size());
  }
  index_t num_dats() const { return static_cast<index_t>(dats_.size()); }
  DatBase* find_dat(const std::string& name);

  // ---- lazy loop-chain engine (ops/lazy.hpp; queue, flush and
  // park/resume are the shared core in apl/chain.hpp)
  /// Cross-loop cache-blocked tiling of flushed chains (default on). With
  /// tiling off a flush replays the queue verbatim — the bit-comparable
  /// validation baseline.
  bool tiling() const { return tiling_; }
  void set_tiling(bool on) { tiling_ = on; }
  /// Tile height (grid rows per tile along the outermost dimension);
  /// 0 picks a height whose chain working set fits the cache budget.
  index_t tile_rows() const { return tile_rows_; }
  void set_tile_rows(index_t rows) { tile_rows_ = rows; }
  /// Returns the compiled execution schedule for a queued chain — the one
  /// public entry point for chain planning. Consults, in order: the
  /// in-memory memo (keyed by the combined cache signature, so the
  /// steady-state flush of an unchanged chain costs one hash), the
  /// persistent plan cache (when OPAL_PLAN_CACHE names a directory), and
  /// only then the chain analysis (detail::analyze_chain). The reference
  /// stays valid for the lifetime of the context.
  const ChainSchedule& plan_for(const PlanRequest& req);

  /// Signature of the declared topology (blocks, stencils, dataset
  /// shapes) — one input of the plan-cache key. Memoized; any later
  /// declaration invalidates it.
  std::uint64_t topology_hash() const;

  // ---- checkpointing (ops/checkpoint.hpp)
  void attach_checkpointer(Checkpointer* ck) { checkpointer_ = ck; }
  Checkpointer* checkpointer() const { return checkpointer_; }

private:
  // Lazy-core hooks (ops/lazy.cpp).
  ChainRun plan_chain(const std::vector<LoopRecord>& chain,
                      apl::chain::Charge& charge) override;
  void run_step(ChainRun& run, std::size_t i,
                const std::vector<LoopRecord>& chain,
                ChainStats& stats) override;
  void account_loop(const LoopRecord& rec) override;

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<Stencil>> stencils_;
  std::vector<std::unique_ptr<DatBase>> dats_;
  std::map<int, index_t> point_stencils_;  ///< ndim -> stencil id
  std::map<std::uint64_t, std::unique_ptr<ChainSchedule>> schedules_;
  mutable std::optional<std::uint64_t> topology_hash_;
  bool tiling_ = true;
  index_t tile_rows_ = 0;
  Checkpointer* checkpointer_ = nullptr;
};

/// Out-of-line (needs the complete Context).
template <class T>
DatBase& Dat<T>::declare_like(Context& ctx, const Block& block,
                              std::array<index_t, kMaxDim> size) const {
  return ctx.decl_dat<T>(block, dim_, size, d_m_, d_p_, name_);
}

/// Centre-point dataset argument — the common case of a dat read/written
/// only at the iteration point, mirroring op2::arg's direct form so both
/// layers spell simple arguments the same way. The explicit-stencil
/// overload lives in ops/arg.hpp.
template <class T>
ArgDat<T> arg(Dat<T>& dat, Access acc) {
  apl::require(dat.context() != nullptr, "ops::arg: dat '", dat.name(),
               "' was not declared through a Context");
  return arg(dat, dat.context()->stencil_point(dat.block().ndim()), acc);
}

}  // namespace ops
