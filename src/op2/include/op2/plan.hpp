// Run-time execution plans: the two-layer coloring of paper Sec. II-B.
//
// Any loop with potential race conflicts (an indirectly modified argument)
// gets a plan: the iteration set is broken into blocks; blocks are colored
// so no two same-colored blocks touch the same indirectly-modified element
// (different threads / thread blocks can then run them concurrently); and,
// for the CUDA execution strategy, elements *within* a block are colored
// again so per-thread increments can be committed color by color. Plans
// are built lazily on first execution and cached, keyed by the loop's
// argument signature, exactly as in OP2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "op2/arg.hpp"
#include "op2/mesh.hpp"

namespace op2 {

class Context;

/// What a caller wants a plan *for*: the loop's identity plus the
/// analysis parameters. This is the one public spelling for plan
/// acquisition — par_loop, the distributed layer, tools and tests all go
/// through `Context::plan_for(PlanRequest)`; the coloring pipeline itself
/// (`detail::build_plan`) is an internal detail.
/// The request views the caller's name and arguments; plan_for copies
/// them only when it builds a plan, so a memo hit allocates nothing.
struct PlanRequest {
  std::string_view loop;          ///< label for traces/diagnostics/profile
  const Set* set = nullptr;       ///< iteration set
  std::span<const ArgInfo> args;  ///< the loop's argument signature
  index_t block_size = 0;         ///< 0: use the context's block size
};

struct Plan {
  index_t block_size = 0;
  index_t num_blocks = 0;
  /// Block b covers elements [block_offset[b], block_offset[b+1]).
  std::vector<index_t> block_offset;
  std::vector<index_t> block_color;
  index_t num_block_colors = 0;
  /// Blocks grouped by color, the execution order of the threads backend.
  std::vector<std::vector<index_t>> blocks_by_color;
  /// Per-element color within its block (cudasim commit order).
  std::vector<index_t> elem_color;
  std::vector<index_t> block_elem_colors;  ///< colors used per block
  index_t max_elem_colors = 0;
  bool has_conflicts = false;  ///< false => loop is embarrassingly parallel
};

/// Version of the serialized Plan IR below. Bump on any layout or
/// semantic change: the plan cache keys entries by it, so stale blobs
/// invalidate themselves instead of being misread. Shared by both op2 IR
/// kinds ("op2" colored plans and "op2chain" tile schedules). v2: the
/// "op2chain" kind and its section tags (16-19) joined the format.
/// v3: tile colors became execution *rounds* (layered order-preserving
/// coloring) — schedules colored by the old greedy scheme are not legal
/// round orders, so they must not be replayed from disk.
inline constexpr std::uint32_t kPlanIrVersion = 3;

/// Serializes `plan` as a tagged-section Plan IR payload (the
/// apl::plan_cache framing): a shape section plus one section per array.
/// `blocks_by_color` is derived state and is not stored — the decoder
/// rebuilds it from block_color.
std::vector<std::uint8_t> encode_plan(const Plan& plan);

/// Decodes a Plan IR payload through the section dispatch table and
/// validates it against the iteration size `n` it claims to cover
/// (offsets monotone and spanning [0, n], colors in range, array sizes
/// consistent). Returns std::nullopt with `*diag` naming the defect on
/// any mismatch — the caller falls back to a fresh inspector run.
std::optional<Plan> decode_plan(std::span<const std::uint8_t> payload,
                                index_t n, std::string* diag);

namespace detail {

/// The inspector: builds a plan for a loop over `set` with the given
/// argument signature. Internal — runtime call sites go through
/// `Context::plan_for(PlanRequest)`, which adds memoization, the
/// persistent IR cache and the guarded race audit; only tests and the
/// coloring ablation bench call the builder directly.
Plan build_plan(const Context& ctx, const Set& set,
                const std::vector<ArgInfo>& args, index_t block_size);

}  // namespace detail

/// Race audit (apl::verify::kPlan): proves the two-level coloring of
/// `plan` — no two same-colored blocks, and no two same-colored elements
/// within a block, indirectly write the same target. Returns an empty
/// string for a race-free plan, otherwise a description of the first
/// conflicting element pair (which elements, which dat, which target).
/// Run automatically by Context::plan_for in guarded mode; exposed as a
/// standalone checker for tests and tools.
std::string audit_plan(const Context& ctx, const Set& set,
                       const std::vector<ArgInfo>& args, const Plan& plan);

}  // namespace op2
