#include "op2/plan.hpp"

#include <algorithm>
#include <type_traits>

#include "apl/error.hpp"
#include "apl/graph/coloring.hpp"
#include "apl/graph/csr.hpp"
#include "apl/io/plan_cache.hpp"
#include "op2/context.hpp"

namespace op2 {

namespace {

/// The conflict "resources" of a loop: one entry per (element, conflicting
/// argument). Two elements race iff they touch the same resource. Resources
/// of different dats live in disjoint id ranges — increments into different
/// datasets never race even on the same mesh element.
struct ConflictTable {
  std::vector<index_t> resources;  ///< n * arity, -1 padded
  index_t arity = 0;
  index_t num_resources = 0;
  std::vector<index_t> arg_dat;   ///< dat id per conflict column
  std::vector<index_t> arg_base;  ///< resource-range base per column
};

ConflictTable build_conflicts(const Context& ctx, const Set& set,
                              const std::vector<ArgInfo>& args) {
  // Conflicting args: indirect and modified. (Direct writes are private to
  // the element; indirect pure reads race with nothing.)
  std::vector<const ArgInfo*> conflict_args;
  for (const ArgInfo& a : args) {
    if (!a.is_gbl && a.indirect() && writes(a.acc)) conflict_args.push_back(&a);
  }
  ConflictTable out;
  out.arity = static_cast<index_t>(conflict_args.size());
  if (out.arity == 0) return out;

  // Assign each involved dat a disjoint resource range.
  std::map<index_t, index_t> dat_base;
  index_t next_base = 0;
  for (const ArgInfo* a : conflict_args) {
    if (!dat_base.count(a->dat_id)) {
      dat_base[a->dat_id] = next_base;
      next_base += ctx.dat(a->dat_id).set().size();
    }
  }
  out.num_resources = next_base;
  const index_t n = set.core_size();
  out.resources.assign(static_cast<std::size_t>(n) * out.arity, -1);
  for (index_t k = 0; k < out.arity; ++k) {
    const ArgInfo& a = *conflict_args[k];
    const Map& m = ctx.map(a.map_id);
    const index_t base = dat_base[a.dat_id];
    out.arg_dat.push_back(a.dat_id);
    out.arg_base.push_back(base);
    for (index_t e = 0; e < n; ++e) {
      out.resources[static_cast<std::size_t>(e) * out.arity + k] =
          base + m.at(e, a.idx);
    }
  }
  return out;
}

}  // namespace

namespace detail {

Plan build_plan(const Context& ctx, const Set& set,
                const std::vector<ArgInfo>& args, index_t block_size) {
  apl::require(block_size > 0, "build_plan: block size must be positive");
  Plan plan;
  plan.block_size = block_size;
  const index_t n = set.core_size();
  plan.num_blocks = (n + block_size - 1) / block_size;
  plan.block_offset.resize(static_cast<std::size_t>(plan.num_blocks) + 1);
  for (index_t b = 0; b <= plan.num_blocks; ++b) {
    plan.block_offset[b] = std::min(n, b * block_size);
  }

  const ConflictTable conflicts = build_conflicts(ctx, set, args);
  plan.has_conflicts = conflicts.arity > 0;

  if (!plan.has_conflicts) {
    // Embarrassingly parallel: one color holds every block, elements are
    // all color 0.
    plan.block_color.assign(plan.num_blocks, 0);
    plan.num_block_colors = plan.num_blocks > 0 ? 1 : 0;
    plan.blocks_by_color.resize(plan.num_block_colors);
    for (index_t b = 0; b < plan.num_blocks; ++b) {
      plan.blocks_by_color[0].push_back(b);
    }
    plan.elem_color.assign(n, 0);
    plan.block_elem_colors.assign(plan.num_blocks, n > 0 ? 1 : 0);
    plan.max_elem_colors = n > 0 ? 1 : 0;
    return plan;
  }

  // ---- layer 1: block coloring.
  // Two blocks conflict iff they share any resource. Build resource ->
  // blocks, then the block conflict graph, then greedy-color it.
  std::vector<std::vector<index_t>> resource_blocks(conflicts.num_resources);
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    for (index_t e = plan.block_offset[b]; e < plan.block_offset[b + 1]; ++e) {
      for (index_t k = 0; k < conflicts.arity; ++k) {
        const index_t r =
            conflicts.resources[static_cast<std::size_t>(e) * conflicts.arity + k];
        if (r < 0) continue;
        auto& row = resource_blocks[r];
        if (row.empty() || row.back() != b) row.push_back(b);
      }
    }
  }
  std::vector<std::vector<index_t>> block_adj(plan.num_blocks);
  for (const auto& row : resource_blocks) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        block_adj[row[i]].push_back(row[j]);
        block_adj[row[j]].push_back(row[i]);
      }
    }
  }
  apl::graph::Csr block_graph;
  block_graph.offsets.assign(static_cast<std::size_t>(plan.num_blocks) + 1, 0);
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    auto& adj = block_adj[b];
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    block_graph.adj.insert(block_graph.adj.end(), adj.begin(), adj.end());
    block_graph.offsets[static_cast<std::size_t>(b) + 1] =
        static_cast<index_t>(block_graph.adj.size());
  }
  const apl::graph::Coloring bc = apl::graph::greedy_color(block_graph);
  plan.block_color = bc.color;
  plan.num_block_colors = bc.num_colors;
  plan.blocks_by_color.resize(plan.num_block_colors);
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    plan.blocks_by_color[plan.block_color[b]].push_back(b);
  }

  // ---- layer 2: element coloring within each block (cudasim commit order).
  plan.elem_color.assign(n, 0);
  plan.block_elem_colors.assign(plan.num_blocks, 0);
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    const index_t begin = plan.block_offset[b];
    const index_t count = plan.block_offset[b + 1] - begin;
    if (count == 0) continue;
    const std::span<const index_t> local(
        conflicts.resources.data() +
            static_cast<std::size_t>(begin) * conflicts.arity,
        static_cast<std::size_t>(count) * conflicts.arity);
    const apl::graph::Coloring ec = apl::graph::color_by_shared_resources(
        local, conflicts.arity, count, conflicts.num_resources);
    for (index_t i = 0; i < count; ++i) {
      plan.elem_color[begin + i] = ec.color[i];
    }
    plan.block_elem_colors[b] = ec.num_colors;
    plan.max_elem_colors = std::max(plan.max_elem_colors, ec.num_colors);
  }
  return plan;
}

}  // namespace detail

namespace {

// Plan IR section tags. The shape section carries every scalar; the array
// sections carry raw index_t payloads. blocks_by_color is intentionally
// absent: it is a permutation of block ids derivable from block_color, so
// storing it would only add a redundancy to validate.
constexpr std::uint32_t kSecShape = 1;
constexpr std::uint32_t kSecBlockOffset = 2;
constexpr std::uint32_t kSecBlockColor = 3;
constexpr std::uint32_t kSecElemColor = 4;
constexpr std::uint32_t kSecBlockElemColors = 5;

struct PlanShape {
  index_t block_size = 0;
  index_t num_blocks = 0;
  index_t num_block_colors = 0;
  index_t max_elem_colors = 0;
  index_t n = 0;  ///< iteration size the plan covers (set core size)
  std::uint8_t has_conflicts = 0;
  std::uint8_t pad[3] = {};  ///< serialized too: keep it deterministic
};
static_assert(std::is_trivially_copyable_v<PlanShape> &&
                  sizeof(PlanShape) == 24,
              "PlanShape is serialized by memcpy; keep it packed");

}  // namespace

std::vector<std::uint8_t> encode_plan(const Plan& plan) {
  apl::plan_cache::BlobWriter w;
  PlanShape shape;
  shape.block_size = plan.block_size;
  shape.num_blocks = plan.num_blocks;
  shape.num_block_colors = plan.num_block_colors;
  shape.max_elem_colors = plan.max_elem_colors;
  shape.n = plan.block_offset.empty() ? 0 : plan.block_offset.back();
  shape.has_conflicts = plan.has_conflicts ? 1 : 0;
  w.section(kSecShape, {reinterpret_cast<const std::uint8_t*>(&shape),
                        sizeof(shape)});
  w.section_of<index_t>(kSecBlockOffset, plan.block_offset);
  w.section_of<index_t>(kSecBlockColor, plan.block_color);
  w.section_of<index_t>(kSecElemColor, plan.elem_color);
  w.section_of<index_t>(kSecBlockElemColors, plan.block_elem_colors);
  return w.take();
}

std::optional<Plan> decode_plan(std::span<const std::uint8_t> payload,
                                index_t n, std::string* diag) {
  Plan plan;
  PlanShape shape;
  const apl::plan_cache::SectionHandler table[] = {
      apl::plan_cache::pod_section(kSecShape, &shape),
      apl::plan_cache::array_section(kSecBlockOffset, &plan.block_offset),
      apl::plan_cache::array_section(kSecBlockColor, &plan.block_color),
      apl::plan_cache::array_section(kSecElemColor, &plan.elem_color),
      apl::plan_cache::array_section(kSecBlockElemColors,
                                     &plan.block_elem_colors),
  };
  auto reject = [&](const std::string& why) {
    if (diag != nullptr) *diag = "plan-ir: " + why;
    return std::nullopt;
  };

  const std::string err = apl::plan_cache::decode_sections(payload, table);
  if (!err.empty()) {
    if (diag != nullptr) *diag = err;
    return std::nullopt;
  }

  // Executing a decoded plan trusts its invariants, so prove them here:
  // the container CRC only guards against bitrot, not a stale or foreign
  // blob that survived key hashing by accident.
  plan.block_size = shape.block_size;
  plan.num_blocks = shape.num_blocks;
  plan.num_block_colors = shape.num_block_colors;
  plan.max_elem_colors = shape.max_elem_colors;
  plan.has_conflicts = shape.has_conflicts != 0;
  if (shape.n != n) {
    return reject("covers n=" + std::to_string(shape.n) +
                  ", expected n=" + std::to_string(n));
  }
  if (plan.num_blocks < 0 || plan.block_size <= 0 ||
      plan.num_block_colors < 0) {
    return reject("negative or zero shape fields");
  }
  if (plan.block_offset.size() !=
      static_cast<std::size_t>(plan.num_blocks) + 1) {
    return reject("block_offset has " +
                  std::to_string(plan.block_offset.size()) +
                  " entries, expected num_blocks+1");
  }
  if (plan.block_offset.front() != 0 || plan.block_offset.back() != n) {
    return reject("block offsets do not span [0, n)");
  }
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    if (plan.block_offset[b] > plan.block_offset[b + 1]) {
      return reject("block offsets not monotone at block " +
                    std::to_string(b));
    }
  }
  if (plan.block_color.size() != static_cast<std::size_t>(plan.num_blocks) ||
      plan.block_elem_colors.size() !=
          static_cast<std::size_t>(plan.num_blocks)) {
    return reject("per-block arrays do not match num_blocks");
  }
  for (index_t c : plan.block_color) {
    if (c < 0 || c >= plan.num_block_colors) {
      return reject("block color " + std::to_string(c) + " out of range");
    }
  }
  if (plan.elem_color.size() != static_cast<std::size_t>(n)) {
    return reject("elem_color does not cover the iteration set");
  }
  for (index_t c : plan.elem_color) {
    if (c < 0 || c >= std::max<index_t>(plan.max_elem_colors, 1)) {
      return reject("element color " + std::to_string(c) + " out of range");
    }
  }

  plan.blocks_by_color.assign(
      static_cast<std::size_t>(plan.num_block_colors), {});
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    plan.blocks_by_color[plan.block_color[b]].push_back(b);
  }
  if (diag != nullptr) diag->clear();
  return plan;
}

namespace {

/// Describes the racing pair for audit_plan: which elements, which dat,
/// which shared target element.
std::string describe_race(const Context& ctx, const ConflictTable& conflicts,
                          index_t e1, index_t e2, index_t resource,
                          const char* level) {
  index_t dat_id = -1, target = -1;
  for (index_t k = 0; k < conflicts.arity; ++k) {
    const index_t r =
        conflicts.resources[static_cast<std::size_t>(e1) * conflicts.arity + k];
    if (r == resource) {
      dat_id = conflicts.arg_dat[k];
      target = resource - conflicts.arg_base[k];
      break;
    }
  }
  std::string out = "race between elements ";
  out += std::to_string(e1);
  out += " and ";
  out += std::to_string(e2);
  out += " (same ";
  out += level;
  out += " color): both indirectly write element ";
  out += std::to_string(target);
  out += " of dat '";
  out += dat_id >= 0 ? ctx.dat(dat_id).name() : "?";
  out += "'";
  return out;
}

}  // namespace

std::string audit_plan(const Context& ctx, const Set& set,
                       const std::vector<ArgInfo>& args, const Plan& plan) {
  const ConflictTable conflicts = build_conflicts(ctx, set, args);
  if (conflicts.arity == 0) return {};  // embarrassingly parallel
  const index_t n = set.core_size();

  if (plan.block_offset.size() !=
          static_cast<std::size_t>(plan.num_blocks) + 1 ||
      plan.block_color.size() != static_cast<std::size_t>(plan.num_blocks) ||
      plan.elem_color.size() < static_cast<std::size_t>(n)) {
    return "malformed plan: offset/color arrays do not match num_blocks=" +
           std::to_string(plan.num_blocks) + ", n=" + std::to_string(n);
  }

  std::vector<index_t> block_of(n);
  for (index_t b = 0; b < plan.num_blocks; ++b) {
    for (index_t e = plan.block_offset[b]; e < plan.block_offset[b + 1]; ++e) {
      block_of[e] = b;
    }
  }

  // Group the elements touching each resource, then check every pair: a
  // shared resource between two same-colored blocks, or two same-colored
  // elements of one block, is exactly the race the plan exists to prevent.
  std::vector<std::vector<index_t>> touchers(conflicts.num_resources);
  for (index_t e = 0; e < n; ++e) {
    for (index_t k = 0; k < conflicts.arity; ++k) {
      const index_t r =
          conflicts.resources[static_cast<std::size_t>(e) * conflicts.arity + k];
      if (r < 0) continue;
      auto& row = touchers[r];
      if (row.empty() || row.back() != e) row.push_back(e);
    }
  }
  for (index_t r = 0; r < conflicts.num_resources; ++r) {
    const auto& row = touchers[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        const index_t e1 = row[i], e2 = row[j];
        const index_t b1 = block_of[e1], b2 = block_of[e2];
        if (b1 != b2 && plan.block_color[b1] == plan.block_color[b2]) {
          return describe_race(ctx, conflicts, e1, e2, r, "block");
        }
        if (b1 == b2 && e1 != e2 &&
            plan.elem_color[e1] == plan.elem_color[e2]) {
          return describe_race(ctx, conflicts, e1, e2, r, "element");
        }
      }
    }
  }
  return {};
}

}  // namespace op2
