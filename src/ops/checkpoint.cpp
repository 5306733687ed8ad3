#include "ops/checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "ops/context.hpp"

namespace ops {

std::vector<apl::ckpt::ArgAccess> Checkpointer::project(
    const std::vector<ArgInfo>& args) {
  std::vector<apl::ckpt::ArgAccess> out;
  out.reserve(args.size());
  for (const ArgInfo& a : args) {
    if (a.is_idx) continue;  // index pseudo-argument: no data access
    apl::ckpt::ArgAccess p;
    p.acc = a.acc;
    p.dim = a.dim;
    if (a.is_gbl) {
      p.is_gbl = true;
    } else {
      p.dat_id = a.dat_id;
      p.aux = a.stencil_id;
    }
    out.push_back(p);
  }
  return out;
}

Checkpointer::Checkpointer(Context& ctx, std::string path, Options opts,
                           bool replay)
    : ChainCheckpointer(std::move(path), opts, ctx.num_dats(), replay),
      ctx_(&ctx) {
  ctx.attach_checkpointer(this);
}

void Checkpointer::request_checkpoint() {
  // A checkpoint request is a flush point: the queued chain executes
  // before the state machine arms, so entry-point selection and packed
  // payloads refer to a well-defined program position.
  if (!replaying()) ctx_->flush();
  ChainCheckpointer::request_checkpoint();
}

std::string Checkpointer::dat_name(index_t dat) const {
  return ctx_->dat(dat).name();
}

/// The dat's full allocation (halos included). raw() is a flush point, but
/// the checkpointer only packs while par_loop runs it eagerly
/// (wants_eager), so the chain is already drained and this is a plain copy.
std::vector<std::uint8_t> Checkpointer::pack_dat(index_t dat) {
  DatBase& d = ctx_->dat(dat);
  const std::size_t n =
      d.alloc_points() * static_cast<std::size_t>(d.dim()) * d.elem_bytes();
  std::vector<std::uint8_t> out(n);
  std::memcpy(out.data(), d.raw(), n);
  return out;
}

void Checkpointer::unpack_dat(const std::string& name,
                              std::span<const std::uint8_t> bytes) {
  DatBase* dat = ctx_->find_dat(name);
  apl::require(dat != nullptr, "checkpoint restore: unknown dat '", name,
               "'");
  const std::size_t n = dat->alloc_points() *
                        static_cast<std::size_t>(dat->dim()) *
                        dat->elem_bytes();
  apl::require(bytes.size() == n, "checkpoint restore: dat '", name,
               "' size mismatch (", bytes.size(), " vs ", n, " bytes)");
  std::memcpy(dat->raw(), bytes.data(), n);
}

Access Checkpointer::classify_write(index_t dat_id, Access acc,
                                    const Range& range, int ndim) {
  if (dat_id >= static_cast<index_t>(dirty_.size())) {
    dirty_.resize(static_cast<std::size_t>(dat_id) + 1);
  }
  DirtyBox& box = dirty_[dat_id];
  Access out = acc;
  if (acc == Access::kWrite && box.valid) {
    for (int k = 0; k < ndim; ++k) {
      if (range.lo[k] > box.lo[k] || range.hi[k] < box.hi[k]) {
        out = Access::kRW;
        break;
      }
    }
  }
  if (writes(acc) && !range.empty()) {
    if (!box.valid) {
      box.valid = true;
      box.lo = range.lo;
      box.hi = range.hi;
    } else {
      for (int k = 0; k < ndim; ++k) {
        box.lo[k] = std::min(box.lo[k], range.lo[k]);
        box.hi[k] = std::max(box.hi[k], range.hi[k]);
      }
    }
  }
  return out;
}

}  // namespace ops
