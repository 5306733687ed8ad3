#include "op2/checkpoint.hpp"

#include "op2/context.hpp"
#include "op2/io.hpp"

namespace op2 {

std::vector<apl::ckpt::ArgAccess> Checkpointer::project(
    const std::vector<ArgInfo>& args) {
  std::vector<apl::ckpt::ArgAccess> out;
  out.reserve(args.size());
  for (const ArgInfo& a : args) {
    apl::ckpt::ArgAccess p;
    p.acc = a.acc;
    p.dim = a.dim;
    if (a.is_gbl) {
      p.is_gbl = true;
    } else {
      p.dat_id = a.dat_id;
      // Fold (map, component) into aux so two loops differing only in the
      // indirection compare unequal, exactly like comparing ArgInfo.
      p.aux = a.map_id < 0 ? -1 : a.map_id * 256 + a.idx;
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

std::string Checkpointer::dat_name(index_t dat) const {
  return ctx_->dat(dat).name();
}

std::vector<std::uint8_t> Checkpointer::pack_dat(index_t dat) {
  return pack_entries(ctx_->dat(dat));
}

void Checkpointer::unpack_dat(const std::string& name,
                              std::span<const std::uint8_t> bytes) {
  DatBase* dat = ctx_->find_dat(name);
  apl::require(dat != nullptr, "checkpoint restore: unknown dat '", name,
               "'");
  unpack_entries(*dat, bytes, "checkpoint restore");
}

}  // namespace op2
