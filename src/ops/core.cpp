#include "ops/core.hpp"

#include <algorithm>
#include <cstring>

#include "ops/context.hpp"

namespace ops {

Stencil::Stencil(index_t id, int ndim,
                 std::vector<std::array<int, kMaxDim>> points,
                 std::string name)
    : id_(id), ndim_(ndim), points_(std::move(points)),
      name_(std::move(name)) {
  apl::require(!points_.empty(), "Stencil '", name_, "': no points");
  for (int d = 0; d < kMaxDim; ++d) {
    lo_[d] = hi_[d] = points_[0][d];
  }
  for (const auto& p : points_) {
    for (int d = ndim_; d < kMaxDim; ++d) {
      apl::require(p[d] == 0, "Stencil '", name_,
                   "': offset in unused dimension");
    }
    for (int d = 0; d < kMaxDim; ++d) {
      lo_[d] = std::min(lo_[d], p[d]);
      hi_[d] = std::max(hi_[d], p[d]);
    }
  }
}

bool Stencil::is_zero_point() const {
  return points_.size() == 1 && points_[0] == std::array<int, kMaxDim>{};
}

bool Stencil::contains(int i, int j, int k) const {
  const std::array<int, kMaxDim> p = {i, j, k};
  return std::find(points_.begin(), points_.end(), p) != points_.end();
}

DatBase::DatBase(index_t id, const Block& block, index_t dim,
                 std::array<index_t, kMaxDim> size,
                 std::array<index_t, kMaxDim> d_m,
                 std::array<index_t, kMaxDim> d_p, std::size_t elem_bytes,
                 std::string name)
    : id_(id), block_(&block), dim_(dim), size_(size), d_m_(d_m), d_p_(d_p),
      elem_bytes_(elem_bytes), name_(std::move(name)) {
  apl::require(dim >= 1, "Dat '", name_, "': dim must be positive");
  for (int d = 0; d < kMaxDim; ++d) {
    if (d >= block.ndim()) {
      apl::require(size_[d] <= 1 && d_m_[d] == 0 && d_p_[d] == 0, "Dat '",
                   name_, "': extent in unused dimension");
      size_[d] = 1;
    }
    apl::require(size_[d] >= 1 && d_m_[d] >= 0 && d_p_[d] >= 0, "Dat '",
                 name_, "': bad size/halo in dimension ", d);
  }
  const auto alloc = alloc_size();
  stride_[0] = 1;
  stride_[1] = alloc[0];
  stride_[2] = static_cast<std::ptrdiff_t>(alloc[0]) * alloc[1];
}

std::array<index_t, kMaxDim> DatBase::alloc_size() const {
  std::array<index_t, kMaxDim> out;
  for (int d = 0; d < kMaxDim; ++d) out[d] = size_[d] + d_m_[d] + d_p_[d];
  return out;
}

std::size_t DatBase::alloc_points() const {
  const auto a = alloc_size();
  return static_cast<std::size_t>(a[0]) * a[1] * a[2];
}

std::ptrdiff_t DatBase::offset_of(index_t i, index_t j, index_t k) const {
  return (i + d_m_[0]) * stride_[0] + (j + d_m_[1]) * stride_[1] +
         (k + d_m_[2]) * stride_[2];
}

void copy_rows(const DatBase& src, index_t i0, index_t i1, index_t j0,
               index_t j1, DatBase& dst, index_t di, index_t dj) {
  if (i1 <= i0 || j1 <= j0) return;
  apl::require(&src != &dst && src.dim() == dst.dim() &&
                   src.elem_bytes() == dst.elem_bytes(),
               "ops::copy_rows: '", src.name(), "' -> '", dst.name(),
               "' need distinct dats of one layout");
  const auto inside = [](const DatBase& dat, index_t x0, index_t x1,
                         index_t y0, index_t y1) {
    return x0 >= -dat.d_m()[0] && x1 <= dat.size()[0] + dat.d_p()[0] &&
           y0 >= -dat.d_m()[1] && y1 <= dat.size()[1] + dat.d_p()[1];
  };
  apl::require(inside(src, i0, i1, j0, j1) &&
                   inside(dst, di, di + (i1 - i0), dj, dj + (j1 - j0)),
               "ops::copy_rows: box outside '", src.name(), "' or '",
               dst.name(), "'");
  const std::size_t entry = src.dim() * src.elem_bytes();
  const std::size_t row = static_cast<std::size_t>(i1 - i0) * entry;
  const auto* s = static_cast<const std::uint8_t*>(src.raw());
  auto* d = static_cast<std::uint8_t*>(dst.raw());
  for (index_t j = j0; j < j1; ++j) {
    std::memcpy(d + dst.offset_of(di, dj + (j - j0), 0) * entry,
                s + src.offset_of(i0, j, 0) * entry, row);
  }
}

std::size_t Range::points() const {
  std::size_t n = 1;
  for (int d = 0; d < kMaxDim; ++d) {
    if (hi[d] <= lo[d]) return 0;
    n *= static_cast<std::size_t>(hi[d] - lo[d]);
  }
  return n;
}

Range Range::intersect(const Range& other) const {
  Range out;
  for (int d = 0; d < kMaxDim; ++d) {
    out.lo[d] = std::max(lo[d], other.lo[d]);
    out.hi[d] = std::min(hi[d], other.hi[d]);
  }
  return out;
}

bool Range::empty() const { return points() == 0; }

Block& Context::decl_block(int ndim, const std::string& name) {
  blocks_.push_back(std::make_unique<Block>(
      static_cast<index_t>(blocks_.size()), ndim, name));
  topology_hash_.reset();
  return *blocks_.back();
}

Stencil& Context::decl_stencil(int ndim,
                               std::vector<std::array<int, kMaxDim>> points,
                               const std::string& name) {
  stencils_.push_back(std::make_unique<Stencil>(
      static_cast<index_t>(stencils_.size()), ndim, std::move(points), name));
  topology_hash_.reset();
  return *stencils_.back();
}

Stencil& Context::stencil_point(int ndim) {
  const auto it = point_stencils_.find(ndim);
  if (it != point_stencils_.end()) return *stencils_[it->second];
  Stencil& s = decl_stencil(ndim, {{0, 0, 0}},
                            "point" + std::to_string(ndim) + "d");
  point_stencils_[ndim] = s.id();
  return s;
}

DatBase* Context::find_dat(const std::string& name) {
  for (auto& d : dats_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

}  // namespace ops
