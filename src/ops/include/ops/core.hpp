// OPS — the multi-block structured-mesh active library (paper Sec. II-A).
//
// The abstraction: a collection of blocks, each with a dimensionality but
// no size; datasets defined on blocks, each with its own size and halo
// depths (accommodating data on vertices, faces or cells and multi-grid);
// explicit halos between datasets of different blocks; and computations as
// parallel loops over index ranges of one block, executing a user kernel
// per grid point that accesses datasets through *declared stencils*.
//
// The key structural restriction OPS exploits (and this library enforces):
// a kernel may write a dataset only at the centre point of the stencil, so
// grid points of one loop are trivially independent — no coloring is
// needed, unlike OP2's unstructured loops.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apl/aligned.hpp"
#include "apl/chain.hpp"
#include "apl/error.hpp"
#include "apl/exec.hpp"

namespace ops {

using index_t = std::int32_t;
inline constexpr int kMaxDim = 3;

/// Deprecated aliases of the unified execution vocabulary (apl/exec.hpp);
/// kept for one release — new code should spell them apl::exec::Access /
/// apl::exec::Backend. OPS executes Backend::kSimd as kSeq: structured
/// loops are unit-stride along x and auto-vectorize.
using Access = apl::exec::Access;
using Backend = apl::exec::Backend;

using apl::exec::reads;
using apl::exec::to_string;
using apl::exec::writes;

class Context;

/// Iteration range: half-open [lo[d], hi[d]) per dimension in the
/// dataset's interior coordinates; may extend into declared halos
/// (boundary-condition loops do).
struct Range {
  std::array<index_t, kMaxDim> lo{};
  std::array<index_t, kMaxDim> hi{};

  static Range dim1(index_t x0, index_t x1) {
    return {{x0, 0, 0}, {x1, 1, 1}};
  }
  static Range dim2(index_t x0, index_t x1, index_t y0, index_t y1) {
    return {{x0, y0, 0}, {x1, y1, 1}};
  }
  static Range dim3(index_t x0, index_t x1, index_t y0, index_t y1,
                    index_t z0, index_t z1) {
    return {{x0, y0, z0}, {x1, y1, z1}};
  }
  std::size_t points() const;
  Range intersect(const Range& other) const;
  bool empty() const;
};

/// A structured block: a dimensionality and a name, no size (sizes live on
/// the datasets, which may be vertex-, face- or cell-centred).
class Block {
public:
  Block(index_t id, int ndim, std::string name)
      : id_(id), ndim_(ndim), name_(std::move(name)) {
    apl::require(ndim >= 1 && ndim <= kMaxDim, "Block '", name_,
                 "': ndim must be 1..3");
  }
  index_t id() const { return id_; }
  int ndim() const { return ndim_; }
  const std::string& name() const { return name_; }

private:
  index_t id_;
  int ndim_;
  std::string name_;
};

/// A stencil: the set of relative offsets a kernel may access.
class Stencil {
public:
  Stencil(index_t id, int ndim,
          std::vector<std::array<int, kMaxDim>> points, std::string name);

  index_t id() const { return id_; }
  int ndim() const { return ndim_; }
  const std::string& name() const { return name_; }
  const std::vector<std::array<int, kMaxDim>>& points() const {
    return points_;
  }
  /// Most negative / most positive offset per dimension.
  const std::array<int, kMaxDim>& lo() const { return lo_; }
  const std::array<int, kMaxDim>& hi() const { return hi_; }
  bool is_zero_point() const;
  bool contains(int i, int j, int k) const;

private:
  index_t id_;
  int ndim_;
  std::vector<std::array<int, kMaxDim>> points_;
  std::array<int, kMaxDim> lo_{};
  std::array<int, kMaxDim> hi_{};
  std::string name_;
};

/// Type-erased dataset base (mirrors op2::DatBase; drives halo exchange,
/// distribution and I/O without knowing T).
class DatBase {
public:
  DatBase(index_t id, const Block& block, index_t dim,
          std::array<index_t, kMaxDim> size, std::array<index_t, kMaxDim> d_m,
          std::array<index_t, kMaxDim> d_p, std::size_t elem_bytes,
          std::string name);
  virtual ~DatBase() = default;

  index_t id() const { return id_; }
  const Block& block() const { return *block_; }
  index_t dim() const { return dim_; }
  std::size_t elem_bytes() const { return elem_bytes_; }
  const std::string& name() const { return name_; }
  /// Interior extent per dimension.
  const std::array<index_t, kMaxDim>& size() const { return size_; }
  /// Halo depths below/above the interior per dimension.
  const std::array<index_t, kMaxDim>& d_m() const { return d_m_; }
  const std::array<index_t, kMaxDim>& d_p() const { return d_p_; }
  /// Allocated extent per dimension (interior + halos).
  std::array<index_t, kMaxDim> alloc_size() const;
  /// Total allocated grid points.
  std::size_t alloc_points() const;
  /// Linear offset of interior point (i, j, k), component 0.
  std::ptrdiff_t offset_of(index_t i, index_t j, index_t k) const;
  /// Strides (in elements of T) per dimension and per component.
  std::ptrdiff_t stride(int d) const { return stride_[d]; }
  std::ptrdiff_t comp_stride() const { return 1; }  // components interleaved

  virtual void* raw() = 0;
  virtual const void* raw() const = 0;
  /// Copies one grid point's components to/from a contiguous buffer.
  virtual void pack_point(index_t i, index_t j, index_t k, void* out) const = 0;
  virtual void unpack_point(index_t i, index_t j, index_t k,
                            const void* in) = 0;
  virtual DatBase& declare_like(Context& ctx, const Block& block,
                                std::array<index_t, kMaxDim> size) const = 0;

  /// Flush point for lazy execution: any direct access to the dataset's
  /// storage (at / raw / storage / to_vector, and halo transfers) first
  /// executes the owning context's queued loop chain, so the caller sees
  /// the same values eager execution would produce. Near-free when no
  /// chain is pending (one predictable branch).
  void touch() const {
    if (pending_ != nullptr && pending_->set) pending_->owner->flush();
  }
  /// Wires the dat to its owning context (called by Context::decl_dat);
  /// `pending` is the context's "lazy chain queued" flag.
  void attach_context(Context* ctx, const apl::chain::Pending* pending) {
    ctx_ = ctx;
    pending_ = pending;
  }
  /// The owning context (null only for hand-constructed test dats).
  Context* context() const { return ctx_; }

protected:
  Context* ctx_ = nullptr;
  const apl::chain::Pending* pending_ = nullptr;
  index_t id_;
  const Block* block_;
  index_t dim_;
  std::array<index_t, kMaxDim> size_;
  std::array<index_t, kMaxDim> d_m_;
  std::array<index_t, kMaxDim> d_p_;
  std::array<std::ptrdiff_t, kMaxDim> stride_{};
  std::size_t elem_bytes_;
  std::string name_;
};

/// Copies the box [i0, i1) x [j0, j1) of plane k = 0 of `src` into `dst`,
/// landing at (di, dj); either box may reach into its dat's halo. The dats
/// must be distinct and agree on dim() and elem_bytes(). raw() flushes each
/// dat's pending lazy chain once, then every row is one memcpy of
/// (i1 - i0) * dim * elem_bytes bytes: storage is x-fastest with
/// components interleaved, so a row of the box is contiguous. An empty box
/// copies nothing and flushes nothing.
void copy_rows(const DatBase& src, index_t i0, index_t i1, index_t j0,
               index_t j1, DatBase& dst, index_t di, index_t dj);

/// A typed dataset: `dim` components of T per grid point, stored
/// x-fastest with components interleaved, halo included.
template <class T>
class Dat final : public DatBase {
public:
  Dat(index_t id, const Block& block, index_t dim,
      std::array<index_t, kMaxDim> size, std::array<index_t, kMaxDim> d_m,
      std::array<index_t, kMaxDim> d_p, std::string name)
      : DatBase(id, block, dim, size, d_m, d_p, sizeof(T), std::move(name)),
        data_(alloc_points() * static_cast<std::size_t>(dim)) {}

  /// Pointer to component 0 of interior point (i, j, k); halo points are
  /// reached with negative / beyond-size indices. Flushes any queued lazy
  /// chain first, so direct reads observe up-to-date values.
  T* at(index_t i, index_t j = 0, index_t k = 0) {
    touch();
    return data_.data() + offset_of(i, j, k) * dim_;
  }
  const T* at(index_t i, index_t j = 0, index_t k = 0) const {
    touch();
    return data_.data() + offset_of(i, j, k) * dim_;
  }

  std::span<T> storage() {
    touch();
    return data_;
  }
  std::span<const T> storage() const {
    touch();
    return data_;
  }

  /// Copy of the full allocation (halos included), flushing first.
  std::vector<T> to_vector() const {
    touch();
    return std::vector<T>(data_.begin(), data_.end());
  }

  void* raw() override {
    touch();
    return data_.data();
  }
  const void* raw() const override {
    touch();
    return data_.data();
  }

  void pack_point(index_t i, index_t j, index_t k, void* out) const override {
    const T* p = at(i, j, k);
    T* o = static_cast<T*>(out);
    for (index_t d = 0; d < dim_; ++d) o[d] = p[d];
  }
  void unpack_point(index_t i, index_t j, index_t k,
                    const void* in) override {
    T* p = at(i, j, k);
    const T* s = static_cast<const T*>(in);
    for (index_t d = 0; d < dim_; ++d) p[d] = s[d];
  }
  DatBase& declare_like(Context& ctx, const Block& block,
                        std::array<index_t, kMaxDim> size) const override;

private:
  apl::aligned_vector<T> data_;
};

}  // namespace ops
