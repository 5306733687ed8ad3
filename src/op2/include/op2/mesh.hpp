// Sets, mappings and datasets — the OP2 mesh abstraction (paper Sec. II-A):
// (1) a number of sets (vertices, edges, cells...), (2) mappings between
// the sets, (3) data defined on the sets. The mesh is declared once, up
// front, and all data is handed over to the library, which is what enables
// partitioning, renumbering, layout transformation and checkpointing to be
// automatic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apl/aligned.hpp"
#include "apl/chain.hpp"
#include "apl/error.hpp"
#include "op2/access.hpp"

namespace op2 {

class Context;

using index_t = std::int32_t;

/// A set of mesh elements (only a size and a name; elements are anonymous).
class Set {
public:
  Set(index_t id, index_t size, std::string name, index_t core_size = -1)
      : id_(id), size_(size),
        core_size_(core_size < 0 ? size : core_size),
        name_(std::move(name)) {}

  index_t id() const { return id_; }
  /// Total elements, including any halo/ghost region (storage extent).
  index_t size() const { return size_; }
  /// Elements parallel loops iterate over. Equal to size() except in the
  /// per-rank sets of the distributed backend, where ghost copies are
  /// stored past the owned ("core") region but never executed.
  index_t core_size() const { return core_size_; }
  const std::string& name() const { return name_; }

  /// Padded size (multiple of 64 elements) used as the SoA stride so every
  /// component column starts cache-line/segment aligned.
  index_t capacity() const { return (size_ + 63) / 64 * 64; }

private:
  friend class Context;
  index_t id_;
  index_t size_;
  index_t core_size_;
  std::string name_;
};

/// A mapping from each element of `from` to `arity` elements of `to`
/// (e.g. edge -> 2 vertices). Immutable after declaration except through
/// renumbering, which the Context performs consistently across all maps.
class Map {
public:
  Map(index_t id, const Set& from, const Set& to, index_t arity,
      std::vector<index_t> table, std::string name);

  index_t id() const { return id_; }
  const Set& from() const { return *from_; }
  const Set& to() const { return *to_; }
  index_t arity() const { return arity_; }
  const std::string& name() const { return name_; }

  index_t at(index_t element, index_t idx) const {
    return table_[static_cast<std::size_t>(element) * arity_ + idx];
  }
  std::span<const index_t> row(index_t element) const {
    return {table_.data() + static_cast<std::size_t>(element) * arity_,
            static_cast<std::size_t>(arity_)};
  }
  std::span<const index_t> table() const { return table_; }

private:
  friend class Context;
  index_t id_;
  const Set* from_;
  const Set* to_;
  index_t arity_;
  std::vector<index_t> table_;
  std::string name_;
};

/// Type-erased base of all datasets; the Context machinery (checkpointing,
/// renumbering, layout transforms, distribution) works through this.
class DatBase {
public:
  DatBase(index_t id, const Set& set, index_t dim, std::size_t elem_bytes,
          std::string name)
      : id_(id), set_(&set), dim_(dim), elem_bytes_(elem_bytes),
        name_(std::move(name)) {}
  virtual ~DatBase() = default;

  index_t id() const { return id_; }
  const Set& set() const { return *set_; }
  index_t dim() const { return dim_; }
  std::size_t elem_bytes() const { return elem_bytes_; }
  const std::string& name() const { return name_; }
  Layout layout() const { return layout_; }

  /// Bytes of one set element's payload (dim components).
  std::size_t entry_bytes() const { return elem_bytes_ * dim_; }

  virtual void* raw() = 0;
  virtual const void* raw() const = 0;
  /// Copies element `e`'s dim components into/out of a contiguous buffer
  /// (layout-independent; used by distribution and checkpointing).
  virtual void pack_entry(index_t e, void* out) const = 0;
  virtual void unpack_entry(index_t e, const void* in) = 0;
  /// Adds a contiguous dim-component buffer into element e (Inc flush).
  virtual void add_entry(index_t e, const void* in) = 0;
  virtual void convert_layout(Layout target) = 0;
  /// Declares an uninitialized dat of the same type/dim/name on `set` in
  /// another context (used by the distributed layer to build rank replicas).
  virtual DatBase& declare_like(Context& ctx, const Set& set) const = 0;

  /// Raw data access is a lazy-chain flush point: any path that reads or
  /// writes dat memory directly (raw/storage/to_vector and the pack /
  /// unpack / add entry points distribution and checkpointing use) first
  /// drains the owning context's queued loops, so lazy execution is
  /// invisible to callers. Cheap when nothing is pending: one flag load.
  void touch() const {
    if (pending_ != nullptr && pending_->set) pending_->owner->flush();
  }
  /// Wired by Context::decl_dat; `pending` is the context's
  /// has-queued-work flag.
  void attach_context(Context* ctx, const apl::chain::Pending* pending) {
    ctx_ = ctx;
    pending_ = pending;
  }
  Context* context() const { return ctx_; }

protected:
  friend class Context;
  index_t id_;
  const Set* set_;
  index_t dim_;
  std::size_t elem_bytes_;
  std::string name_;
  Layout layout_ = Layout::kAoS;
  Context* ctx_ = nullptr;
  const apl::chain::Pending* pending_ = nullptr;
};

/// A typed dataset: dim components of T per element of a set.
template <class T>
class Dat final : public DatBase {
public:
  Dat(index_t id, const Set& set, index_t dim, std::span<const T> init,
      std::string name)
      : DatBase(id, set, dim, sizeof(T), std::move(name)),
        data_(static_cast<std::size_t>(set.capacity()) * dim) {
    apl::require(init.empty() ||
                     init.size() == static_cast<std::size_t>(set.size()) * dim,
                 "Dat '", name_, "': init data has ", init.size(),
                 " values, expected ", set.size(), " * ", dim);
    for (std::size_t i = 0; i < init.size(); ++i) data_[i] = init[i];
  }

  /// Pointer to component 0 of element e, honouring the current layout.
  T* entry(index_t e) {
    return layout_ == Layout::kAoS ? data_.data() + static_cast<std::size_t>(e) * dim_
                                   : data_.data() + e;
  }
  const T* entry(index_t e) const {
    return const_cast<Dat*>(this)->entry(e);
  }
  /// Stride between components of one element in the current layout.
  std::ptrdiff_t stride() const {
    return layout_ == Layout::kAoS ? 1 : set_->capacity();
  }

  void* raw() override {
    touch();
    return data_.data();
  }
  const void* raw() const override {
    touch();
    return data_.data();
  }

  void pack_entry(index_t e, void* out) const override {
    touch();
    T* o = static_cast<T*>(out);
    const T* p = entry(e);
    const std::ptrdiff_t s = stride();
    for (index_t d = 0; d < dim_; ++d) o[d] = p[d * s];
  }
  void unpack_entry(index_t e, const void* in) override {
    touch();
    const T* i = static_cast<const T*>(in);
    T* p = entry(e);
    const std::ptrdiff_t s = stride();
    for (index_t d = 0; d < dim_; ++d) p[d * s] = i[d];
  }
  void add_entry(index_t e, const void* in) override {
    touch();
    const T* i = static_cast<const T*>(in);
    T* p = entry(e);
    const std::ptrdiff_t s = stride();
    for (index_t d = 0; d < dim_; ++d) p[d * s] += i[d];
  }

  DatBase& declare_like(Context& ctx, const Set& set) const override;

  void convert_layout(Layout target) override {
    if (target == layout_) return;
    apl::aligned_vector<T> next(data_.size());
    const index_t cap = set_->capacity();
    for (index_t e = 0; e < set_->size(); ++e) {
      for (index_t d = 0; d < dim_; ++d) {
        const std::size_t aos = static_cast<std::size_t>(e) * dim_ + d;
        const std::size_t soa = static_cast<std::size_t>(d) * cap + e;
        if (target == Layout::kSoA) {
          next[soa] = data_[aos];
        } else {
          next[aos] = data_[soa];
        }
      }
    }
    data_ = std::move(next);
    layout_ = target;
  }

  /// Whole-array view in the *current layout* (size capacity*dim). Prefer
  /// entry()/stride() or span_of() below for element access.
  std::span<T> storage() {
    touch();
    return data_;
  }
  std::span<const T> storage() const {
    touch();
    return data_;
  }

  /// Copies out the logical content as AoS regardless of layout.
  std::vector<T> to_vector() const {
    touch();
    std::vector<T> out(static_cast<std::size_t>(set_->size()) * dim_);
    for (index_t e = 0; e < set_->size(); ++e) {
      pack_entry(e, out.data() + static_cast<std::size_t>(e) * dim_);
    }
    return out;
  }

private:
  apl::aligned_vector<T> data_;
};

}  // namespace op2
