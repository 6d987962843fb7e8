// InlineArray<T, Bytes>: an array whose length is fixed when it is
// built, with its elements inside the object while they fit in `Bytes`
// bytes and in one heap block beyond that.
//
// It lets a record of a few short arrays be one contiguous object: a
// copy of the record is then one copy, and a HazardCell node holding it
// is one allocation. The budget is in bytes, not elements, so a large T
// spills to the heap instead of bloating every object. Only the used
// elements are ever constructed, so building or copying an array costs
// its length, not its budget. Copy-assignment between arrays of the
// same length copies just those elements and never allocates, so a
// recycled node is rewritten in place.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace compreg {

template <typename T, std::size_t Bytes>
class InlineArray {
 public:
  // Elements stored in the object; a longer array spills.
  static constexpr std::size_t kInline = Bytes / sizeof(T);

  InlineArray() = default;
  InlineArray(std::size_t n, const T& value) {
    build(n, [&](T* p) { std::uninitialized_fill_n(p, n, value); });
  }
  InlineArray(const InlineArray& other) {
    build(other.size_, [&](T* p) {
      std::uninitialized_copy_n(other.data(), other.size_, p);
    });
  }
  InlineArray(InlineArray&& other) noexcept { take(other); }
  ~InlineArray() { release(); }

  InlineArray& operator=(const InlineArray& other) {
    if (size_ == other.size_) {
      std::copy_n(other.data(), size_, data());
    } else {
      *this = InlineArray(other);
    }
    return *this;
  }
  InlineArray& operator=(InlineArray&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool spilled() const { return heap_ != nullptr; }

  T* data() { return heap_ ? heap_ : std::launder(inline_storage()); }
  const T* data() const {
    return heap_ ? heap_
                 : std::launder(reinterpret_cast<const T*>(inline_.data()));
  }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

 private:
  T* inline_storage() { return reinterpret_cast<T*>(inline_.data()); }

  // Makes this empty array hold n elements that construct(p) builds in
  // raw storage at p; a spilled block is freed again if that throws.
  template <typename F>
  void build(std::size_t n, F&& construct) {
    const bool spill = n > kInline;
    T* p = spill ? std::allocator<T>().allocate(n) : inline_storage();
    try {
      construct(p);
    } catch (...) {
      if (spill) std::allocator<T>().deallocate(p, n);
      throw;
    }
    heap_ = spill ? p : nullptr;
    size_ = static_cast<std::uint32_t>(n);
  }

  // Destroys the elements and frees a spilled block, leaving it empty.
  void release() {
    if (size_ == 0) return;
    std::destroy_n(data(), size_);
    if (heap_ != nullptr) std::allocator<T>().deallocate(heap_, size_);
    heap_ = nullptr;
    size_ = 0;
  }

  // Moves `other`'s elements (a spilled block as is) into this empty
  // array and leaves `other` empty.
  void take(InlineArray& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      size_ = std::exchange(other.size_, 0);
    } else {
      std::uninitialized_move_n(other.data(), other.size_, inline_storage());
      size_ = other.size_;
      other.release();
    }
  }

  T* heap_ = nullptr;  // owned; null iff the elements are inline
  std::uint32_t size_ = 0;
  // Raw storage: only the first size_ elements are ever constructed.
  alignas(T) std::array<std::byte, kInline * sizeof(T)> inline_;
};

}  // namespace compreg
