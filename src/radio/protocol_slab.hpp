// Contiguous typed storage for per-node protocol state machines.
//
// A Network drives one NodeProtocol per vertex, and the Phase-1 loop
// calls on_transmit on every awake node that is due a poll (every round
// unless the protocol declares a quiet spell). With one
// individually heap-allocated protocol per node (the unique_ptr overload
// of Network::set_protocol), those calls chase n scattered allocations;
// a ProtocolSlab<T> instead placement-constructs all n protocols of a run
// back to back in one arena, so the round loop walks protocol state in
// address order. The slab owns the objects; the Network is handed plain
// non-owning pointers (the pointer overload of set_protocol) and the slab
// must outlive it.
//
// Storage never reallocates (capacity is fixed at construction), so
// pointers and references returned by emplace() are stable for the
// slab's lifetime — the property the Network wiring relies on.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

#include "common/assert.hpp"

namespace radiocast::radio {

/// Fixed-capacity placement-construction arena for one run's protocols.
template <typename T>
class ProtocolSlab {
 public:
  /// A slab with room for exactly `capacity` protocols.
  explicit ProtocolSlab(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ != 0) {
      storage_ = static_cast<T*>(
          ::operator new(capacity_ * sizeof(T), std::align_val_t(alignof(T))));
    }
  }

  ProtocolSlab(const ProtocolSlab&) = delete;
  ProtocolSlab& operator=(const ProtocolSlab&) = delete;

  ~ProtocolSlab() {
    for (std::size_t i = size_; i > 0; --i) storage_[i - 1].~T();
    if (storage_ != nullptr) {
      ::operator delete(storage_, std::align_val_t(alignof(T)));
    }
  }

  /// Constructs the next protocol in place and returns it. The reference
  /// stays valid until the slab is destroyed.
  template <typename... Args>
  T& emplace(Args&&... args) {
    RC_ASSERT_MSG(size_ < capacity_, "ProtocolSlab capacity exhausted");
    T* slot = new (storage_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// The i-th constructed protocol (bounds-checked in debug builds).
  T& operator[](std::size_t i) {
    RC_DCHECK(i < size_);
    return storage_[i];
  }
  const T& operator[](std::size_t i) const {
    RC_DCHECK(i < size_);
    return storage_[i];
  }

  /// Protocols constructed so far.
  std::size_t size() const { return size_; }
  /// Fixed construction-time capacity (storage never reallocates).
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  T* storage_ = nullptr;
};

}  // namespace radiocast::radio
