// Flat open-addressing hash map for the page directories on every hot path
// of the system (buffer-pool frame table, FaCE newest-version map, the
// frame store's index under LC).
//
// Design:
//   - power-of-two capacity, linear probing, splitmix64 key mixing;
//   - one flat slot array (key + POD value side by side): a lookup is one
//     cache line touch in the common case, no per-node allocation, no
//     pointer chasing — unlike std::unordered_map's bucket lists;
//   - tombstone-free deletion by backward shift: erasing compacts the
//     cluster in place, so probe lengths never degrade with churn and no
//     rehash-to-clean pass is ever needed;
//   - grows at 3/4 load (doubling); Reserve() up front makes steady-state
//     operation allocation-free for capacity-bounded directories.
//
// Invariants (checked by tests/page_map_test.cc):
//   - every stored key is findable by its probe sequence from Home(key)
//     with no empty slot in between (backward shift maintains this);
//   - size() == number of non-empty slots;
//   - kEmptyKey (== kInvalidPageId) is reserved and must never be inserted.
//
// Keys are PageId (or any uint64 id space that never uses ~0ull — extent
// numbers, txn ids). Values must be trivially copyable: slots move during
// rehash and backward-shift, so value pointers returned by Find/TryEmplace
// are invalidated by any mutating call.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace face {

template <typename V>
class PageMap {
  static_assert(std::is_trivially_copyable<V>::value,
                "PageMap values move by memcpy during rehash/backward-shift");

 public:
  /// Reserved key marking an empty slot; never insertable.
  static constexpr PageId kEmptyKey = kInvalidPageId;

  struct Slot {
    PageId key;
    V value;
  };

  PageMap() = default;
  explicit PageMap(size_t expected) { Reserve(expected); }

  PageMap(PageMap&&) = default;
  PageMap& operator=(PageMap&&) = default;
  PageMap(const PageMap&) = delete;
  PageMap& operator=(const PageMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Current slot-array capacity (power of two; 0 before first insert).
  size_t capacity() const { return capacity_; }

  /// Pointer to the value for `key`, or null. Stable only until the next
  /// mutating call.
  V* Find(PageId key) {
    if (size_ == 0) return nullptr;
    size_t i = Home(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
      i = Next(i);
    }
  }
  const V* Find(PageId key) const {
    return const_cast<PageMap*>(this)->Find(key);
  }

  bool Contains(PageId key) const { return Find(key) != nullptr; }

  /// Insert `value` under `key` if absent. Returns {value slot, inserted};
  /// when the key already exists the stored value is left untouched.
  std::pair<V*, bool> TryEmplace(PageId key, const V& value) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > capacity_ * 3) Grow();
    size_t i = Home(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == kEmptyKey) {
        s.key = key;
        s.value = value;
        ++size_;
        return {&s.value, true};
      }
      i = Next(i);
    }
  }

  /// Insert or overwrite; returns the stored value slot.
  V* InsertOrAssign(PageId key, const V& value) {
    auto [slot, inserted] = TryEmplace(key, value);
    if (!inserted) *slot = value;
    return slot;
  }

  /// Value for `key`, default-constructing it if absent (the counter-map
  /// idiom: ++map[k]).
  V& operator[](PageId key) { return *TryEmplace(key, V()).first; }

  /// Remove `key`; false if absent. Backward-shift compaction: subsequent
  /// cluster entries whose probe path crosses the hole slide back, so no
  /// tombstone is ever left behind.
  bool Erase(PageId key) {
    if (size_ == 0) return false;
    size_t i = Home(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmptyKey) return false;
      if (s.key == key) break;
      i = Next(i);
    }
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = Next(j);
      const Slot& cand = slots_[j];
      if (cand.key == kEmptyKey) break;
      // `cand` may fill the hole iff the hole lies on its probe path,
      // i.e. Home(cand) is cyclically at or before the hole:
      //   dist(home -> j) >= dist(hole -> j).
      const size_t home = Home(cand.key);
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = cand;
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Drop every entry; keeps the slot array.
  void Clear() {
    for (size_t i = 0; i < capacity_; ++i) slots_[i].key = kEmptyKey;
    size_ = 0;
  }

  /// Pre-size for `expected` entries so steady-state inserts never rehash.
  void Reserve(size_t expected) {
    size_t want = kMinCapacity;
    while (expected * 4 > want * 3) want *= 2;
    if (want > capacity_) Rehash(want);
  }

  /// Visit every entry as fn(PageId, V&) in unspecified (slot) order. The
  /// callback must not mutate the map; callers needing a deterministic
  /// order collect keys and sort (see BufferPool::SnapshotResidentPages).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].key != kEmptyKey) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].key != kEmptyKey) {
        fn(slots_[i].key, static_cast<const V&>(slots_[i].value));
      }
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t mask() const { return capacity_ - 1; }
  size_t Next(size_t i) const { return (i + 1) & mask(); }
  size_t Home(PageId key) const { return Mix(key) & mask(); }

  /// splitmix64 finalizer: full-avalanche mixing so adversarial id patterns
  /// (fixed strides, aligned extents) cannot create probe clusters.
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void Grow() { Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2); }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const size_t old_capacity = capacity_;
    slots_ = std::make_unique<Slot[]>(new_capacity);
    capacity_ = new_capacity;
    for (size_t i = 0; i < new_capacity; ++i) slots_[i].key = kEmptyKey;
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key == kEmptyKey) continue;
      size_t j = Home(old[i].key);
      while (slots_[j].key != kEmptyKey) j = Next(j);
      slots_[j] = old[i];
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace face
