// ListStore: many append-only lists packed into one arena.
//
// Each list is a contiguous span of the arena with a capacity. Appending
// to a full list moves it to the arena's tail with double the capacity
// (a list that already ends at the tail grows in place); the slots it
// leaves behind are dead. When dead slots outnumber live elements, the
// arena compacts: every list is copied, in list order, to exactly its
// size. Compact() does the same on demand. Appends are amortized O(1),
// every list reads back in append order, and adding elements never
// rebuilds the lists it does not touch.
//
// The causal graph keeps its parent and child lists here, and every
// Instance match index its posting lists.
//
// Not thread-safe for writes; concurrent reads are safe. A pointer from
// data() is invalidated by the next AddList, AddLists, Append or Compact.

#ifndef CARL_RELATIONAL_LIST_STORE_H_
#define CARL_RELATIONAL_LIST_STORE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace carl {

template <typename T>
class ListStore {
 public:
  using ListId = uint32_t;

  size_t num_lists() const { return lists_.size(); }
  /// Elements across all lists.
  size_t live() const { return live_; }
  /// Arena slots: live elements, dead slots and unused list capacity.
  size_t slots() const { return arena_.size(); }

  /// Appends one empty list with room for `capacity` elements at the
  /// arena's tail and returns its id.
  ListId AddList(size_t capacity) {
    const size_t begin = arena_.size();
    CheckFits(begin + capacity);
    arena_.resize(begin + capacity);
    lists_.push_back(Slot{static_cast<uint32_t>(begin), 0});
    capacity_.push_back(static_cast<uint32_t>(capacity));
    return static_cast<ListId>(lists_.size() - 1);
  }

  /// Appends `count` empty lists without capacity.
  void AddLists(size_t count) {
    lists_.resize(lists_.size() + count,
                  Slot{static_cast<uint32_t>(arena_.size()), 0});
    capacity_.resize(lists_.size(), 0);
  }

  void Append(ListId list, T value) {
    if (lists_[list].size == capacity_[list]) Grow(list);
    Slot& slot = lists_[list];
    arena_[static_cast<size_t>(slot.begin) + slot.size++] = value;
    ++live_;
    if (dead_ > live_) Compact();
  }

  const T* data(ListId list) const {
    return arena_.data() + lists_[list].begin;
  }
  size_t size(ListId list) const { return lists_[list].size; }

  /// Copies every list, in list order, to exactly its size.
  void Compact() {
    std::vector<T> packed(live_);
    size_t at = 0;
    for (size_t l = 0; l < lists_.size(); ++l) {
      Slot& slot = lists_[l];
      std::copy_n(arena_.data() + slot.begin, slot.size, packed.data() + at);
      slot.begin = static_cast<uint32_t>(at);
      capacity_[l] = slot.size;
      at += slot.size;
    }
    arena_.swap(packed);
    dead_ = 0;
  }

 private:
  // A read touches one 8-byte slot; capacities, which only appends
  // need, live apart in capacity_.
  struct Slot {
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  static constexpr uint32_t kMinCapacity = 2;

  static void CheckFits(size_t arena_size) {
    CARL_CHECK(arena_size <= std::numeric_limits<uint32_t>::max())
        << "ListStore: arena exceeds 2^32 slots";
  }

  void Grow(ListId list) {
    Slot& slot = lists_[list];
    uint32_t& capacity = capacity_[list];
    const size_t grown = std::max<size_t>(2 * size_t{capacity}, kMinCapacity);
    if (size_t{slot.begin} + capacity == arena_.size()) {
      CheckFits(size_t{slot.begin} + grown);
      arena_.resize(size_t{slot.begin} + grown);
    } else {
      const size_t begin = arena_.size();
      CheckFits(begin + grown);
      arena_.resize(begin + grown);
      std::copy_n(arena_.data() + slot.begin, slot.size,
                  arena_.data() + begin);
      dead_ += capacity;
      slot.begin = static_cast<uint32_t>(begin);
    }
    capacity = static_cast<uint32_t>(grown);
  }

  std::vector<T> arena_;
  std::vector<Slot> lists_;
  std::vector<uint32_t> capacity_;
  size_t live_ = 0;
  size_t dead_ = 0;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_LIST_STORE_H_
