// SpanIndex: a linear-probing open-addressed hash table over externally
// stored SymbolId-span keys.
//
// The table stores only 32-bit ids; the keys themselves live wherever the
// caller keeps them (a relation arena, a graph's node list, a distinct-key
// arena). Every probe resolves an id back to its key through a caller-
// supplied accessor, so one index implementation serves the instance fact
// sets, the match indexes, the causal-graph node interner, and the
// evaluator's result dedupe — all without owning a single heap-allocated
// key. Probes take a raw (pointer, length) span: hot loops hash stack
// scratch buffers and never materialize a Tuple.
//
// Not thread-safe for writes; concurrent Find calls are safe.

#ifndef CARL_RELATIONAL_SPAN_INDEX_H_
#define CARL_RELATIONAL_SPAN_INDEX_H_

#include <cstdint>
#include <vector>

#include "relational/tuple.h"

namespace carl {

class SpanIndex {
 public:
  static constexpr uint32_t kNpos = 0xFFFFFFFFu;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the slot array for `n` insertions.
  template <typename GetKey>
  void Reserve(size_t n, const GetKey& get) {
    size_t want = 16;
    while (want * 3 < n * 4) want <<= 1;  // keep load factor <= 0.75
    if (want > slots_.size()) Rehash(want, get);
  }

  /// Id of the entry whose key equals `key`, or kNpos. `get(id)` must
  /// return the TupleView of a stored id.
  template <typename GetKey>
  uint32_t Find(TupleView key, uint64_t hash, const GetKey& get) const {
    if (slots_.empty()) return kNpos;
    size_t i = hash & mask_;
    while (true) {
      uint32_t id = slots_[i];
      if (id == kNpos) return kNpos;
      if (get(id) == key) return id;
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `id` (whose key hashes to `hash`). The key must not already
  /// be present — pair with Find. Grows at 3/4 load.
  template <typename GetKey>
  void Insert(uint32_t id, uint64_t hash, const GetKey& get) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? 16 : slots_.size() * 2, get);
    }
    Place(id, hash);
    ++size_;
  }

 private:
  void Place(uint32_t id, uint64_t hash) {
    size_t i = hash & mask_;
    while (slots_[i] != kNpos) i = (i + 1) & mask_;
    slots_[i] = id;
  }

  template <typename GetKey>
  void Rehash(size_t new_slots, const GetKey& get) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(new_slots, kNpos);
    mask_ = new_slots - 1;
    for (uint32_t id : old) {
      if (id != kNpos) Place(id, get(id).Hash());
    }
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_SPAN_INDEX_H_
