// BindingTable: the columnar result of a conjunctive-query evaluation.
//
// One arity-strided SymbolId arena holds every distinct binding of the
// projected variables; a row is a TupleView span into it, never an owned
// per-row vector. Dedupe probes the arena through a SpanIndex with keys
// assembled in caller scratch, so producing OR merging results performs
// zero per-binding heap allocation — the arena grows amortized, and that
// growth is the only allocation the table ever makes.
//
// This is the currency of the grounding hot path: QueryEvaluator fills
// one table per rule condition (first occurrence wins), and
// MergeRuleGroundings resolves rule references straight off the rows,
// reusing each row's memoized hash. ToTuples() exists for
// cold consumers and tests; it counts every row it materializes against
// storage_stats::EvalResultAllocCount, so a per-binding Tuple path that
// creeps back into grounding shows up as a nonzero warm-pass counter.
// CAVEAT: row(r).ToTuple() bypasses the counter (TupleView::ToTuple is a
// generic storage op — node interning legitimately materializes through
// it) — when peeling bindings off a table, always go through ToTuples().

#ifndef CARL_RELATIONAL_BINDING_TABLE_H_
#define CARL_RELATIONAL_BINDING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "guard/guard.h"
#include "relational/span_index.h"
#include "relational/storage_stats.h"
#include "relational/tuple.h"

namespace carl {

class BindingTable {
  // Probe accessor: resolve a stored row id back to its arena span.
  // (Declared first so the auto-free functor is defined before use.)
  struct KeyAccessor {
    const BindingTable* table;
    TupleView operator()(uint32_t id) const {
      return TupleView(
          table->data_.data() + static_cast<size_t>(id) * table->arity_,
          table->arity_);
    }
  };
  KeyAccessor KeyOf() const { return KeyAccessor{this}; }

 public:
  BindingTable() = default;
  explicit BindingTable(size_t arity) : arity_(arity) {}

  /// Width of every row (the projected variable count). Arity-0 tables
  /// are legal: an atom-less query yields one empty binding.
  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  TupleView row(size_t r) const {
    return TupleView(data_.data() + r * arity_, arity_);
  }
  /// Whole-table view. NOTE: RelationView iteration degenerates for
  /// arity-0 tables (stride 0); index with row(r) on hot paths.
  RelationView rows() const {
    return RelationView(data_.data(), arity_, num_rows_);
  }

  void Reserve(size_t rows) {
    const size_t cap_before = data_.capacity();
    const size_t hash_cap_before = row_hashes_.capacity();
    data_.reserve(rows * arity_);
    row_hashes_.reserve(rows);
    size_t grown_bytes =
        (data_.capacity() - cap_before) * sizeof(SymbolId) +
        (row_hashes_.capacity() - hash_cap_before) * sizeof(uint64_t);
    if (grown_bytes != 0) guard::OnArenaGrowth(grown_bytes);
    index_.Reserve(rows, KeyOf());
  }

  /// Heap footprint of the binding arena in bytes (capacity, so it
  /// reflects what the table actually pins — including the per-row hash
  /// memo). Used by cache byte budgets.
  size_t arena_bytes() const {
    return data_.capacity() * sizeof(SymbolId) +
           row_hashes_.capacity() * sizeof(uint64_t);
  }

  /// Appends `vals[0..arity)` if no equal row is present; returns whether
  /// the row was inserted. Rows keep first-occurrence order.
  bool InsertDistinct(const SymbolId* vals) {
    const uint64_t hash = HashSpan(vals, arity_);
    if (index_.Find(TupleView(vals, arity_), hash, KeyOf()) !=
        SpanIndex::kNpos) {
      return false;
    }
    storage_stats::CountGrowth(data_, arity_);
    // Arena growth is the only allocation the table makes; it is where
    // the guard's byte budget is charged and its arena fault site sits.
    const size_t cap_before = data_.capacity();
    const size_t hash_cap_before = row_hashes_.capacity();
    data_.insert(data_.end(), vals, vals + arity_);
    row_hashes_.push_back(hash);
    size_t grown_bytes =
        (data_.capacity() - cap_before) * sizeof(SymbolId) +
        (row_hashes_.capacity() - hash_cap_before) * sizeof(uint64_t);
    if (grown_bytes != 0) guard::OnArenaGrowth(grown_bytes);
    index_.Insert(num_rows_++, hash, KeyOf());
    return true;
  }
  bool InsertDistinct(TupleView v) { return InsertDistinct(v.data()); }

  /// The memoized grounding-key hash of row `r` — the exact HashSpan of
  /// the row, computed once at insert. The grounding merge interns
  /// identity refs with it instead of re-hashing.
  uint64_t row_hash(size_t r) const { return row_hashes_[r]; }

  /// True if an equal row is present. Allocation-free span probe — this
  /// is how consumers (e.g. the unit table's WHERE-filter source set)
  /// membership-test arena keys without owning any Tuple.
  bool Contains(TupleView v) const {
    return index_.Find(v, v.Hash(), KeyOf()) != SpanIndex::kNpos;
  }

  /// Materializes owned Tuples (cold paths and tests only); each row is
  /// one heap allocation, counted as an evaluator-result allocation.
  std::vector<Tuple> ToTuples() const {
    std::vector<Tuple> out;
    out.reserve(num_rows_);
    for (uint32_t r = 0; r < num_rows_; ++r) {
      storage_stats::CountEvalResultAlloc();
      const SymbolId* p = data_.data() + static_cast<size_t>(r) * arity_;
      out.emplace_back(p, p + arity_);
    }
    return out;
  }

 private:
  size_t arity_ = 0;
  std::vector<SymbolId> data_;
  std::vector<uint64_t> row_hashes_;  // row r's HashSpan, memoized
  SpanIndex index_;
  uint32_t num_rows_ = 0;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_BINDING_TABLE_H_
