// Instance: an observed relational instance over a Schema (paper §3.1).
//
// Holds the relational skeleton ∆ (ground entity/relationship tuples with
// interned constants) plus the grounded attribute functions — a partial map
// (attribute, tuple) -> Value. Unobserved attributes simply have no entries.
//
// Storage layout (the grounding hot path is memory-bound, so the layout is
// the design):
//   * Each relation is ONE arity-strided SymbolId arena; a row is a span
//     into it (TupleView), never a per-row heap vector.
//   * Fact dedupe is an open-addressed SpanIndex of row ids probing the
//     arena directly — no owned key tuples, no dead payload.
//   * Attribute values are dense per-attribute columns keyed by row id
//     (value index per row + insertion-ordered value vector); tuples that
//     are not facts of the attribute's predicate fall back to a tiny
//     overflow map that is empty in practice.
//   * Match indexes are posting lists: one row-id list per distinct key,
//     all packed into one ListStore arena, plus an open-addressed key
//     table probed with a span hash. Match returns a span over one list
//     and never materializes anything. An index is built in one counting
//     pass per (predicate, position set) that lays each list out at its
//     count; appended facts extend only their keys' lists.
//
// Index builds are lazily triggered and serialized behind a shared_mutex,
// so concurrent query evaluation over one instance is safe; concurrent
// mutation is not.

#ifndef CARL_RELATIONAL_INSTANCE_H_
#define CARL_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "relational/list_store.h"
#include "relational/schema.h"
#include "relational/span_index.h"
#include "relational/tuple.h"

namespace carl {

/// What changed in an Instance between two generations, as reported by
/// Instance::DeltaSince. Facts are append-only, so a predicate's delta is
/// fully described by a row watermark: rows [watermark, NumRows) are
/// exactly the facts added in the window. Attribute writes are reported
/// as touched row ids (sorted, deduplicated); writes that landed in the
/// overflow map (no matching fact at write time) only set the per-
/// attribute `overflow` flag — consumers that cannot reason about
/// overflow tuples fall back to a full rebuild.
struct InstanceDelta {
  /// False when `since` predates the retained log window — the events
  /// were trimmed and the delta below is NOT a complete description of
  /// the change; consumers must fall back to a full rebuild.
  bool complete = false;
  uint64_t from_generation = 0;
  uint64_t to_generation = 0;
  /// Interned-constant count at (or conservatively below) the `from`
  /// generation: a constant id >= this watermark was interned inside the
  /// window.
  size_t prev_num_constants = 0;

  /// Per predicate that gained facts: prior row count (the watermark).
  struct FactDelta {
    PredicateId predicate = kInvalidPredicate;
    uint32_t prior_rows = 0;
  };
  std::vector<FactDelta> facts;

  /// Per attribute written in the window.
  struct AttributeDelta {
    AttributeId attribute = kInvalidAttribute;
    std::vector<uint32_t> rows;  // touched fact rows, sorted + deduped
    bool overflow = false;       // some write targeted a non-fact tuple
  };
  std::vector<AttributeDelta> attributes;
};

class Instance {
 public:
  static constexpr uint32_t kNoRow = SpanIndex::kNpos;

  explicit Instance(const Schema* schema);

  const Schema& schema() const { return *schema_; }

  /// Interns a constant name to its SymbolId (shared across predicates).
  SymbolId Intern(const std::string& constant) {
    return interner_.Intern(constant);
  }
  /// Name of an interned constant.
  const std::string& ConstantName(SymbolId id) const {
    return interner_.ToString(id);
  }
  /// Id of a constant, or kInvalidSymbol if unseen.
  SymbolId LookupConstant(const std::string& constant) const {
    return interner_.Lookup(constant);
  }

  /// Adds a ground fact P(c1, ..., ck) by constant names. Duplicates are
  /// ignored. Fails if the predicate is unknown or the arity mismatches.
  Status AddFact(const std::string& predicate,
                 const std::vector<std::string>& constants);
  /// Zero-copy fast path for generators: appends the span to the
  /// relation's arena (dedupe by span hash, no Tuple built).
  Status AddFactSpan(PredicateId predicate, const SymbolId* args, size_t n);

  /// Sets A[args] = value (by constant names). Fails on unknown attribute
  /// or arity mismatch with the attribute's predicate.
  Status SetAttribute(const std::string& attribute,
                      const std::vector<std::string>& constants, Value value);
  /// Fast path by ids. The args must be a ground tuple of the attribute's
  /// predicate (tuples that are not facts are kept in a side map).
  Status SetAttributeIds(AttributeId attribute, const Tuple& args,
                         Value value) {
    return SetAttributeSpan(attribute, args.data(), args.size(),
                            std::move(value));
  }
  Status SetAttributeSpan(AttributeId attribute, const SymbolId* args,
                          size_t n, Value value);

  /// A[args], or nullopt if unset (unobserved or missing).
  std::optional<Value> GetAttribute(AttributeId attribute,
                                    const Tuple& args) const {
    const Value* v = FindAttributeValue(attribute, args.data(), args.size());
    if (v == nullptr) return std::nullopt;
    return *v;
  }
  /// Allocation-free probe: pointer to the stored value or nullptr. The
  /// pointer is valid until the next attribute write.
  const Value* FindAttributeValue(AttributeId attribute, const SymbolId* args,
                                  size_t n) const;

  /// Typed view of one attribute's numeric values, keyed by row id of the
  /// attribute's predicate: values[r] is meaningful only where
  /// present[r] != 0 (a numeric value is set for fact row r); rows at or
  /// beyond num_rows are absent. Maintained alongside the Value column on
  /// every write, so bulk consumers (the grounding value pass) read
  /// doubles straight off the column instead of probing FindAttributeValue
  /// per row. When `may_overflow` is set, the attribute also has values
  /// keyed by non-fact tuples (or set before their fact existed) in the
  /// overflow map — absent rows then require a FindAttributeValue
  /// fallback for full lookup semantics. Pointers are invalidated by the
  /// next attribute write.
  struct NumericColumn {
    const double* values = nullptr;
    const uint8_t* present = nullptr;
    size_t num_rows = 0;
    bool may_overflow = false;
  };
  NumericColumn NumericColumnOf(AttributeId attribute) const;

  /// All ground tuples of `predicate`, in insertion order, as a view over
  /// the relation's arena. The view is invalidated by fact insertion.
  RelationView Rows(PredicateId predicate) const;
  size_t NumRows(PredicateId predicate) const {
    return Rows(predicate).size();
  }

  /// Row id of a ground tuple of `predicate`, or kNoRow.
  uint32_t FindRow(PredicateId predicate, const SymbolId* args,
                   size_t n) const;

  /// All (tuple, value) pairs set for an attribute, in insertion order
  /// (materialized snapshot; iteration-safe under concurrent writes from
  /// the same thread).
  std::vector<std::pair<Tuple, Value>> AttributeEntries(
      AttributeId attribute) const;
  /// Number of values set for an attribute.
  size_t NumAttributeValues(AttributeId attribute) const;

  /// A cached index of `predicate` keyed on `positions`: Lookup returns
  /// the row ids whose values at `positions` equal the probed key (in
  /// row order), as a span over that key's posting list. An empty
  /// position set keys every row under the empty key. Safe to call from
  /// concurrent readers (builds are serialized internally); concurrent
  /// with AddFact/SetAttribute it is not. Fact insertion leaves the index
  /// stale rather than dropping it; the next MatchIndex repairs it in
  /// place by appending only the new rows to their keys' lists
  /// (ExtendIndex), so pointers stay valid but spans obtained before the
  /// insertion do not.
  class PositionIndex {
   public:
    RowIdSpan Lookup(const SymbolId* key, size_t n) const;

   private:
    friend class Instance;
    // Distinct-key id of `row`'s key at positions_ (assembled in `key`
    // scratch), interning an unseen key under the next dense id.
    uint32_t InternKey(const SymbolId* row, SymbolId* key);

    std::vector<int> positions_;
    std::vector<SymbolId> keys_;      // distinct keys, positions_.size()-strided
    SpanIndex table_;                 // key span -> distinct-key id
    ListStore<uint32_t> postings_;    // per key id: row ids in row order
    size_t num_rows_ = 0;             // rows indexed so far
  };
  const PositionIndex* MatchIndex(PredicateId predicate, const int* positions,
                                  size_t n) const;

  /// Row ids of `predicate` whose values at `positions` equal `key` (in
  /// the same order). Convenience wrapper over MatchIndex + Lookup.
  RowIdSpan Match(PredicateId predicate, const std::vector<int>& positions,
                  const Tuple& key) const;

  /// Total fact count across predicates.
  size_t TotalFacts() const;

  /// Mutation generation: bumped by every successful fact insertion and
  /// attribute write (including in-place value overwrites). Cached
  /// consumers (QuerySession) compare generations to detect staleness
  /// without scanning the data.
  uint64_t generation() const { return generation_; }

  /// Everything that changed since `generation` (a value previously read
  /// from generation()), aggregated from the instance's bounded mutation
  /// log. When `generation` predates the retained window the returned
  /// delta has complete == false and consumers must treat the change as
  /// arbitrary. A generation beyond the current one also reports
  /// incomplete (the caller's snapshot is from a different instance).
  InstanceDelta DeltaSince(uint64_t generation) const;

  /// Number of mutation events the log retains before trimming its oldest
  /// half. Deltas reaching past the trimmed floor report incomplete.
  static constexpr size_t kDeltaLogCapacity = size_t{1} << 18;

  size_t NumConstants() const { return interner_.size(); }

  /// The constant interner (for diagnostics/naming).
  const StringInterner& interner() const { return interner_; }

 private:
  // One predicate's rows: a single arity-strided arena.
  struct RelationStore {
    size_t arity = 1;
    size_t num_rows = 0;
    std::vector<SymbolId> data;

    TupleView row(uint32_t r) const {
      return TupleView(data.data() + static_cast<size_t>(r) * arity, arity);
    }
  };

  // One attribute's values, keyed by row id of its predicate.
  struct AttributeStore {
    std::vector<uint32_t> value_of_row;  // row id -> index into values
    std::vector<Value> values;           // insertion order
    std::vector<uint32_t> row_of_value;  // parallel to values
    // Typed shadow of the row-keyed values (sized with value_of_row):
    // numeric_present[r] iff row r holds a numeric value, whose double
    // form is numeric_of_row[r]. This is the column NumericColumnOf hands
    // to bulk readers.
    std::vector<double> numeric_of_row;
    std::vector<uint8_t> numeric_present;
    // Tuples set before (or without) the matching fact; empty in practice.
    std::unordered_map<Tuple, Value, TupleHash> overflow;
  };

  const PositionIndex* GetOrBuildIndex(PredicateId predicate,
                                       const int* positions, size_t n) const;
  static void BuildIndex(const RelationStore& rel, PositionIndex* index);
  // In-place repair of a stale index after append-only fact insertion:
  // hashes only rows beyond the indexed prefix and appends each to its
  // key's posting list (appended rows carry the highest ids, so every
  // list stays in row order). Caller holds index_mu_ exclusively.
  static void ExtendIndex(const RelationStore& rel, PositionIndex* index);

  // One logged mutation. Event i of delta_log_ is the transition from
  // generation (delta_floor_generation_ + i) to one past it — every
  // generation bump logs exactly one event, so the log is indexable by
  // generation arithmetic and events carry no generation field.
  struct DeltaEvent {
    enum Kind : uint8_t { kFact = 0, kAttribute = 1, kAttributeOverflow = 2 };
    uint8_t kind = kFact;
    int32_t id = 0;               // PredicateId or AttributeId
    uint32_t row = 0;             // fact/attribute row; unused for overflow
    uint32_t constants_after = 0; // interner size after the event
  };
  void LogDelta(DeltaEvent::Kind kind, int32_t id, uint32_t row);

  const Schema* schema_;
  StringInterner interner_;
  uint64_t generation_ = 0;
  std::vector<RelationStore> relations_;  // by PredicateId
  std::vector<SpanIndex> fact_set_;       // row-id dedupe, by PredicateId
  std::vector<AttributeStore> attribute_data_;  // by AttributeId

  // Bounded mutation log backing DeltaSince. When it outgrows
  // kDeltaLogCapacity the oldest half is trimmed (amortized O(1) per
  // event) and the floor advances; deltas past the floor are incomplete.
  std::vector<DeltaEvent> delta_log_;
  uint64_t delta_floor_generation_ = 0;   // generation before delta_log_[0]
  uint32_t delta_floor_constants_ = 0;    // interner size at the floor

  // Index cache: per predicate, one entry per distinct position list
  // (linear scan — the count is bounded by the query shapes, a handful).
  // unique_ptr keeps element addresses stable across cache growth.
  mutable std::vector<std::vector<std::unique_ptr<PositionIndex>>> indexes_;
  mutable std::shared_mutex index_mu_;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_INSTANCE_H_
