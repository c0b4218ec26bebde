#include "relational/instance.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "common/str_util.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {

Instance::Instance(const Schema* schema) : schema_(schema) {
  CARL_CHECK(schema != nullptr);
  relations_.resize(schema->num_predicates());
  fact_set_.resize(schema->num_predicates());
  attribute_data_.resize(schema->num_attributes());
  indexes_.resize(schema->num_predicates());
  for (size_t p = 0; p < relations_.size(); ++p) {
    int arity = schema->predicate(static_cast<PredicateId>(p)).arity();
    CARL_CHECK(arity >= 1) << "zero-arity predicates are not storable";
    relations_[p].arity = static_cast<size_t>(arity);
  }
}

Status Instance::AddFact(const std::string& predicate,
                         const std::vector<std::string>& constants) {
  CARL_ASSIGN_OR_RETURN(PredicateId pid, schema_->FindPredicate(predicate));
  SymbolScratch args(constants.size());
  for (size_t i = 0; i < constants.size(); ++i) args[i] = Intern(constants[i]);
  return AddFactSpan(pid, args.data(), constants.size());
}

Status Instance::AddFactSpan(PredicateId predicate, const SymbolId* args,
                             size_t n) {
  const Predicate& p = schema_->predicate(predicate);
  if (static_cast<int>(n) != p.arity()) {
    return Status::InvalidArgument(
        StrFormat("fact for %s has arity %zu, expected %d", p.name.c_str(), n,
                  p.arity()));
  }
  RelationStore& rel = relations_[predicate];
  uint64_t hash = HashSpan(args, n);
  auto key_of = [&rel](uint32_t id) { return rel.row(id); };
  SpanIndex& dedupe = fact_set_[predicate];
  if (dedupe.Find(TupleView(args, n), hash, key_of) != SpanIndex::kNpos) {
    return Status::OK();  // duplicate fact
  }
  rel.data.insert(rel.data.end(), args, args + n);
  uint32_t id = static_cast<uint32_t>(rel.num_rows++);
  dedupe.Insert(id, hash, key_of);
  // Cached match indexes are NOT invalidated here: rows are append-only,
  // so every index is repaired lazily by ExtendIndex on its next
  // MatchIndex — hashing only the rows appended since it was built. This
  // keeps the first post-mutation delta evaluation proportional to the
  // delta, not to the relation.
  LogDelta(DeltaEvent::kFact, predicate, id);
  ++generation_;
  return Status::OK();
}

Status Instance::SetAttribute(const std::string& attribute,
                              const std::vector<std::string>& constants,
                              Value value) {
  CARL_ASSIGN_OR_RETURN(AttributeId aid, schema_->FindAttribute(attribute));
  SymbolScratch args(constants.size());
  for (size_t i = 0; i < constants.size(); ++i) args[i] = Intern(constants[i]);
  return SetAttributeSpan(aid, args.data(), constants.size(),
                          std::move(value));
}

Status Instance::SetAttributeSpan(AttributeId attribute, const SymbolId* args,
                                  size_t n, Value value) {
  const AttributeDef& a = schema_->attribute(attribute);
  const Predicate& p = schema_->predicate(a.predicate);
  if (static_cast<int>(n) != p.arity()) {
    return Status::InvalidArgument(
        StrFormat("attribute %s takes %d args, got %zu", a.name.c_str(),
                  p.arity(), n));
  }
  AttributeStore& store = attribute_data_[attribute];
  uint32_t row = FindRow(a.predicate, args, n);
  if (row == kNoRow) {
    // Not a fact (yet): keep the value keyed by an owned tuple.
    store.overflow[Tuple(args, args + n)] = std::move(value);
    LogDelta(DeltaEvent::kAttributeOverflow, attribute, 0);
  } else {
    if (store.value_of_row.size() <= row) {
      size_t rows = relations_[a.predicate].num_rows;
      store.value_of_row.resize(rows, kNoRow);
      store.numeric_of_row.resize(rows, 0.0);
      store.numeric_present.resize(rows, 0);
    }
    // The typed shadow column mirrors every row-keyed write.
    store.numeric_present[row] = value.is_numeric() ? 1 : 0;
    store.numeric_of_row[row] = value.is_numeric() ? value.AsDouble() : 0.0;
    uint32_t& slot = store.value_of_row[row];
    if (slot == kNoRow) {
      slot = static_cast<uint32_t>(store.values.size());
      store.values.push_back(std::move(value));
      store.row_of_value.push_back(row);
    } else {
      store.values[slot] = std::move(value);
    }
    // A value set before its fact existed lives in overflow; the row-keyed
    // write supersedes it.
    if (!store.overflow.empty()) store.overflow.erase(Tuple(args, args + n));
    LogDelta(DeltaEvent::kAttribute, attribute, row);
  }
  ++generation_;
  return Status::OK();
}

void Instance::LogDelta(DeltaEvent::Kind kind, int32_t id, uint32_t row) {
  if (delta_log_.size() >= kDeltaLogCapacity) {
    // Trim the oldest half; the floor advances past the trimmed events.
    size_t drop = delta_log_.size() / 2;
    delta_floor_generation_ += drop;
    delta_floor_constants_ = delta_log_[drop - 1].constants_after;
    delta_log_.erase(delta_log_.begin(),
                     delta_log_.begin() + static_cast<ptrdiff_t>(drop));
  }
  DeltaEvent event;
  event.kind = kind;
  event.id = id;
  event.row = row;
  event.constants_after = static_cast<uint32_t>(interner_.size());
  delta_log_.push_back(event);
  // Fault site: drop the whole window, INCLUDING the event just logged,
  // as if capacity trims had advanced the floor past this mutation. Any
  // session grounded at an earlier generation now sees an incomplete
  // delta and must fall back to a full re-ground (WARN +
  // delta_log_trimmed), which is the degradation under test.
  if (guard::FaultFired("instance.delta_trim")) {
    delta_floor_generation_ += delta_log_.size();
    delta_floor_constants_ = delta_log_.back().constants_after;
    delta_log_.clear();
  }
}

InstanceDelta Instance::DeltaSince(uint64_t generation) const {
  InstanceDelta delta;
  delta.from_generation = generation;
  delta.to_generation = generation_;
  if (generation > generation_ || generation < delta_floor_generation_) {
    return delta;  // incomplete: foreign snapshot or trimmed window
  }
  delta.complete = true;
  size_t first = static_cast<size_t>(generation - delta_floor_generation_);
  CARL_CHECK(delta_log_.size() >= first)
      << "delta log out of sync with generation counter";
  // Interned-constant watermark at the `from` generation. Constants
  // interned without a logged mutation (bare Intern calls) make this
  // conservative — they read as "new", never as stale-old.
  delta.prev_num_constants =
      first == 0 ? delta_floor_constants_
                 : delta_log_[first - 1].constants_after;

  // Aggregate the event suffix. Per-predicate watermark = the row id of
  // the first new fact (rows append sequentially). Attribute rows are
  // collected then sorted + deduped.
  std::vector<int> fact_seen(relations_.size(), -1);
  std::vector<int> attr_seen(attribute_data_.size(), -1);
  for (size_t i = first; i < delta_log_.size(); ++i) {
    const DeltaEvent& e = delta_log_[i];
    if (e.kind == DeltaEvent::kFact) {
      int& slot = fact_seen[e.id];
      if (slot < 0) {
        slot = static_cast<int>(delta.facts.size());
        delta.facts.push_back(
            InstanceDelta::FactDelta{static_cast<PredicateId>(e.id), e.row});
      }
    } else {
      int& slot = attr_seen[e.id];
      if (slot < 0) {
        slot = static_cast<int>(delta.attributes.size());
        InstanceDelta::AttributeDelta ad;
        ad.attribute = static_cast<AttributeId>(e.id);
        delta.attributes.push_back(std::move(ad));
      }
      InstanceDelta::AttributeDelta& ad = delta.attributes[slot];
      if (e.kind == DeltaEvent::kAttributeOverflow) {
        ad.overflow = true;
      } else {
        ad.rows.push_back(e.row);
      }
    }
  }
  for (InstanceDelta::AttributeDelta& ad : delta.attributes) {
    std::sort(ad.rows.begin(), ad.rows.end());
    ad.rows.erase(std::unique(ad.rows.begin(), ad.rows.end()),
                  ad.rows.end());
  }
  return delta;
}

const Value* Instance::FindAttributeValue(AttributeId attribute,
                                          const SymbolId* args,
                                          size_t n) const {
  CARL_CHECK(attribute >= 0 &&
             static_cast<size_t>(attribute) < attribute_data_.size());
  const AttributeStore& store = attribute_data_[attribute];
  const AttributeDef& a = schema_->attribute(attribute);
  uint32_t row = FindRow(a.predicate, args, n);
  if (row != kNoRow && row < store.value_of_row.size()) {
    uint32_t slot = store.value_of_row[row];
    if (slot != kNoRow) return &store.values[slot];
  }
  if (!store.overflow.empty()) {
    auto it = store.overflow.find(Tuple(args, args + n));
    if (it != store.overflow.end()) return &it->second;
  }
  return nullptr;
}

Instance::NumericColumn Instance::NumericColumnOf(
    AttributeId attribute) const {
  CARL_CHECK(attribute >= 0 &&
             static_cast<size_t>(attribute) < attribute_data_.size());
  const AttributeStore& store = attribute_data_[attribute];
  NumericColumn column;
  column.values = store.numeric_of_row.data();
  column.present = store.numeric_present.data();
  column.num_rows = store.numeric_present.size();
  column.may_overflow = !store.overflow.empty();
  return column;
}

RelationView Instance::Rows(PredicateId predicate) const {
  CARL_CHECK(predicate >= 0 &&
             static_cast<size_t>(predicate) < relations_.size());
  const RelationStore& rel = relations_[predicate];
  return RelationView(rel.data.data(), rel.arity, rel.num_rows);
}

uint32_t Instance::FindRow(PredicateId predicate, const SymbolId* args,
                           size_t n) const {
  const RelationStore& rel = relations_[predicate];
  if (n != rel.arity) return kNoRow;
  auto key_of = [&rel](uint32_t id) { return rel.row(id); };
  return fact_set_[predicate].Find(TupleView(args, n), HashSpan(args, n),
                                   key_of);
}

std::vector<std::pair<Tuple, Value>> Instance::AttributeEntries(
    AttributeId attribute) const {
  CARL_CHECK(attribute >= 0 &&
             static_cast<size_t>(attribute) < attribute_data_.size());
  const AttributeStore& store = attribute_data_[attribute];
  const AttributeDef& a = schema_->attribute(attribute);
  const RelationStore& rel = relations_[a.predicate];
  std::vector<std::pair<Tuple, Value>> entries;
  entries.reserve(store.values.size() + store.overflow.size());
  for (size_t i = 0; i < store.values.size(); ++i) {
    entries.emplace_back(rel.row(store.row_of_value[i]).ToTuple(),
                         store.values[i]);
  }
  for (const auto& [tuple, value] : store.overflow) {
    entries.emplace_back(tuple, value);
  }
  return entries;
}

size_t Instance::NumAttributeValues(AttributeId attribute) const {
  CARL_CHECK(attribute >= 0 &&
             static_cast<size_t>(attribute) < attribute_data_.size());
  const AttributeStore& store = attribute_data_[attribute];
  return store.values.size() + store.overflow.size();
}

RowIdSpan Instance::PositionIndex::Lookup(const SymbolId* key,
                                          size_t n) const {
  if (n != positions_.size() || table_.empty()) return RowIdSpan();
  auto key_of = [this](uint32_t id) {
    return TupleView(keys_.data() + static_cast<size_t>(id) * positions_.size(),
                     positions_.size());
  };
  uint32_t kid = table_.Find(TupleView(key, n), HashSpan(key, n), key_of);
  if (kid == SpanIndex::kNpos) return RowIdSpan();
  return RowIdSpan(postings_.data(kid), postings_.size(kid));
}

uint32_t Instance::PositionIndex::InternKey(const SymbolId* row,
                                            SymbolId* key) {
  const size_t stride = positions_.size();
  auto key_of = [this, stride](uint32_t id) {
    return TupleView(keys_.data() + static_cast<size_t>(id) * stride, stride);
  };
  for (size_t i = 0; i < stride; ++i) key[i] = row[positions_[i]];
  uint64_t hash = HashSpan(key, stride);
  uint32_t kid = table_.Find(TupleView(key, stride), hash, key_of);
  if (kid == SpanIndex::kNpos) {
    kid = static_cast<uint32_t>(table_.size());
    keys_.insert(keys_.end(), key, key + stride);
    table_.Insert(kid, hash, key_of);
  }
  return kid;
}

void Instance::BuildIndex(const RelationStore& rel, PositionIndex* index) {
  CARL_TRACE_SCOPE("instance.match_index_build");
  static obs::Counter& builds =
      obs::Registry::Global().GetCounter("instance.match_index_builds");
  builds.Increment();
  const size_t n = rel.num_rows;

  // Pass 1 (counting): assign each row its distinct-key id, appending
  // first-seen keys to the key arena. The table grows with the distinct-
  // key count (not the row count), so low-cardinality indexes — the
  // empty-position index has one key — stay small for the lifetime of
  // the cache.
  std::vector<uint32_t> row_kid(n);
  std::vector<uint32_t> counts;
  SymbolScratch key(index->positions_.size());
  for (uint32_t r = 0; r < n; ++r) {
    uint32_t kid = index->InternKey(
        rel.data.data() + static_cast<size_t>(r) * rel.arity, key.data());
    if (kid == counts.size()) counts.push_back(0);
    row_kid[r] = kid;
    ++counts[kid];
  }

  // Pass 2 (scatter): lay each key's list out at its count, then append
  // every row id to its key's list in row order.
  for (uint32_t count : counts) index->postings_.AddList(count);
  for (uint32_t r = 0; r < n; ++r) index->postings_.Append(row_kid[r], r);
  index->num_rows_ = n;
}

void Instance::ExtendIndex(const RelationStore& rel, PositionIndex* index) {
  const size_t old_n = index->num_rows_;
  const size_t n = rel.num_rows;
  if (old_n == n) return;  // raced extenders: first one already caught up
  CARL_TRACE_SCOPE("instance.match_index_repair");
  static obs::Counter& repairs =
      obs::Registry::Global().GetCounter("instance.match_index_repairs");
  repairs.Increment();
  // Only the appended rows are hashed and written: cost is O(delta), not
  // O(rows). They carry the highest row ids, so appending each to its
  // key's list keeps every list in row order — the invariant the delta
  // evaluator's watermark cut depends on.
  SymbolScratch key(index->positions_.size());
  for (uint32_t r = static_cast<uint32_t>(old_n); r < n; ++r) {
    uint32_t kid = index->InternKey(
        rel.data.data() + static_cast<size_t>(r) * rel.arity, key.data());
    if (kid == index->postings_.num_lists()) index->postings_.AddList(0);
    index->postings_.Append(kid, r);
  }
  index->num_rows_ = n;
}

const Instance::PositionIndex* Instance::GetOrBuildIndex(
    PredicateId predicate, const int* positions, size_t n) const {
  auto& per_pred = indexes_[predicate];
  const RelationStore& rel = relations_[predicate];
  auto matches = [&](const PositionIndex& index) {
    return index.positions_.size() == n &&
           std::equal(index.positions_.begin(), index.positions_.end(),
                      positions);
  };
  {
    std::shared_lock<std::shared_mutex> read_lock(index_mu_);
    for (const auto& index : per_pred) {
      // A stale index (rows appended since it was built) falls through to
      // the write path for an in-place repair.
      if (matches(*index) && index->num_rows_ == rel.num_rows) {
        return index.get();
      }
    }
  }
  std::unique_lock<std::shared_mutex> write_lock(index_mu_);
  for (const auto& index : per_pred) {  // raced builders: first one wins
    if (matches(*index)) {
      ExtendIndex(rel, index.get());
      return index.get();
    }
  }
  auto index = std::make_unique<PositionIndex>();
  index->positions_.assign(positions, positions + n);
  BuildIndex(relations_[predicate], index.get());
  per_pred.push_back(std::move(index));
  return per_pred.back().get();
}

const Instance::PositionIndex* Instance::MatchIndex(PredicateId predicate,
                                                    const int* positions,
                                                    size_t n) const {
  CARL_CHECK(predicate >= 0 &&
             static_cast<size_t>(predicate) < relations_.size());
  return GetOrBuildIndex(predicate, positions, n);
}

RowIdSpan Instance::Match(PredicateId predicate,
                          const std::vector<int>& positions,
                          const Tuple& key) const {
  CARL_CHECK(positions.size() == key.size());
  return MatchIndex(predicate, positions.data(), positions.size())
      ->Lookup(key.data(), key.size());
}

size_t Instance::TotalFacts() const {
  size_t total = 0;
  for (const RelationStore& r : relations_) total += r.num_rows;
  return total;
}

}  // namespace carl
