#include "core/query_session.h"

#include "common/logging.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {

namespace {

// Stages binding-cache inserts for the scope when a guard token is
// installed: a guard-aborted GroundModel then leaves the cache
// pointer-identical to its pre-query state (AbortStaging on unwind);
// Commit() publishes the staged tables after the pass succeeded.
// Unguarded passes bypass staging entirely — no behavior change.
class StagedBindingCache {
 public:
  explicit StagedBindingCache(BindingCache* cache)
      : cache_(guard::CurrentToken() != nullptr ? cache : nullptr) {
    if (cache_ != nullptr) cache_->BeginStaging();
  }
  ~StagedBindingCache() {
    if (cache_ != nullptr) cache_->AbortStaging();
  }
  void Commit() {
    if (cache_ != nullptr) {
      cache_->CommitStaging();
      cache_ = nullptr;
    }
  }

 private:
  BindingCache* cache_;
};

// Process-wide registry counters: SessionStats is the per-session view,
// these aggregate across every session in the process (what a snapshot or
// trace consumer wants).
struct SessionCounters {
  obs::Counter& ground_hits =
      obs::Registry::Global().GetCounter("query_session.ground_hits");
  obs::Counter& ground_misses =
      obs::Registry::Global().GetCounter("query_session.ground_misses");
  obs::Counter& ground_extends =
      obs::Registry::Global().GetCounter("query_session.ground_extends");
  obs::Counter& ground_evictions =
      obs::Registry::Global().GetCounter("query_session.ground_evictions");
  obs::Counter& column_hits =
      obs::Registry::Global().GetCounter("query_session.column_hits");
  obs::Counter& column_misses =
      obs::Registry::Global().GetCounter("query_session.column_misses");

  static SessionCounters& Get() {
    static SessionCounters counters;
    return counters;
  }
};

}  // namespace
namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

QuerySession::QuerySession(const Instance* instance) : instance_(instance) {
  CARL_CHECK(instance != nullptr) << "query session needs an instance";
  binding_cache_generation_ = instance->generation();
}

uint64_t QuerySession::instance_fingerprint() const {
  const Schema& schema = instance_->schema();
  uint64_t h = 0x9ae16a3b2f90404full;
  h = HashCombine(h, schema.num_predicates());
  h = HashCombine(h, schema.num_attributes());
  // The generation counter covers every mutation — fact insertions and
  // attribute writes, including in-place value overwrites (which change
  // no cardinality but would stale the NodeValues baked in at grounding
  // time). O(1), so the cache-hit path stays cheap on large instances.
  h = HashCombine(h, instance_->generation());
  h = HashCombine(h, instance_->NumConstants());
  return h;
}

uint64_t QuerySession::ModelFingerprint(const RelationalCausalModel& model) {
  return HashString(model.ToString());
}

QuerySession::SessionStats QuerySession::SnapshotStats() const {
  SessionStats snapshot;
  snapshot.cache_hits =
      live_stats_.cache_hits.load(std::memory_order_relaxed);
  snapshot.ground_full =
      live_stats_.ground_full.load(std::memory_order_relaxed);
  snapshot.ground_extends =
      live_stats_.ground_extends.load(std::memory_order_relaxed);
  snapshot.column_hits =
      live_stats_.column_hits.load(std::memory_order_relaxed);
  snapshot.column_misses =
      live_stats_.column_misses.load(std::memory_order_relaxed);
  snapshot.ground_evictions =
      live_stats_.ground_evictions.load(std::memory_order_relaxed);
  return snapshot;
}

size_t QuerySession::num_cached_groundings() const {
  size_t total = 0;
  for (const auto& [key, bucket] : cache_) total += bucket.size();
  return total;
}

namespace {

// True when no fact in `delta` can touch the grounded graph of `model`:
// its predicate bears no extended-schema attribute (no nodes to add) and
// appears in no rule-condition atom (no bindings to add). Callers must
// separately establish that the delta is inside the extend contract
// (complete, no attribute writes, no rule constant interned in the
// window) before treating such a delta as a no-op.
bool FactsIrrelevantToGrounding(const RelationalCausalModel& model,
                                const InstanceDelta& delta) {
  const Schema& schema = model.extended_schema();
  for (const InstanceDelta::FactDelta& f : delta.facts) {
    for (const AttributeDef& attr : schema.attributes()) {
      if (attr.predicate == f.predicate) return false;
    }
    auto where_references = [&](const ConjunctiveQuery& where) {
      for (const Atom& atom : where.atoms) {
        Result<PredicateId> pid = schema.FindPredicate(atom.predicate);
        if (pid.ok() && *pid == f.predicate) return true;
      }
      return false;
    };
    for (const CausalRule& rule : model.rules()) {
      if (where_references(rule.where)) return false;
    }
    for (const AggregateRule& rule : model.aggregate_rules()) {
      if (where_references(rule.where)) return false;
    }
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<const GroundedModel>> QuerySession::Ground(
    const RelationalCausalModel& model) {
  CARL_TRACE_SCOPE("query_session.ground");
  SessionCounters& counters = SessionCounters::Get();
  const uint64_t generation = instance_->generation();
  if (generation != binding_cache_generation_) {
    // Reconcile the binding cache once per generation move: only tables
    // whose atom predicates or constraint attributes were touched drop.
    binding_cache_.Invalidate(
        instance_->DeltaSince(binding_cache_generation_));
    binding_cache_generation_ = generation;
  }

  // Grounding depends on the rule set AND the extended schema (step 1
  // adds a node per schema attribute grounding), so both go into the key.
  // Instance state is deliberately NOT part of the key: entries outlive
  // mutations and are refreshed per delta below.
  std::string model_text =
      model.ToString() + "\n@schema\n" + model.extended_schema().ToString();
  uint64_t key = HashString(model_text);
  std::vector<Entry>& bucket = cache_[key];
  for (Entry& entry : bucket) {
    if (entry.model_text != model_text) continue;
    if (entry.grounded_generation == generation) {
      live_stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      counters.ground_hits.Increment();
      return entry.grounded;
    }

    const RelationalCausalModel& cached_model = *entry.holder->model;
    InstanceDelta delta =
        instance_->DeltaSince(entry.grounded_generation);
    const bool extensible =
        DeltaSupportsIncrementalExtend(*instance_, cached_model, delta);
    if (extensible && delta.attributes.empty() &&
        FactsIrrelevantToGrounding(cached_model, delta)) {
      // The mutation cannot reach this model's graph; the cached
      // grounding (and its value columns) is exactly what a re-ground
      // would rebuild.
      entry.grounded_generation = generation;
      live_stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      counters.ground_hits.Increment();
      return entry.grounded;
    }

    counters.ground_misses.Increment();
    if (extensible) {
      // Extend the cached graph in delta-sized time. If no consumer
      // holds the grounding (use_count 2 = entry.holder + the aliased
      // entry.grounded), the graph is moved out and spliced in place —
      // but never under a guard token: a guard-aborted extend destroys
      // the moved-out base, which would poison the session. Guarded
      // extends always work on a copy; the cached grounding survives
      // any abort untouched.
      const bool guarded = guard::CurrentToken() != nullptr;
      GroundedModel base = !guarded && entry.holder.use_count() == 2
                               ? std::move(entry.holder->grounded)
                               : entry.holder->grounded;
      Result<GroundedModel> extended =
          ExtendGroundedModel(std::move(base), delta);
      if (extended.ok()) {
        live_stats_.ground_extends.fetch_add(1, std::memory_order_relaxed);
        counters.ground_extends.Increment();
        auto holder = std::make_shared<GroundingHolder>();
        holder->model = entry.holder->model;
        holder->grounded = std::move(*extended);
        InstallGrounding(&entry, std::move(holder), generation);
        PruneColumns(&entry, delta);
        return entry.grounded;
      }
      if (guard::IsGuardStop(extended.status().code())) {
        // The guard abandoned the pass (deadline/budget/cancel/fault).
        // Do NOT fall back to a full re-ground — that would spend more
        // work under a budget that already ran out. The cached entry is
        // untouched; the next unguarded query extends it normally.
        return extended.status();
      }
      // A domain-error extend can only fail here if the extension closed
      // a cycle — a from-scratch ground of the same state fails
      // identically, so fall through and surface that error.
      CARL_LOG(WARN) << "incremental extend failed ("
                     << extended.status().ToString()
                     << "); falling back to a full re-ground";
    } else if (!delta.complete) {
      // The delta log was trimmed past this entry's generation, so the
      // extend contract cannot be checked, let alone satisfied. Loud by
      // design: a session that re-grounds this way repeatedly should
      // raise Instance::kDeltaLogCapacity or re-ground more often.
      static obs::Counter& trimmed_counter =
          obs::Registry::Global().GetCounter("delta_log_trimmed");
      trimmed_counter.Increment();
      CARL_LOG(WARN) << "delta log trimmed: generations "
                     << entry.grounded_generation << ".." << generation
                     << " are no longer replayable; forcing a full "
                        "re-ground instead of an incremental extend";
    } else {
      CARL_LOG(INFO) << "instance delta outside the incremental-extend "
                        "contract; re-grounding model from scratch";
    }

    auto holder = std::make_shared<GroundingHolder>();
    holder->model = entry.holder->model;
    StagedBindingCache staged(&binding_cache_);
    CARL_ASSIGN_OR_RETURN(
        GroundedModel grounded,
        GroundModel(*instance_, *holder->model, &binding_cache_));
    staged.Commit();
    live_stats_.ground_full.fetch_add(1, std::memory_order_relaxed);
    holder->grounded = std::move(grounded);
    InstallGrounding(&entry, std::move(holder), generation);
    entry.columns.clear();
    return entry.grounded;
  }

  counters.ground_misses.Increment();
  // The grounding references the model copy by pointer, so both live in
  // one holder and the handed-out shared_ptr aliases into it: however
  // long any consumer keeps the grounding — across evictions, even past
  // the session's destruction — the model copy stays alive with it.
  auto holder = std::make_shared<GroundingHolder>();
  holder->model = std::make_shared<RelationalCausalModel>(model);
  StagedBindingCache staged(&binding_cache_);
  CARL_ASSIGN_OR_RETURN(
      GroundedModel grounded,
      GroundModel(*instance_, *holder->model, &binding_cache_));
  staged.Commit();
  live_stats_.ground_full.fetch_add(1, std::memory_order_relaxed);
  holder->grounded = std::move(grounded);

  Entry entry;
  entry.model_text = model_text;
  entry.holder = std::move(holder);
  entry.grounded = std::shared_ptr<const GroundedModel>(
      entry.holder, &entry.holder->grounded);
  entry.grounded_generation = generation;
  while (num_cached_groundings() >= max_cached_groundings_) {
    EvictOldestEntry();
  }
  // Re-fetch the bucket: eviction may have touched cache_.
  std::vector<Entry>& target = cache_[key];
  target.push_back(std::move(entry));
  insertion_order_.emplace_back(key, std::move(model_text));
  return target.back().grounded;
}

void QuerySession::InstallGrounding(Entry* entry,
                                    std::shared_ptr<GroundingHolder> holder,
                                    uint64_t generation) {
  entry->holder = std::move(holder);
  entry->grounded = std::shared_ptr<const GroundedModel>(
      entry->holder, &entry->holder->grounded);
  entry->grounded_generation = generation;
}

void QuerySession::PruneColumns(Entry* entry, const InstanceDelta& delta) {
  if (entry->columns.empty()) return;
  const GroundedModel& grounded = entry->holder->grounded;
  const RelationalCausalModel& model = *entry->holder->model;
  std::vector<char> written(grounded.schema().num_attributes(), 0);
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    if (static_cast<size_t>(a.attribute) < written.size()) {
      written[a.attribute] = 1;
    }
  }
  std::vector<char> aggregate_head(grounded.schema().num_attributes(), 0);
  for (const AggregateRule& rule : model.aggregate_rules()) {
    Result<AttributeId> aid =
        grounded.schema().FindAttribute(rule.head.attribute);
    if (aid.ok()) aggregate_head[*aid] = 1;
  }
  for (auto it = entry->columns.begin(); it != entry->columns.end();) {
    AttributeId attr = it->first;
    // Keep a column only when nothing about it could have moved: its
    // attribute was not written, is not aggregate-defined (aggregate
    // values may change through any parent), and its node-id column is
    // bit-identical (the extend did not add or promote nodes there).
    bool keep = !written[attr] && !aggregate_head[attr] &&
                grounded.graph().NodesOfAttribute(attr) == it->second->nodes;
    it = keep ? std::next(it) : entry->columns.erase(it);
  }
}

void QuerySession::EvictOldestEntry() {
  CARL_CHECK(!insertion_order_.empty());
  auto [key, text] = std::move(insertion_order_.front());
  insertion_order_.erase(insertion_order_.begin());
  auto bucket_it = cache_.find(key);
  if (bucket_it == cache_.end()) return;
  std::vector<Entry>& bucket = bucket_it->second;
  for (auto it = bucket.begin(); it != bucket.end(); ++it) {
    if (it->model_text == text) {
      bucket.erase(it);
      live_stats_.ground_evictions.fetch_add(1, std::memory_order_relaxed);
      SessionCounters::Get().ground_evictions.Increment();
      break;
    }
  }
  if (bucket.empty()) cache_.erase(bucket_it);
}

Result<std::shared_ptr<const AttributeValueColumn>> QuerySession::ValueColumn(
    const std::shared_ptr<const GroundedModel>& grounded,
    AttributeId attribute) {
  if (grounded == nullptr) {
    return Status::InvalidArgument("value column needs a grounding");
  }
  if (attribute == kInvalidAttribute ||
      static_cast<size_t>(attribute) >=
          grounded->schema().num_attributes()) {
    return Status::NotFound("attribute unknown to the grounded schema");
  }
  for (auto& [key, bucket] : cache_) {
    for (Entry& entry : bucket) {
      if (entry.grounded != grounded) continue;
      auto it = entry.columns.find(attribute);
      if (it != entry.columns.end()) {
        live_stats_.column_hits.fetch_add(1, std::memory_order_relaxed);
        SessionCounters::Get().column_hits.Increment();
        return it->second;
      }
      live_stats_.column_misses.fetch_add(1, std::memory_order_relaxed);
      SessionCounters::Get().column_misses.Increment();
      auto column = std::make_shared<AttributeValueColumn>();
      column->attribute = attribute;
      column->nodes = grounded->graph().NodesOfAttribute(attribute);
      column->values.reserve(column->nodes.size());
      for (NodeId n : column->nodes) {
        column->values.push_back(grounded->NodeValue(n));
      }
      entry.columns.emplace(attribute, column);
      return std::shared_ptr<const AttributeValueColumn>(column);
    }
  }
  return Status::NotFound(
      "grounding is not cached in this session (use QuerySession::Ground)");
}

}  // namespace carl
