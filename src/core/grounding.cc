#include "core/grounding.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/logging.h"
#include "exec/parallel.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "relational/evaluator.h"

namespace carl {

size_t PlanBindingShards(size_t candidates, int threads) {
  if (threads <= 1) return 1;
  size_t max_by_size = candidates / kBindingShardMinRows;
  size_t shards = std::min(static_cast<size_t>(threads) * 4, max_by_size);
  if (shards <= 1) return 1;
  // Defensive clamp: the balanced split [c*s/n, c*(s+1)/n) has a smallest
  // shard of floor(candidates / shards) rows; shrink until it clears the
  // per-shard floor so no task is woken for under-threshold work.
  while (shards > 1 && candidates / shards < kBindingShardMinRows) {
    --shards;
  }
  return shards;
}

std::shared_ptr<const BindingTable> BindingCache::Find(BindingKeyId key) {
  static obs::Counter& hit_counter =
      obs::Registry::Global().GetCounter("grounding.binding_cache_hits");
  static obs::Counter& miss_counter =
      obs::Registry::Global().GetCounter("grounding.binding_cache_misses");
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    hit_counter.Increment();
    return it->second.table;
  }
  if (staging_) {
    for (const auto& [staged_key, entry] : staged_) {
      if (staged_key == key) {
        ++hits_;
        hit_counter.Increment();
        return entry.table;
      }
    }
  }
  ++misses_;
  miss_counter.Increment();
  return nullptr;
}

void BindingCache::Insert(BindingKeyId key,
                          std::shared_ptr<const BindingTable> table,
                          BindingDeps deps) {
  if (staging_) {
    // Guarded pass: buffer the insert; committed entries stay untouched
    // until CommitStaging so an abort restores the pre-pass cache exactly.
    for (const auto& [staged_key, entry] : staged_) {
      if (staged_key == key) return;  // first producer wins
    }
    if (entries_.count(key) > 0) return;
    staged_.emplace_back(key,
                         CacheEntry{std::move(table), std::move(deps)});
    return;
  }
  if (entries_.count(key) > 0) return;  // first producer wins
  size_t incoming = table->arena_bytes();
  while (!insertion_order_.empty() &&
         (entries_.size() >= max_entries_ ||
          total_bytes_ + incoming > max_bytes_)) {
    auto it = entries_.find(insertion_order_.front());
    if (it != entries_.end()) {
      total_bytes_ -= it->second.table->arena_bytes();
      entries_.erase(it);
    }
    insertion_order_.erase(insertion_order_.begin());
  }
  total_bytes_ += incoming;
  insertion_order_.push_back(key);
  entries_.emplace(key, CacheEntry{std::move(table), std::move(deps)});
}

void BindingCache::Invalidate(const InstanceDelta& delta) {
  if (!delta.complete) {
    CARL_LOG(WARN) << "binding cache cleared wholesale: incomplete instance "
                      "delta (trimmed log) — dropping " << entries_.size()
                   << " cached table(s), " << total_bytes_ << " bytes";
    Clear();
    return;
  }
  if (delta.empty() || entries_.empty()) return;
  std::vector<PredicateId> preds;
  preds.reserve(delta.facts.size());
  for (const InstanceDelta::FactDelta& f : delta.facts) {
    preds.push_back(f.predicate);
  }
  std::sort(preds.begin(), preds.end());
  std::vector<AttributeId> attrs;
  attrs.reserve(delta.attributes.size());
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    attrs.push_back(a.attribute);
  }
  std::sort(attrs.begin(), attrs.end());
  auto intersects = [](const auto& sorted_a, const auto& sorted_b) {
    auto a = sorted_a.begin();
    auto b = sorted_b.begin();
    while (a != sorted_a.end() && b != sorted_b.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        return true;
      }
    }
    return false;
  };
  for (auto it = entries_.begin(); it != entries_.end();) {
    const BindingDeps& deps = it->second.deps;
    if (intersects(deps.predicates, preds) ||
        intersects(deps.attributes, attrs)) {
      total_bytes_ -= it->second.table->arena_bytes();
      insertion_order_.erase(std::remove(insertion_order_.begin(),
                                         insertion_order_.end(), it->first),
                             insertion_order_.end());
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void BindingCache::Clear() {
  entries_.clear();
  insertion_order_.clear();
  total_bytes_ = 0;
}

void BindingCache::CommitStaging() {
  staging_ = false;
  std::vector<std::pair<BindingKeyId, CacheEntry>> staged;
  staged.swap(staged_);
  for (auto& [key, entry] : staged) {
    Insert(key, std::move(entry.table), std::move(entry.deps));
  }
}

void BindingCache::AbortStaging() {
  staging_ = false;
  staged_.clear();
}

std::vector<std::pair<BindingKeyId, const BindingTable*>>
BindingCache::SnapshotEntries() const {
  std::vector<std::pair<BindingKeyId, const BindingTable*>> snapshot;
  snapshot.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    snapshot.emplace_back(key, entry.table.get());
  }
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

namespace {

// Distinguished variables of a rule: all variables appearing in the head
// and body attribute references, in first-occurrence order.
std::vector<std::string> DistinguishedVars(
    const AttributeRef& head, const std::vector<const AttributeRef*>& body) {
  std::vector<std::string> vars;
  auto add = [&vars](const Term& t) {
    if (!t.is_variable()) return;
    for (const std::string& v : vars) {
      if (v == t.text) return;
    }
    vars.push_back(t.text);
  };
  for (const Term& t : head.args) add(t);
  for (const AttributeRef* ref : body) {
    for (const Term& t : ref->args) add(t);
  }
  return vars;
}

// An attribute reference compiled against the binding layout: each
// argument is either a binding slot or a pre-interned constant, so
// resolving a grounding is a flat array fill (no per-binding hash
// lookups or string interning).
struct CompiledRef {
  AttributeId attribute = kInvalidAttribute;
  std::vector<int> slots;            // >= 0: binding slot; -1: constant
  std::vector<SymbolId> constants;   // aligned with slots
  bool unresolvable = false;  // a constant was never interned -> no grounding
  // True when the resolved grounding IS the binding row (slots are the
  // identity permutation over the full row): probes and interns can pass
  // the binding's memoized row hash instead of re-hashing. Head refs hit
  // this constantly — DistinguishedVars orders head variables first.
  bool identity = false;

  size_t arity() const { return slots.size(); }

  // Fills out[0..arity) from a binding row; false when unresolvable.
  bool Resolve(TupleView binding, SymbolId* out) const {
    if (unresolvable) return false;
    for (size_t i = 0; i < slots.size(); ++i) {
      out[i] = slots[i] >= 0 ? binding[slots[i]] : constants[i];
    }
    return true;
  }
};

CompiledRef CompileRef(
    const Instance& instance, AttributeId attribute, const AttributeRef& ref,
    const std::unordered_map<std::string, size_t>& var_slots) {
  CompiledRef out;
  out.attribute = attribute;
  out.slots.reserve(ref.args.size());
  out.constants.reserve(ref.args.size());
  for (const Term& t : ref.args) {
    if (t.is_variable()) {
      auto it = var_slots.find(t.text);
      CARL_CHECK(it != var_slots.end())
          << "unbound variable in grounded ref: " << t.text;
      out.slots.push_back(static_cast<int>(it->second));
      out.constants.push_back(kInvalidSymbol);
    } else {
      SymbolId id = instance.LookupConstant(t.text);
      if (id == kInvalidSymbol) out.unresolvable = true;
      out.slots.push_back(-1);
      out.constants.push_back(id);
    }
  }
  out.identity = out.slots.size() == var_slots.size();
  for (size_t i = 0; i < out.slots.size() && out.identity; ++i) {
    if (out.slots[i] != static_cast<int>(i)) out.identity = false;
  }
  return out;
}

// Enumerates a rule condition's bindings into one columnar table,
// sharding the root atom's candidate rows across the pool when the input
// is large enough. The query is compiled once and the plan shared by
// every shard. Shard tables stream first-occurrence in shard order into
// the merged table, which reproduces the serial Evaluate() result exactly
// — so the binding sequence (and with it every downstream node/edge id)
// is thread-count independent. No owned Tuple is built anywhere.
Result<BindingTable> EnumerateBindings(
    const QueryEvaluator& evaluator, const ConjunctiveQuery& where,
    const std::vector<std::string>& vars, ExecContext& ctx) {
  CARL_TRACE_SCOPE("grounding.rule.enumerate");
  CARL_ASSIGN_OR_RETURN(PreparedQuery prepared, evaluator.Prepare(where));
  CARL_ASSIGN_OR_RETURN(size_t candidates,
                        evaluator.CountRootCandidates(prepared));
  size_t shards = PlanBindingShards(candidates, ctx.threads());
  if (shards <= 1) return evaluator.Evaluate(prepared, vars);

  std::vector<BindingTable> shard_results(shards);
  std::vector<Status> shard_status(shards);
  ParallelFor(ctx, shards, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      Result<BindingTable> r =
          evaluator.EvaluateShard(prepared, vars, s, shards);
      if (r.ok()) {
        shard_results[s] = std::move(*r);
      } else {
        shard_status[s] = r.status();
      }
    }
  });
  for (const Status& s : shard_status) CARL_RETURN_IF_ERROR(s);
  // A stopped token makes ParallelFor skip chunks silently; surface it
  // here so a partially-enumerated table is never mistaken for a result.
  CARL_RETURN_IF_ERROR(guard::CheckPoint());

  size_t total = 0;
  for (const BindingTable& sr : shard_results) total += sr.size();
  BindingTable merged(vars.size());
  merged.Reserve(total);
  for (const BindingTable& sr : shard_results) {
    for (size_t r = 0; r < sr.size(); ++r) {
      // Reuse the shard table's memoized row hash — the merge never
      // re-hashes a binding.
      merged.InsertDistinct(sr.row(r).data(), sr.row_hash(r));
    }
  }
  return merged;
}

// Cache key of one rule condition's binding table. The projection order
// matters (it is the row layout), so it is part of the key. The pretty
// ToString forms are NOT sufficient on their own: numeric constraint
// values render at 6 significant digits (two distinct thresholds can
// print identically) and string values embed unescaped — so every
// constraint rhs is additionally encoded exactly (hex-float doubles,
// length-prefixed strings). A key collision here would silently reuse
// the wrong rule's bindings.
std::string BindingCacheKey(const ConjunctiveQuery& where,
                            const std::vector<std::string>& vars) {
  std::string key;
  for (const Atom& atom : where.atoms) {
    key += atom.ToString();
    key += ';';
  }
  for (const AttributeConstraint& c : where.constraints) {
    key += c.attribute;
    key += '(';
    for (const Term& t : c.args) {
      key += t.is_variable() ? 'V' : 'C';
      key += std::to_string(t.text.size());
      key += ':';
      key += t.text;
    }
    key += ')';
    key += CompareOpToString(c.op);
    switch (c.rhs.type()) {
      case ValueType::kNull:
        key += "null";
        break;
      case ValueType::kBool:
        key += c.rhs.bool_value() ? "b1" : "b0";
        break;
      case ValueType::kInt:
        key += 'i';
        key += std::to_string(c.rhs.int_value());
        break;
      case ValueType::kDouble: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "d%a", c.rhs.double_value());
        key += buf;
        break;
      }
      case ValueType::kString:
        key += 's';
        key += std::to_string(c.rhs.string_value().size());
        key += ':';
        key += c.rhs.string_value();
        break;
    }
    key += ';';
  }
  key += '|';
  for (const std::string& v : vars) {
    key += std::to_string(v.size());
    key += ':';
    key += v;
  }
  return key;
}

// The dependency set a cached table of `where`'s bindings is invalidated
// on: its atom predicates and constraint attributes.
BindingDeps DepsOf(const Schema& schema, const ConjunctiveQuery& where) {
  BindingDeps deps;
  for (const Atom& atom : where.atoms) {
    Result<PredicateId> pid = schema.FindPredicate(atom.predicate);
    if (pid.ok()) deps.predicates.push_back(*pid);
  }
  for (const AttributeConstraint& c : where.constraints) {
    Result<AttributeId> aid = schema.FindAttribute(c.attribute);
    if (aid.ok()) deps.attributes.push_back(*aid);
  }
  std::sort(deps.predicates.begin(), deps.predicates.end());
  deps.predicates.erase(
      std::unique(deps.predicates.begin(), deps.predicates.end()),
      deps.predicates.end());
  std::sort(deps.attributes.begin(), deps.attributes.end());
  deps.attributes.erase(
      std::unique(deps.attributes.begin(), deps.attributes.end()),
      deps.attributes.end());
  return deps;
}

Result<std::shared_ptr<const BindingTable>> EnumerateBindingsCached(
    const QueryEvaluator& evaluator, const Schema& schema,
    const ConjunctiveQuery& where, const std::vector<std::string>& vars,
    ExecContext& ctx, BindingCache* cache) {
  // The exact key string is built and hashed once, here; everything
  // downstream (lookup, staging scans, eviction, snapshots) compares the
  // interned dense id.
  BindingKeyId key = kInvalidBindingKey;
  if (cache != nullptr) {
    key = cache->InternKey(BindingCacheKey(where, vars));
    if (std::shared_ptr<const BindingTable> hit = cache->Find(key)) {
      return hit;
    }
  }
  CARL_ASSIGN_OR_RETURN(BindingTable table,
                        EnumerateBindings(evaluator, where, vars, ctx));
  auto shared = std::make_shared<const BindingTable>(std::move(table));
  if (cache != nullptr) {
    cache->Insert(key, shared, DepsOf(schema, where));
  }
  return shared;
}

// One rule of the model as the pipeline sees it: a head, its body refs,
// and its condition. An aggregate rule is one body ref (its source) plus
// require_all. RulesInMergeOrder lists causal rules first, then aggregate
// rules — the model's rule order, and the merge order.
struct RuleView {
  const AttributeRef* head = nullptr;
  std::vector<const AttributeRef*> body;
  const ConjunctiveQuery* where = nullptr;
  // Causal rules skip only the failing body edge (the head grounding
  // still counts); aggregate rules skip the whole binding unless head
  // and source both resolve.
  bool require_all = false;
};

std::vector<RuleView> RulesInMergeOrder(const RelationalCausalModel& model) {
  std::vector<RuleView> rules;
  rules.reserve(model.rules().size() + model.aggregate_rules().size());
  for (const CausalRule& rule : model.rules()) {
    RuleView view{&rule.head, {}, &rule.where, false};
    view.body.reserve(rule.body.size());
    for (const AttributeRef& b : rule.body) view.body.push_back(&b);
    rules.push_back(std::move(view));
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    rules.push_back(RuleView{&rule.head, {&rule.source}, &rule.where, true});
  }
  return rules;
}

// One rule ready to merge: its bindings plus compiled head and body refs.
struct CompiledRule {
  std::shared_ptr<const BindingTable> bindings;
  CompiledRef head;
  std::vector<CompiledRef> body;
  bool require_all = false;

  size_t max_arity() const {
    size_t m = std::max<size_t>(head.arity(), 1);
    for (const CompiledRef& b : body) m = std::max(m, b.arity());
    return m;
  }
};

// Where a rule's bindings come from: GroundModel enumerates the full
// condition (through the binding cache), ExtendGroundedModel its
// semi-naive delta. Called with the condition and the projection.
using BindingSource =
    std::function<Result<std::shared_ptr<const BindingTable>>(
        const ConjunctiveQuery&, const std::vector<std::string>&)>;

// Enumerates and compiles every rule, in merge order.
Result<std::vector<CompiledRule>> CompileRules(
    const Instance& instance, const RelationalCausalModel& model,
    const BindingSource& binding_source) {
  const Schema& schema = model.extended_schema();
  std::vector<RuleView> views = RulesInMergeOrder(model);
  std::vector<CompiledRule> compiled;
  compiled.reserve(views.size());
  for (const RuleView& view : views) {
    std::vector<std::string> vars = DistinguishedVars(*view.head, view.body);
    std::unordered_map<std::string, size_t> var_slots;
    for (size_t i = 0; i < vars.size(); ++i) var_slots.emplace(vars[i], i);

    CompiledRule job;
    job.require_all = view.require_all;
    CARL_ASSIGN_OR_RETURN(job.bindings, binding_source(*view.where, vars));
    CARL_ASSIGN_OR_RETURN(AttributeId head_attr,
                          schema.FindAttribute(view.head->attribute));
    job.head = CompileRef(instance, head_attr, *view.head, var_slots);
    job.body.reserve(view.body.size());
    for (const AttributeRef* b : view.body) {
      CARL_ASSIGN_OR_RETURN(AttributeId aid,
                            schema.FindAttribute(b->attribute));
      job.body.push_back(CompileRef(instance, aid, *b, var_slots));
    }
    compiled.push_back(std::move(job));
  }
  return compiled;
}

// Per-binding probe slots of one rule.
enum : uint8_t { kSkip = 0, kFound = 1, kMiss = 2 };
struct RuleProbe {
  std::vector<NodeId> head_node;
  std::vector<uint8_t> head_state;
  std::vector<NodeId> body_node;
  std::vector<uint8_t> body_state;
};

// Probes the grounding of `ref` at binding `i` read-only: kSkip when the
// ref does not resolve, else kFound/kMiss with the node id (if any) in
// *node. Identity refs probe with the binding's memoized row hash — the
// probe never re-hashes a grounding key it already owns.
uint8_t ProbeRef(const CompiledRef& ref, const BindingTable& bindings,
                 size_t i, const CausalGraph& graph, SymbolId* scratch,
                 NodeId* node) {
  TupleView binding = bindings.row(i);
  if (ref.identity) {
    *node = graph.FindNode(ref.attribute, binding, bindings.row_hash(i));
  } else if (ref.Resolve(binding, scratch)) {
    *node = graph.FindNode(ref.attribute, TupleView(scratch, ref.arity()));
  } else {
    return kSkip;
  }
  return *node == kInvalidNode ? kMiss : kFound;
}

// Interns the grounding of `ref` at binding `i`, which must resolve.
NodeId InternRef(const CompiledRef& ref, const BindingTable& bindings,
                 size_t i, SymbolId* scratch, CausalGraph* graph) {
  TupleView binding = bindings.row(i);
  if (ref.identity) {
    return graph->AddNode(ref.attribute, binding, bindings.row_hash(i));
  }
  ref.Resolve(binding, scratch);
  return graph->AddNode(ref.attribute, TupleView(scratch, ref.arity()));
}

// Whether binding `i` of one rule survives the skip checks: the head
// resolves, and under require_all every body ref does too.
inline bool AcceptedBinding(const CompiledRule& rule, const RuleProbe& probe,
                            size_t i, size_t nbody) {
  if (probe.head_state[i] == kSkip) return false;
  if (rule.require_all) {
    for (size_t b = 0; b < nbody; ++b) {
      if (probe.body_state[i * nbody + b] == kSkip) return false;
    }
  }
  return true;
}

// Phase 1 of one rule's merge: resolves every binding's refs over the
// rule's chunk plan and probes the graph's node interner read-only (the
// hash-heavy part; after step 1's bulk build nearly every grounding
// already has a node).
RuleProbe ProbeRule(const CompiledRule& rule, const CausalGraph& graph,
                    ExecContext& ctx) {
  const BindingTable& bindings = *rule.bindings;
  const size_t nb = bindings.size();
  const size_t nbody = rule.body.size();
  RuleProbe probe;
  probe.head_node.assign(nb, kInvalidNode);
  probe.head_state.assign(nb, kSkip);
  probe.body_node.assign(nb * nbody, kInvalidNode);
  probe.body_state.assign(nb * nbody, kSkip);
  ParallelFor(ctx, nb, [&](size_t begin, size_t end, size_t) {
    CARL_TRACE_SCOPE("grounding.rule.probe");
    std::vector<SymbolId> buf(rule.max_arity());
    for (size_t i = begin; i < end; ++i) {
      probe.head_state[i] = ProbeRef(rule.head, bindings, i, graph,
                                     buf.data(), &probe.head_node[i]);
      for (size_t b = 0; b < nbody; ++b) {
        probe.body_state[i * nbody + b] =
            ProbeRef(rule.body[b], bindings, i, graph, buf.data(),
                     &probe.body_node[i * nbody + b]);
      }
    }
  });
  return probe;
}

// Phase 2 of one rule's merge, the splice: per-chunk counts of accepted
// groundings and live edges, an exclusive scan giving every chunk its
// offset in the rule's edge array, serial interning of the probe misses
// in binding order (head before bodies — the ids a per-binding AddNode
// loop assigns), then every chunk fills its edges at its offset. Returns
// the rule's edges in binding order; the probe is released on return.
std::vector<CausalGraph::Edge> SpliceRule(const CompiledRule& rule,
                                          RuleProbe probe, ExecContext& ctx,
                                          CausalGraph* graph,
                                          size_t* num_groundings) {
  const BindingTable& bindings = *rule.bindings;
  const size_t nb = bindings.size();
  const size_t nbody = rule.body.size();
  const std::vector<std::pair<size_t, size_t>> chunks = ctx.Chunks(nb);
  std::vector<size_t> chunk_edges(chunks.size(), 0);
  std::vector<size_t> chunk_groundings(chunks.size(), 0);
  std::vector<uint8_t> chunk_has_miss(chunks.size(), 0);
  {
    CARL_TRACE_SCOPE("splice.prefix_sum");
    ParallelFor(ctx, nb, [&](size_t begin, size_t end, size_t c) {
      size_t edges = 0, groundings = 0;
      uint8_t has_miss = 0;
      for (size_t i = begin; i < end; ++i) {
        if (!AcceptedBinding(rule, probe, i, nbody)) continue;
        ++groundings;
        has_miss |= probe.head_state[i] == kMiss;
        for (size_t b = 0; b < nbody; ++b) {
          uint8_t state = probe.body_state[i * nbody + b];
          if (state == kSkip) continue;
          ++edges;
          has_miss |= state == kMiss;
        }
      }
      chunk_edges[c] = edges;
      chunk_groundings[c] = groundings;
      chunk_has_miss[c] = has_miss;
    });
  }
  if (guard::StopRequested()) return {};

  std::vector<size_t> chunk_edge_base(chunks.size(), 0);
  size_t total_edges = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunk_edge_base[c] = total_edges;
    total_edges += chunk_edges[c];
    *num_groundings += chunk_groundings[c];
  }

  // Only miss-flagged chunks are walked; after step 1's bulk build they
  // are rare.
  std::vector<SymbolId> scratch(rule.max_arity());
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (!chunk_has_miss[c]) continue;
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      if (!AcceptedBinding(rule, probe, i, nbody)) continue;
      if (probe.head_state[i] == kMiss) {
        probe.head_node[i] =
            InternRef(rule.head, bindings, i, scratch.data(), graph);
      }
      for (size_t b = 0; b < nbody; ++b) {
        if (probe.body_state[i * nbody + b] != kMiss) continue;
        probe.body_node[i * nbody + b] =
            InternRef(rule.body[b], bindings, i, scratch.data(), graph);
      }
    }
  }

  std::vector<CausalGraph::Edge> edges(total_edges);
  {
    CARL_TRACE_SCOPE("splice.parallel");
    ParallelFor(ctx, nb, [&](size_t begin, size_t end, size_t c) {
      size_t at = chunk_edge_base[c];
      for (size_t i = begin; i < end; ++i) {
        if (!AcceptedBinding(rule, probe, i, nbody)) continue;
        for (size_t b = 0; b < nbody; ++b) {
          if (probe.body_state[i * nbody + b] == kSkip) continue;
          CARL_DCHECK(at < edges.size());
          edges[at++] = CausalGraph::Edge{probe.body_node[i * nbody + b],
                                          probe.head_node[i]};
        }
      }
      CARL_DCHECK(at == chunk_edge_base[c] + chunk_edges[c]);
    });
  }
  return edges;
}

// Merges every rule's groundings into the graph, rule by rule in merge
// order: probe, splice, then one AddEdges commit per rule. The same code
// runs at every thread count (one thread runs each phase inline), and
// node ids, edge order, and num_groundings are identical for all of
// them. Committing per rule keeps the transient probe and edge arrays
// sized to one rule, not the whole model. A guard stop abandons the pass
// before the next commit (a stopped ParallelFor leaves slots unwritten).
// `splice_s` receives the splice and commit time; the rest of the merge
// is the probe.
void MergeRuleGroundings(const std::vector<CompiledRule>& rules,
                         ExecContext& ctx, CausalGraph* graph,
                         size_t* num_groundings, double* splice_s) {
  for (const CompiledRule& rule : rules) {
    RuleProbe probe = ProbeRule(rule, *graph, ctx);
    if (guard::StopRequested()) return;
    obs::MonotonicTimer splice_timer;
    std::vector<CausalGraph::Edge> edges =
        SpliceRule(rule, std::move(probe), ctx, graph, num_groundings);
    if (guard::StopRequested()) return;
    graph->ReserveEdges(edges.size());
    graph->AddEdges(edges);
    *splice_s += splice_timer.Seconds();
  }
}

}  // namespace

std::optional<AggregateKind> GroundedModel::NodeAggregate(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < node_has_aggregate_.size());
  if (!node_has_aggregate_[id]) return std::nullopt;
  return node_aggregate_[id];
}

std::optional<double> GroundedModel::NodeValue(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < value_state_.size());
  if (value_state_[id] != 2) return std::nullopt;
  return value_cache_[id];
}

void GroundedModel::TagAggregateNodes(size_t first_node) {
  const size_t n = graph_.num_nodes();
  node_has_aggregate_.resize(n, 0);
  node_aggregate_.resize(n, AggregateKind::kAvg);
  for (const AggregateRule& rule : model_->aggregate_rules()) {
    Result<AttributeId> aid = schema().FindAttribute(rule.head.attribute);
    if (!aid.ok()) continue;
    for (NodeId node : graph_.NodesOfAttribute(*aid)) {
      if (static_cast<size_t>(node) < first_node) continue;
      node_has_aggregate_[node] = 1;
      node_aggregate_[node] = rule.aggregate;
    }
  }
}

void GroundedModel::ReadInstanceValue(NodeId id) {
  const GroundedAttribute g = graph_.node(id);
  const Value* v = instance_->FindAttributeValue(g.attribute, g.args.data(),
                                                 g.args.size());
  if (v != nullptr && v->is_numeric()) {
    value_cache_[id] = v->AsDouble();
    value_state_[id] = 2;
  } else {
    value_state_[id] = 1;
  }
}

void GroundedModel::AggregateValues(const std::vector<NodeId>& topo_order,
                                    const std::vector<char>* dirty) {
  // Parents precede children in topological order, so parent values
  // (including aggregate-of-aggregate chains) are already final. Parent
  // values are sorted before aggregation — parent list order is an
  // edge-commit-order artifact that differs between a from-scratch ground
  // and an incremental extend, and floating-point accumulation is not
  // commutative; the sorted form makes aggregate values a function of the
  // parent value SET, bit-identical across both paths.
  std::vector<double> parent_values;
  for (NodeId id : topo_order) {
    if (!node_has_aggregate_[id]) continue;
    if (dirty != nullptr && !(*dirty)[id]) continue;
    parent_values.clear();
    for (NodeId p : graph_.Parents(id)) {
      if (value_state_[p] == 2) parent_values.push_back(value_cache_[p]);
    }
    if (parent_values.empty()) {
      value_state_[id] = 1;
      continue;
    }
    std::sort(parent_values.begin(), parent_values.end());
    value_cache_[id] = ApplyAggregate(node_aggregate_[id], parent_values);
    value_state_[id] = 2;
  }
}

void GroundedModel::FinalizeValues(const std::vector<NodeId>& topo_order) {
  size_t n = graph_.num_nodes();
  value_state_.assign(n, 1);
  value_cache_.assign(n, 0.0);

  // Base attributes: one typed-column copy per attribute. Step 1
  // bulk-builds nodes in (attribute, row) order, so an attribute's first
  // NumRows(predicate) nodes are row-aligned with the instance's numeric
  // column — the hot path is a present-masked copy, no per-node hash
  // probe. Instance reads remain only for values living in the overflow
  // map (set before their fact existed, or attached to rule-added
  // non-fact groundings past the bulk prefix).
  const Schema& s = schema();
  std::vector<AttributeId> attrs;
  attrs.reserve(s.attributes().size());
  for (const AttributeDef& attr : s.attributes()) attrs.push_back(attr.id);

  ParallelFor(ExecContext::Global(), attrs.size(),
              [&](size_t begin, size_t end, size_t) {
    for (size_t a = begin; a < end; ++a) {
      AttributeId aid = attrs[a];
      // Extended-schema attributes (derived aggregates) are unknown to
      // the instance: every one of their nodes is aggregate-tagged and
      // valued by AggregateValues below, never by a column read.
      if (static_cast<size_t>(aid) >=
          instance_->schema().num_attributes()) {
        continue;
      }
      const std::vector<NodeId>& nodes = graph_.NodesOfAttribute(aid);
      if (nodes.empty()) continue;
      size_t bulk = std::min(
          nodes.size(), instance_->NumRows(s.attribute(aid).predicate));
      Instance::NumericColumn col = instance_->NumericColumnOf(aid);
      size_t covered = std::min(bulk, col.num_rows);
      for (size_t r = 0; r < covered; ++r) {
        NodeId id = nodes[r];
        if (node_has_aggregate_[id]) continue;
        if (col.present[r]) {
          value_cache_[id] = col.values[r];
          value_state_[id] = 2;
        } else if (col.may_overflow) {
          ReadInstanceValue(id);
        }
      }
      // Rows past the column's written extent, then rule-added non-fact
      // groundings: values (if any) can only live in the overflow map.
      if (col.may_overflow || bulk < nodes.size()) {
        for (size_t r = covered; r < nodes.size(); ++r) {
          NodeId id = nodes[r];
          if (!node_has_aggregate_[id]) ReadInstanceValue(id);
        }
      }
    }
  });
  AggregateValues(topo_order, nullptr);
}

std::string GroundedModel::NodeName(NodeId id) const {
  return graph_.NodeName(id, schema(), instance_->interner());
}

Result<GroundedModel> GroundModel(const Instance& instance,
                                  const RelationalCausalModel& model,
                                  BindingCache* binding_cache) {
  CARL_TRACE_SCOPE("grounding.ground_model");
  static obs::Counter& pass_counter =
      obs::Registry::Global().GetCounter("grounding.ground_model_passes");
  static obs::Histogram& pass_hist = obs::Registry::Global().GetHistogram(
      "grounding.ground_model_seconds",
      obs::Histogram::ExponentialBounds(1e-4, 4.0, 10));
  pass_counter.Increment();
  obs::MonotonicTimer pass_timer;

  ExecContext& ctx = ExecContext::Global();
  GroundedModel grounded;
  grounded.instance_ = &instance;
  grounded.model_ = &model;
  // Same reset discipline as ExtendGroundedModel: the stats always start
  // from zero, whether the struct is freshly constructed or reused.
  grounded.phase_stats_ = GroundingPhaseStats{};

  const Schema& schema = model.extended_schema();
  QueryEvaluator evaluator(&instance);
  obs::MonotonicTimer phase_timer;

  // 1. A node for every grounding of every attribute, bulk-built with ids
  // in (attribute, row) order — the same ids a serial AddNode loop
  // assigns. Aggregate-defined attributes get nodes here too, so response
  // lookups are uniform even for groundings with no sources.
  {
    CARL_TRACE_SCOPE("grounding.node_build");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.node_build"));
    std::vector<CausalGraph::NodeBatch> batches;
    batches.reserve(schema.attributes().size());
    for (const AttributeDef& attr : schema.attributes()) {
      batches.push_back(
          CausalGraph::NodeBatch{attr.id, instance.Rows(attr.predicate)});
    }
    grounded.graph_.AddNodesBulk(batches, ctx);
  }
  grounded.phase_stats_.node_build_s = phase_timer.Seconds();

  // 2. Compile every rule and enumerate its condition: bindings come in
  // parallel shards of one shared compiled plan as a columnar table
  // (reused from the binding cache when the same condition was enumerated
  // before).
  phase_timer.Reset();
  std::vector<CompiledRule> compiled;
  {
    CARL_TRACE_SCOPE("grounding.enumerate");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.enumerate"));
    auto full_bindings = [&](const ConjunctiveQuery& where,
                             const std::vector<std::string>& vars) {
      return EnumerateBindingsCached(evaluator, schema, where, vars, ctx,
                                     binding_cache);
    };
    CARL_ASSIGN_OR_RETURN(compiled,
                          CompileRules(instance, model, full_bindings));
  }
  grounded.phase_stats_.enumerate_s = phase_timer.Seconds();

  // 3. Merge every rule's nodes and edges, rule by rule: read-only probe,
  // prefix-summed splice with serial miss interning, one edge commit.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.merge");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.merge"));
    MergeRuleGroundings(compiled, ctx, &grounded.graph_,
                        &grounded.num_groundings_,
                        &grounded.phase_stats_.splice_s);
    CARL_RETURN_IF_ERROR(guard::CheckPoint());
  }
  grounded.phase_stats_.merge_s = phase_timer.Seconds();

  // 4. Tag aggregate nodes with their kind.
  grounded.TagAggregateNodes(0);

  // 5. The paper requires non-recursive models; reject cyclic groundings.
  // The topological order then drives the eager value pass.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.finalize");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.finalize"));
    CARL_ASSIGN_OR_RETURN(std::vector<NodeId> topo_order,
                          grounded.graph_.TopologicalOrder());
    grounded.FinalizeValues(topo_order);
  }
  grounded.phase_stats_.finalize_s = phase_timer.Seconds();
  pass_hist.Record(pass_timer.Seconds());
  return grounded;
}

namespace {

// True when any constant named by `terms` was interned inside the delta
// window — its symbol id did not exist when the base grounding compiled
// its rule refs, so an extend could miss groundings the constant now
// resolves.
bool AnyConstantInWindow(const Instance& instance,
                         const std::vector<Term>& terms,
                         size_t prev_num_constants) {
  for (const Term& t : terms) {
    if (t.is_variable()) continue;
    SymbolId id = instance.LookupConstant(t.text);
    if (id != kInvalidSymbol &&
        static_cast<size_t>(id) >= prev_num_constants) {
      return true;
    }
  }
  return false;
}

bool WhereHasWindowConstant(const Instance& instance,
                            const ConjunctiveQuery& where,
                            size_t prev_num_constants) {
  for (const Atom& atom : where.atoms) {
    if (AnyConstantInWindow(instance, atom.args, prev_num_constants)) {
      return true;
    }
  }
  for (const AttributeConstraint& c : where.constraints) {
    if (AnyConstantInWindow(instance, c.args, prev_num_constants)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool DeltaSupportsIncrementalExtend(const Instance& instance,
                                    const RelationalCausalModel& model,
                                    const InstanceDelta& delta) {
  if (!delta.complete) return false;
  const Schema& schema = model.extended_schema();

  // Overflow writes attach values to tuples outside the row-aligned
  // columns; an extend cannot tell which existing nodes they hit.
  // Writes to constraint-referenced attributes are non-monotone: an old
  // binding (over exclusively old rows, invisible to every delta pivot)
  // may newly satisfy or newly fail its constraint.
  std::vector<char> written(instance.schema().num_attributes(), 0);
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    if (a.overflow) return false;
    if (static_cast<size_t>(a.attribute) < written.size()) {
      written[a.attribute] = 1;
    }
  }
  auto constraint_written = [&](const ConjunctiveQuery& where) {
    for (const AttributeConstraint& c : where.constraints) {
      Result<AttributeId> aid = schema.FindAttribute(c.attribute);
      if (aid.ok() && static_cast<size_t>(*aid) < written.size() &&
          written[*aid]) {
        return true;
      }
    }
    return false;
  };
  const size_t window = delta.prev_num_constants;
  for (const RuleView& rule : RulesInMergeOrder(model)) {
    if (constraint_written(*rule.where) ||
        WhereHasWindowConstant(instance, *rule.where, window) ||
        AnyConstantInWindow(instance, rule.head->args, window)) {
      return false;
    }
    for (const AttributeRef* b : rule.body) {
      if (AnyConstantInWindow(instance, b->args, window)) return false;
    }
  }
  return true;
}

Result<GroundedModel> ExtendGroundedModel(GroundedModel base,
                                          const InstanceDelta& delta) {
  CARL_TRACE_SCOPE("grounding.extend_model");
  static obs::Counter& pass_counter =
      obs::Registry::Global().GetCounter("grounding.extend_passes");
  static obs::Histogram& pass_hist = obs::Registry::Global().GetHistogram(
      "grounding.extend_seconds",
      obs::Histogram::ExponentialBounds(1e-5, 4.0, 10));
  pass_counter.Increment();
  obs::MonotonicTimer pass_timer;

  if (base.instance_ == nullptr || base.model_ == nullptr) {
    return Status::FailedPrecondition(
        "extend needs a grounded model (default-constructed base)");
  }
  const Instance& instance = *base.instance_;
  const RelationalCausalModel& model = *base.model_;
  if (delta.to_generation != instance.generation()) {
    return Status::FailedPrecondition(
        "delta does not end at the instance's current generation");
  }
  if (!DeltaSupportsIncrementalExtend(instance, model, delta)) {
    return Status::FailedPrecondition(
        "delta is outside the incremental-extend contract (trimmed log, "
        "overflow write, constraint-attribute write, or a rule constant "
        "interned inside the window)");
  }

  GroundedModel out = std::move(base);
  CausalGraph& graph = out.graph_;
  const Schema& schema = model.extended_schema();
  // Same reset discipline as GroundModel: the stats describe this pass
  // only, never a blend with the base grounding's timings.
  out.phase_stats_ = GroundingPhaseStats{};
  obs::MonotonicTimer phase_timer;

  // Per-predicate fact watermarks: rows >= watermark are the new facts.
  const size_t num_preds = instance.schema().num_predicates();
  std::vector<uint32_t> watermarks(num_preds);
  for (size_t p = 0; p < num_preds; ++p) {
    watermarks[p] = static_cast<uint32_t>(
        instance.NumRows(static_cast<PredicateId>(p)));
  }
  for (const InstanceDelta::FactDelta& f : delta.facts) {
    watermarks[f.predicate] = f.prior_rows;
  }

  // 1. Splice nodes for the new fact rows of every attribute into the
  // row-aligned per-attribute id columns (rule-added extras are promoted
  // when a new row re-derives them).
  phase_timer.Reset();
  const size_t nodes_before = graph.num_nodes();
  const size_t edges_before = graph.num_edges();
  {
    CARL_TRACE_SCOPE("grounding.extend.node_splice");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.node_build"));
    std::vector<CausalGraph::NodeBatch> batches;
    std::vector<size_t> prior_rows;
    for (const AttributeDef& attr : schema.attributes()) {
      size_t prior = watermarks[attr.predicate];
      if (prior < instance.NumRows(attr.predicate)) {
        batches.push_back(
            CausalGraph::NodeBatch{attr.id, instance.Rows(attr.predicate)});
        prior_rows.push_back(prior);
      }
    }
    graph.ExtendNodesBulk(batches, prior_rows);
  }
  out.phase_stats_.node_build_s = phase_timer.Seconds();

  // 2. Re-enumerate only the bindings that touch the delta: one
  // semi-naive plan per rule, pivot atoms watermark-restricted to new
  // rows. No binding cache — delta tables must not collide with the full
  // tables GroundModel caches under the same condition key.
  phase_timer.Reset();
  QueryEvaluator evaluator(&instance);
  std::vector<CompiledRule> compiled;
  {
    CARL_TRACE_SCOPE("grounding.extend.delta_plan");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.enumerate"));
    auto delta_bindings = [&](const ConjunctiveQuery& where,
                              const std::vector<std::string>& vars)
        -> Result<std::shared_ptr<const BindingTable>> {
      CARL_ASSIGN_OR_RETURN(PreparedDeltaQuery prepared,
                            evaluator.PrepareDelta(where));
      CARL_ASSIGN_OR_RETURN(
          BindingTable table,
          evaluator.EvaluateDelta(prepared, vars, watermarks));
      return std::make_shared<const BindingTable>(std::move(table));
    };
    CARL_ASSIGN_OR_RETURN(compiled,
                          CompileRules(instance, model, delta_bindings));
  }
  out.phase_stats_.enumerate_s = phase_timer.Seconds();

  // 3. Merge the delta groundings in rule order through the graph's
  // post-build edge overlay — the same per-rule pipeline as a full
  // ground. AddNode and the edge merge dedupe, so a binding the base
  // already committed (its projection also has an all-old witness)
  // changes nothing in the graph — only num_groundings_ counts it again,
  // which is why the extend contract excludes that counter.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.extend.splice");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.merge"));
    MergeRuleGroundings(compiled, ExecContext::Global(), &graph,
                        &out.num_groundings_, &out.phase_stats_.splice_s);
    CARL_RETURN_IF_ERROR(guard::CheckPoint());
  }
  out.phase_stats_.merge_s = phase_timer.Seconds();

  // 4. Tag the new nodes of aggregate-defined attributes.
  out.TagAggregateNodes(nodes_before);

  // 5. Cycle check (the extension could close a cycle) — the order also
  // drives the affected-aggregate recompute below.
  phase_timer.Reset();
  CARL_TRACE_SCOPE("grounding.extend.value_pass");
  CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.finalize"));
  CARL_ASSIGN_OR_RETURN(std::vector<NodeId> topo_order,
                        graph.TopologicalOrder());

  // 6. Values, delta-sized: new nodes read the instance; written rows
  // refresh in place; aggregates recompute only when reachable from the
  // change (new node, written row, or new-edge target) through aggregate
  // children.
  const size_t n = graph.num_nodes();
  out.value_state_.resize(n, 1);
  out.value_cache_.resize(n, 0.0);
  for (size_t id = nodes_before; id < n; ++id) {
    if (!out.node_has_aggregate_[id]) {
      out.ReadInstanceValue(static_cast<NodeId>(id));
    }
  }
  for (const InstanceDelta::AttributeDelta& ad : delta.attributes) {
    const std::vector<NodeId>& nodes = graph.NodesOfAttribute(ad.attribute);
    Instance::NumericColumn col = instance.NumericColumnOf(ad.attribute);
    for (uint32_t row : ad.rows) {
      if (row >= nodes.size()) continue;
      NodeId id = nodes[row];
      if (out.node_has_aggregate_[id]) continue;
      if (row < col.num_rows && col.present[row]) {
        out.value_cache_[id] = col.values[row];
        out.value_state_[id] = 2;
      } else {
        out.ReadInstanceValue(id);
      }
    }
  }

  std::vector<char> dirty(n, 0);
  std::deque<NodeId> queue;
  auto touch = [&](NodeId id) {
    if (out.node_has_aggregate_[id] && !dirty[id]) {
      dirty[id] = 1;
      queue.push_back(id);
    }
  };
  auto seed = [&](NodeId id) {
    touch(id);
    for (NodeId c : graph.Children(id)) touch(c);
  };
  for (size_t id = nodes_before; id < n; ++id) {
    seed(static_cast<NodeId>(id));
  }
  for (const InstanceDelta::AttributeDelta& ad : delta.attributes) {
    const std::vector<NodeId>& nodes = graph.NodesOfAttribute(ad.attribute);
    for (uint32_t row : ad.rows) {
      if (row < nodes.size()) seed(nodes[row]);
    }
  }
  const std::vector<CausalGraph::Edge>& edge_log = graph.edge_log();
  for (size_t e = edges_before; e < edge_log.size(); ++e) {
    touch(edge_log[e].to);
  }
  while (!queue.empty()) {
    NodeId id = queue.front();
    queue.pop_front();
    for (NodeId c : graph.Children(id)) touch(c);
  }
  out.AggregateValues(topo_order, &dirty);
  out.phase_stats_.finalize_s = phase_timer.Seconds();
  pass_hist.Record(pass_timer.Seconds());
  return out;
}

}  // namespace carl
