// Grounding (paper Def 3.5, §3.2.3): instantiate a relational causal model
// against a relational skeleton, producing the grounded causal graph G(Φ∆).
//
// Every grounding of every schema attribute becomes a node (so treatment
// attributes that never head a rule still have nodes); each satisfying
// binding of a rule's condition adds edges body-grounding -> head-grounding.
// Aggregate rules add edges source-grounding -> aggregate-grounding and tag
// the head nodes with their AggregateKind.
//
// Execution: GroundModel and ExtendGroundedModel run one serial pipeline.
// Node creation is bulk-built per attribute. One rule compiler turns the
// model into rules in merge order (causal rules, then aggregate rules);
// only the binding source differs — one full QueryEvaluator::Evaluate
// per rule condition, or the semi-naive delta — and bindings arrive as
// columnar BindingTables (no per-binding Tuple is ever built). Each rule
// then merges in one pass: per binding, AddNode on the head and on each
// resolvable body, then one AddEdges commits the rule's edges. Node
// values are finalized by copying the instance's typed per-attribute
// columns onto the row-aligned node-id columns. Nothing here reads the
// thread count, so the grounded graph — node ids, edge insertion order,
// values — is the same for every CARL_THREADS.
//
// Repeated groundings over one unchanged instance can share rule-condition
// binding tables through a BindingCache (QuerySession owns one): a derived
// §4.3 aggregate variant re-grounds without re-enumerating the base rules
// it shares with its parent model.

#ifndef CARL_CORE_GROUNDING_H_
#define CARL_CORE_GROUNDING_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "core/causal_model.h"
#include "graph/causal_graph.h"
#include "relational/aggregates.h"
#include "relational/binding_table.h"
#include "relational/instance.h"

namespace carl {

/// What a cached rule-condition binding table depends on: the predicates
/// of its condition atoms (a new fact there changes the bindings) and the
/// attributes of its condition constraints (a value write there changes
/// which bindings satisfy). Writes to attributes outside this set cannot
/// change the table.
struct BindingDeps {
  std::vector<PredicateId> predicates;  // sorted
  std::vector<AttributeId> attributes;  // sorted
};

/// Dense id of an interned binding-cache key. The exact key STRING (see
/// BindingCacheKey) is built and hashed once per rule per pass — InternKey
/// maps it to a stable dense id, and every lookup, staging scan,
/// invalidation, and snapshot after that compares plain int32s.
using BindingKeyId = SymbolId;
inline constexpr BindingKeyId kInvalidBindingKey = kInvalidSymbol;

/// Memoizes rule-condition binding tables by an exact (condition,
/// projection) encoding over one instance, interned to dense key ids. On
/// instance mutation the owner calls Invalidate with the delta — only
/// entries whose dependency set intersects the delta are dropped, so an
/// unrelated-relation mutation keeps every table (QuerySession drives
/// this; Clear remains the incomplete-delta fallback). Bounded FIFO on
/// BOTH entry count and total arena bytes — a binding table on a
/// >10M-fact workload is rows*arity*4 bytes, so a count bound alone could
/// pin gigabytes. Not thread-safe: QuerySession guards its cache with
/// the session mutex.
class BindingCache {
 public:
  /// Interns a key string into its dense id (stable for the cache's
  /// lifetime; eviction does not recycle ids).
  BindingKeyId InternKey(const std::string& key) {
    return key_interner_.Intern(key);
  }
  std::shared_ptr<const BindingTable> Find(BindingKeyId key);
  void Insert(BindingKeyId key, std::shared_ptr<const BindingTable> table,
              BindingDeps deps);
  /// Drops entries whose dependencies intersect the delta's touched
  /// predicates/attributes. An incomplete delta drops everything.
  void Invalidate(const InstanceDelta& delta);
  void Clear();

  /// Staging protocol for guarded passes: between BeginStaging and
  /// CommitStaging, Insert lands in a side buffer that Find still serves
  /// (so one pass reuses its own tables), but the committed entries are
  /// untouched. CommitStaging merges the buffer in insertion order;
  /// AbortStaging drops it whole — after an aborted pass the cache is
  /// pointer-identical to its pre-pass state (the no-poison invariant the
  /// fault-fuzz tests assert via SnapshotEntries).
  void BeginStaging() { staging_ = true; }
  void CommitStaging();
  void AbortStaging();
  bool staging() const { return staging_; }

  /// Test hook: the committed entries as stable (key-id, table-pointer)
  /// pairs, sorted by key id. Pointer equality across two snapshots
  /// proves the cache was not touched in between.
  std::vector<std::pair<BindingKeyId, const BindingTable*>> SnapshotEntries()
      const;

  size_t size() const { return entries_.size(); }
  /// Total arena bytes pinned by the cached tables.
  size_t total_bytes() const { return total_bytes_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  /// Entry capacity; inserting beyond it evicts the oldest entry.
  void set_max_entries(size_t max) { max_entries_ = max == 0 ? 1 : max; }
  /// Byte budget; oldest entries are evicted until the remainder fits.
  /// A single table larger than the budget is still cached (alone).
  void set_max_bytes(size_t max) { max_bytes_ = max; }

 private:
  struct CacheEntry {
    std::shared_ptr<const BindingTable> table;
    BindingDeps deps;
  };
  StringInterner key_interner_;  // key string -> dense BindingKeyId
  std::unordered_map<BindingKeyId, CacheEntry> entries_;
  std::vector<BindingKeyId> insertion_order_;  // oldest first
  // Staged inserts: (key, entry) in insertion order, merged on commit.
  bool staging_ = false;
  std::vector<std::pair<BindingKeyId, CacheEntry>> staged_;
  size_t max_entries_ = 64;
  size_t max_bytes_ = size_t{256} << 20;  // 256 MiB
  size_t total_bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

/// Wall-clock breakdown of one GroundModel call, for benches and phase
/// regression tracking (a handful of steady_clock reads per pass).
struct GroundingPhaseStats {
  double node_build_s = 0.0;  ///< step 1: bulk node build
  double enumerate_s = 0.0;   ///< rule compile + binding enumeration
  double merge_s = 0.0;       ///< node/edge merge, one pass per rule
  /// Equal to merge_s: the merge is one pass with no separate probe.
  /// Benchmark readers report merge_s - splice_s as probe time, which
  /// therefore reads 0.
  double splice_s = 0.0;
  double finalize_s = 0.0;    ///< topo order + value pass
  /// The graph-build share of a pass (everything that touches the graph
  /// store: bulk nodes plus the rule merges).
  double graph_build_s() const { return node_build_s + merge_s; }
};

/// The grounded model: graph + per-node metadata + a numeric value view.
class GroundedModel {
 public:
  const CausalGraph& graph() const { return graph_; }
  const Instance& instance() const { return *instance_; }
  const RelationalCausalModel& model() const { return *model_; }
  const Schema& schema() const { return model_->extended_schema(); }

  /// Aggregate kind of a node, when the node's attribute is defined by an
  /// aggregate rule.
  std::optional<AggregateKind> NodeAggregate(NodeId id) const;

  /// Numeric value of a grounded attribute: base attributes read the
  /// instance (non-numeric or missing values yield nullopt); aggregate
  /// nodes aggregate their parents' values, yielding nullopt when no
  /// parent has a value. All values are precomputed at grounding time
  /// (topological column pass), so this is a pure read — safe to call
  /// from concurrent threads.
  std::optional<double> NodeValue(NodeId id) const;

  /// "Attr[c1, c2]" for diagnostics.
  std::string NodeName(NodeId id) const;

  /// Number of grounded rule instantiations processed (diagnostics).
  size_t num_groundings() const { return num_groundings_; }

  /// Phase timings of the GroundModel call that built this model.
  const GroundingPhaseStats& phase_stats() const { return phase_stats_; }

 private:
  friend Result<GroundedModel> GroundModel(const Instance&,
                                           const RelationalCausalModel&,
                                           BindingCache*);
  friend Result<GroundedModel> ExtendGroundedModel(GroundedModel,
                                                   const InstanceDelta&);

  // Eagerly computes every node value: base attributes by copying the
  // instance's typed per-attribute columns (the bulk-built node prefix of
  // an attribute is row-aligned with its predicate's fact rows), with an
  // instance read only for overflow-stored values and rule-added non-fact
  // groundings; then AggregateValues over every aggregate node.
  void FinalizeValues(const std::vector<NodeId>& topo_order);
  // Sizes the aggregate tags to the graph and tags every aggregate-defined
  // node with id >= first_node with its kind.
  void TagAggregateNodes(size_t first_node);
  // Reads one node's value from the instance: numeric -> present, else
  // missing.
  void ReadInstanceValue(NodeId id);
  // Aggregates each aggregate node's sorted parent values in topological
  // order (parents first) — every aggregate node, or only those flagged
  // in `dirty` when it is non-null.
  void AggregateValues(const std::vector<NodeId>& topo_order,
                       const std::vector<char>* dirty);

  const Instance* instance_ = nullptr;
  const RelationalCausalModel* model_ = nullptr;
  CausalGraph graph_;
  std::vector<int8_t> node_has_aggregate_;
  std::vector<AggregateKind> node_aggregate_;
  size_t num_groundings_ = 0;
  GroundingPhaseStats phase_stats_;

  // Precomputed values: state 1 = missing, 2 = present.
  std::vector<int8_t> value_state_;
  std::vector<double> value_cache_;
};

/// Grounds `model` against `instance`. Fails if the grounded graph is
/// cyclic (recursive model) or if a rule references unknown predicates.
/// The instance and model must outlive the result. A non-null
/// `binding_cache` memoizes rule-condition binding tables across calls;
/// the caller must keep it paired with this exact instance state.
Result<GroundedModel> GroundModel(const Instance& instance,
                                  const RelationalCausalModel& model,
                                  BindingCache* binding_cache);
inline Result<GroundedModel> GroundModel(const Instance& instance,
                                         const RelationalCausalModel& model) {
  return GroundModel(instance, model, nullptr);
}

/// True when `delta` is within the incremental-extend contract for
/// `model`: the delta is complete (not trimmed), gained facts only (no
/// deletes exist in this store), wrote no attribute through the overflow
/// map, wrote no attribute referenced by a rule-condition constraint
/// (non-monotone: an old binding could appear or vanish), and no constant
/// named by a rule was interned inside the window. Everything else —
/// including in-place value overwrites of non-constraint attributes —
/// extends incrementally.
bool DeltaSupportsIncrementalExtend(const Instance& instance,
                                    const RelationalCausalModel& model,
                                    const InstanceDelta& delta);

/// Extends `base` — a grounding of its instance+model taken at
/// delta.from_generation — to the instance's current state, in time
/// proportional to the delta: new fact rows become nodes spliced into the
/// row-aligned per-attribute id columns, rule bindings touching the delta
/// are re-enumerated semi-naively (per-pivot watermark plans) and merged
/// through the graph's post-build edge overlay, and only new nodes,
/// written rows, and affected aggregates get their values recomputed.
/// The extended graph's node set, edge set, adjacency (as sets), values,
/// and aggregate tags are identical to a from-scratch ground of the
/// current state; raw node ids, edge commit order,
/// and num_groundings (which may double-count a binding witnessed by both
/// old and new rows) are not part of that contract. Fails if the delta is
/// outside the extend contract or the extended graph is cyclic.
Result<GroundedModel> ExtendGroundedModel(GroundedModel base,
                                          const InstanceDelta& delta);

}  // namespace carl

#endif  // CARL_CORE_GROUNDING_H_
