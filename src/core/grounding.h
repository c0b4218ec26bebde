// Grounding (paper Def 3.5, §3.2.3): instantiate a relational causal model
// against a relational skeleton, producing the grounded causal graph G(Φ∆).
//
// Every grounding of every schema attribute becomes a node (so treatment
// attributes that never head a rule still have nodes); each satisfying
// binding of a rule's condition adds edges body-grounding -> head-grounding.
// Aggregate rules add edges source-grounding -> aggregate-grounding. A
// node's aggregate kind is its attribute's, looked up in the model's rule
// facts (RelationalCausalModel::AggregateRuleOf).
//
// Execution: GroundModel and ExtendGroundedModel run one serial pipeline.
// Node creation is bulk-built per attribute. One rule compiler turns the
// model into rules in merge order (causal rules, then aggregate rules);
// only the binding source differs — one full QueryEvaluator::Evaluate
// per rule condition, or the semi-naive delta — and bindings arrive as
// columnar BindingTables (no per-binding Tuple is ever built). A rule
// whose condition and projection equal an earlier rule's in the same
// pass shares that rule's table, so each distinct condition is
// enumerated once per pass, and no table outlives its pass. Each rule
// then merges in one pass: per binding, AddNode on the head and on each
// resolvable body, then one AddEdges commits the rule's edges. A ground
// then compacts the adjacency into node order, checks for cycles over the
// whole graph and finalizes node values by copying the instance's typed
// per-attribute columns onto the row-aligned node-id columns; an extend
// does both over the delta's forward cone only. Nothing here reads the
// thread count, so the grounded graph — node ids, edge insertion order,
// values — is the same for every CARL_THREADS.

#ifndef CARL_CORE_GROUNDING_H_
#define CARL_CORE_GROUNDING_H_

#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "core/causal_model.h"
#include "graph/causal_graph.h"
#include "relational/aggregates.h"
#include "relational/instance.h"

namespace carl {

/// Wall-clock breakdown of one GroundModel call, for benches and phase
/// regression tracking (a handful of steady_clock reads per pass).
struct GroundingPhaseStats {
  double node_build_s = 0.0;  ///< step 1: bulk node build
  double enumerate_s = 0.0;   ///< rule compile + binding enumeration
  double merge_s = 0.0;       ///< node/edge merge, one pass per rule
  /// Equal to merge_s: the merge is one pass with no separate probe.
  /// Its last reader is carlbench (grounding.splice_ms, and
  /// grounding.probe_ms as merge_s - splice_s, which therefore reads 0);
  /// the field goes once carlbench stops reading it.
  double splice_s = 0.0;
  double finalize_s = 0.0;    ///< cycle check/order + value pass
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

  /// Aggregate kind of a node: its attribute's aggregate rule's, or
  /// nullopt when no aggregate rule defines the attribute.
  std::optional<AggregateKind> NodeAggregate(NodeId id) const;

  /// Numeric value of a grounded attribute: base attributes read the
  /// instance (non-numeric or missing values yield nullopt); aggregate
  /// nodes aggregate their parents' values, yielding nullopt when no
  /// parent has a value. All values are precomputed at grounding time
  /// (topological column pass), so this is a pure read — safe to call
  /// from concurrent threads.
  std::optional<double> NodeValue(NodeId id) const {
    CARL_CHECK(id >= 0 && static_cast<size_t>(id) < value_state_.size());
    if (value_state_[id] != 2) return std::nullopt;
    return value_cache_[id];
  }

  /// True iff `id` lies in the forward cone of the extend that produced
  /// this model: every node that extend gave a parent or a value, and
  /// their descendants. False for every node of a from-scratch ground.
  bool InExtendCone(NodeId id) const {
    return cone_epoch_ != 0 && static_cast<size_t>(id) < cone_mark_.size() &&
           cone_mark_[id] == cone_epoch_;
  }

  /// "Attr[c1, c2]" for diagnostics.
  std::string NodeName(NodeId id) const;

  /// Number of grounded rule instantiations processed (diagnostics).
  size_t num_groundings() const { return num_groundings_; }

  /// Phase timings of the GroundModel call that built this model.
  const GroundingPhaseStats& phase_stats() const { return phase_stats_; }

 private:
  friend Result<GroundedModel> GroundModel(const Instance&,
                                           const RelationalCausalModel&);
  friend Result<GroundedModel> ExtendGroundedModel(GroundedModel,
                                                   const InstanceDelta&);

  // Eagerly computes every node value: base attributes by copying the
  // instance's typed per-attribute columns (the bulk-built node prefix of
  // an attribute is row-aligned with its predicate's fact rows), with an
  // instance read only for overflow-stored values and rule-added non-fact
  // groundings; then AggregateValues over every aggregate node.
  void FinalizeValues(const std::vector<NodeId>& topo_order);
  // Reads one node's value from the instance: numeric -> present, else
  // missing.
  void ReadInstanceValue(NodeId id);
  // Aggregates the sorted parent values of each node of `order` whose
  // attribute an aggregate rule defines; `order` lists parents before
  // children.
  void AggregateValues(const std::vector<NodeId>& order);
  // The forward cone of `seeds` (their closure over Children) in
  // topological order, by Kahn's algorithm over the cone counting only
  // in-cone parents; FailedPrecondition when the cone holds a cycle.
  // Over an acyclic base, every cycle an extension closes runs through a
  // new edge, whose target is a seed, so it lies inside the cone.
  Result<std::vector<NodeId>> ConeOrder(const std::vector<NodeId>& seeds);

  const Instance* instance_ = nullptr;
  const RelationalCausalModel* model_ = nullptr;
  CausalGraph graph_;
  size_t num_groundings_ = 0;
  GroundingPhaseStats phase_stats_;

  // Precomputed values: state 1 = missing, 2 = present.
  std::vector<int8_t> value_state_;
  std::vector<double> value_cache_;

  // ConeOrder scratch, reused across extends: cone_mark_[id] ==
  // cone_epoch_ iff id is in the current cone, and then cone_pending_[id]
  // counts its in-cone parents not yet ordered.
  std::vector<uint32_t> cone_mark_;
  std::vector<uint32_t> cone_pending_;
  uint32_t cone_epoch_ = 0;
};

/// Grounds `model` against `instance`. Fails if the grounded graph is
/// cyclic (recursive model) or if a rule references unknown predicates.
/// The instance and model must outlive the result.
Result<GroundedModel> GroundModel(const Instance& instance,
                                  const RelationalCausalModel& model);

/// True when `delta` is within the incremental-extend contract for
/// `model`: the delta is complete (not trimmed), gained facts only (no
/// deletes exist in this store), wrote no attribute through the overflow
/// map, wrote no attribute the model's constraints read (ConstraintReads;
/// non-monotone: an old binding could appear or vanish), and none of its
/// rule_constants() was interned inside the window. Everything else —
/// including in-place value overwrites of non-constraint attributes —
/// extends incrementally. Reads the model's rule facts, not its rules.
bool DeltaSupportsIncrementalExtend(const Instance& instance,
                                    const RelationalCausalModel& model,
                                    const InstanceDelta& delta);

/// Extends `base` — a grounding of its instance+model taken at
/// delta.from_generation — to the instance's current state, in time
/// proportional to the delta: new fact rows become nodes spliced into the
/// row-aligned per-attribute id columns, rule bindings touching the delta
/// are re-enumerated semi-naively (per-pivot watermark plans) and their
/// edges appended to the touched adjacency lists, and the cycle check
/// and value recompute run over the delta's forward cone only — the
/// nodes reachable from the new nodes, the written rows' nodes and the
/// delta bindings' heads. Nothing in an extend walks the whole graph.
/// The extended graph's node set, edge set, adjacency (as sets) and
/// values are identical to a from-scratch ground of the current state;
/// raw node ids, edge commit order,
/// and num_groundings (which may double-count a binding witnessed by both
/// old and new rows) are not part of that contract. Fails if the delta is
/// outside the extend contract or the extended graph is cyclic.
Result<GroundedModel> ExtendGroundedModel(GroundedModel base,
                                          const InstanceDelta& delta);

}  // namespace carl

#endif  // CARL_CORE_GROUNDING_H_
