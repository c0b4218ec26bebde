#include "core/grounding.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "relational/evaluator.h"

namespace carl {

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
  // identity permutation over the full row): interning can pass the
  // binding's memoized row hash instead of re-hashing. Head refs hit this
  // constantly — DistinguishedVars orders head variables first.
  bool identity = false;

  size_t arity() const { return slots.size(); }

  // Fills out[0..arity) from a binding row. Requires !unresolvable.
  void Resolve(TupleView binding, SymbolId* out) const {
    for (size_t i = 0; i < slots.size(); ++i) {
      out[i] = slots[i] >= 0 ? binding[slots[i]] : constants[i];
    }
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

// One rule of the model as the pipeline sees it: a head, its body refs,
// and its condition. An aggregate rule is one body ref (its source) plus
// require_all. RulesInMergeOrder lists causal rules first, then aggregate
// rules — the model's rule order, and the merge order.
struct RuleView {
  const AttributeRef* head = nullptr;
  std::vector<const AttributeRef*> body;
  const ConjunctiveQuery* where = nullptr;
  // Causal rules drop only the edges of unresolvable bodies (the head
  // grounding still counts); aggregate rules need head and source both.
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

// One rule ready to merge: its bindings (shared with every rule of the
// pass that has the same condition and projection) plus compiled head
// and body refs.
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

  // A ref resolves for every binding or for none (CompiledRef::
  // unresolvable is fixed at compile time), so the per-binding skip
  // rules of the reference loop collapse to one decision per rule: no
  // grounding when the head cannot resolve or, under require_all, when
  // any body cannot.
  bool Skipped() const {
    if (head.unresolvable) return true;
    return require_all &&
           std::any_of(body.begin(), body.end(),
                       [](const CompiledRef& b) { return b.unresolvable; });
  }
};

// Enumerates and compiles every rule, in merge order: the full
// condition when `delta_watermarks` is null (GroundModel), else its
// semi-naive delta past those per-predicate watermarks
// (ExtendGroundedModel). A rule whose condition and projection equal an
// earlier rule's shares that rule's table, so each distinct condition is
// enumerated once per pass.
Result<std::vector<CompiledRule>> CompileRules(
    const Instance& instance, const RelationalCausalModel& model,
    const std::vector<uint32_t>* delta_watermarks) {
  const Schema& schema = model.extended_schema();
  const QueryEvaluator evaluator(&instance);
  std::vector<RuleView> views = RulesInMergeOrder(model);
  std::vector<std::vector<std::string>> projections;  // per compiled rule
  projections.reserve(views.size());
  std::vector<CompiledRule> compiled;
  compiled.reserve(views.size());
  for (const RuleView& view : views) {
    std::vector<std::string> vars = DistinguishedVars(*view.head, view.body);
    std::unordered_map<std::string, size_t> var_slots;
    for (size_t i = 0; i < vars.size(); ++i) var_slots.emplace(vars[i], i);

    CompiledRule job;
    job.require_all = view.require_all;
    for (size_t r = 0; r < compiled.size(); ++r) {
      if (*views[r].where == *view.where && projections[r] == vars) {
        job.bindings = compiled[r].bindings;
        break;
      }
    }
    if (job.bindings == nullptr) {
      CARL_TRACE_SCOPE("grounding.rule.enumerate");
      CARL_ASSIGN_OR_RETURN(
          BindingTable table,
          delta_watermarks == nullptr
              ? evaluator.Evaluate(*view.where, vars)
              : evaluator.EvaluateDelta(*view.where, vars, *delta_watermarks));
      job.bindings = std::make_shared<const BindingTable>(std::move(table));
    }
    CARL_ASSIGN_OR_RETURN(AttributeId head_attr,
                          schema.FindAttribute(view.head->attribute));
    job.head = CompileRef(instance, head_attr, *view.head, var_slots);
    job.body.reserve(view.body.size());
    for (const AttributeRef* b : view.body) {
      CARL_ASSIGN_OR_RETURN(AttributeId aid,
                            schema.FindAttribute(b->attribute));
      job.body.push_back(CompileRef(instance, aid, *b, var_slots));
    }
    projections.push_back(std::move(vars));
    compiled.push_back(std::move(job));
  }
  return compiled;
}

// Interns the grounding of `ref` at binding `i` (find-or-insert). Identity
// refs pass the binding's memoized row hash, so they are never re-hashed.
NodeId InternRef(const CompiledRef& ref, const BindingTable& bindings,
                 size_t i, SymbolId* scratch, CausalGraph* graph) {
  TupleView binding = bindings.row(i);
  if (ref.identity) {
    return graph->AddNode(ref.attribute, binding, bindings.row_hash(i));
  }
  ref.Resolve(binding, scratch);
  return graph->AddNode(ref.attribute, TupleView(scratch, ref.arity()));
}

// Bindings merged between two polls of the ambient guard token — the
// largest chunk ParallelFor runs between two of its polls.
constexpr size_t kMergePollStride = 2048;

// Merges every rule's groundings into the graph, one pass per rule in
// merge order. Per binding: AddNode on the head, then on each resolvable
// body, appending one body -> head edge each; then one AddEdges commits
// the rule. This is the per-binding reference loop
// (test_fixtures::GroundByBinding), so node ids, edge order, and
// num_groundings match it exactly. A guard stop, polled every
// kMergePollStride bindings, abandons the pass before the rule's commit.
// A non-null `heads` collects every binding's head node — a superset of
// the new edges' targets.
void MergeRuleGroundings(const std::vector<CompiledRule>& rules,
                         CausalGraph* graph, size_t* num_groundings,
                         std::vector<NodeId>* heads) {
  guard::ExecToken* token = guard::CurrentToken();
  std::vector<CausalGraph::Edge> edges;
  std::vector<SymbolId> scratch;
  for (const CompiledRule& rule : rules) {
    if (rule.Skipped()) continue;
    CARL_TRACE_SCOPE("grounding.rule.merge");
    const BindingTable& bindings = *rule.bindings;
    size_t live_bodies = 0;
    for (const CompiledRef& b : rule.body) live_bodies += !b.unresolvable;
    scratch.resize(rule.max_arity());
    edges.clear();
    edges.reserve(bindings.size() * live_bodies);
    for (size_t i = 0; i < bindings.size(); ++i) {
      if (i % kMergePollStride == 0 && token != nullptr &&
          token->CheckDeadline()) {
        return;
      }
      NodeId head = InternRef(rule.head, bindings, i, scratch.data(), graph);
      if (heads != nullptr) heads->push_back(head);
      for (const CompiledRef& b : rule.body) {
        if (b.unresolvable) continue;
        NodeId body = InternRef(b, bindings, i, scratch.data(), graph);
        edges.push_back(CausalGraph::Edge{body, head});
      }
    }
    *num_groundings += bindings.size();
    graph->AddEdges(edges);
  }
}

}  // namespace

std::optional<AggregateKind> GroundedModel::NodeAggregate(NodeId id) const {
  const AggregateRule* rule =
      model_->AggregateRuleOf(graph_.node(id).attribute);
  if (rule == nullptr) return std::nullopt;
  return rule->aggregate;
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

void GroundedModel::AggregateValues(const std::vector<NodeId>& order) {
  // Parents precede children in `order`, so parent values (including
  // aggregate-of-aggregate chains) are already final. Parent
  // values are sorted before aggregation — parent list order is an
  // edge-commit-order artifact that differs between a from-scratch ground
  // and an incremental extend, and floating-point accumulation is not
  // commutative; the sorted form makes aggregate values a function of the
  // parent value SET, bit-identical across both paths.
  std::vector<double> parent_values;
  for (NodeId id : order) {
    const AggregateRule* rule =
        model_->AggregateRuleOf(graph_.node(id).attribute);
    if (rule == nullptr) continue;
    parent_values.clear();
    for (NodeId p : graph_.Parents(id)) {
      if (value_state_[p] == 2) parent_values.push_back(value_cache_[p]);
    }
    if (parent_values.empty()) {
      value_state_[id] = 1;
      continue;
    }
    std::sort(parent_values.begin(), parent_values.end());
    value_cache_[id] = ApplyAggregate(rule->aggregate, parent_values);
    value_state_[id] = 2;
  }
}

Result<std::vector<NodeId>> GroundedModel::ConeOrder(
    const std::vector<NodeId>& seeds) {
  const size_t n = graph_.num_nodes();
  cone_mark_.resize(n, 0);
  cone_pending_.resize(n, 0);
  if (++cone_epoch_ == 0) {
    std::fill(cone_mark_.begin(), cone_mark_.end(), 0);
    cone_epoch_ = 1;
  }
  auto in_cone = [this](NodeId id) { return cone_mark_[id] == cone_epoch_; };
  std::vector<NodeId> cone;
  auto enter = [&](NodeId id) {
    if (in_cone(id)) return;
    cone_mark_[id] = cone_epoch_;
    cone.push_back(id);
  };
  for (NodeId id : seeds) enter(id);
  for (size_t i = 0; i < cone.size(); ++i) {
    for (NodeId c : graph_.Children(cone[i])) enter(c);
  }
  // Kahn over the cone. Parents outside it hold final values and cannot
  // lie on a cycle through it, so only in-cone parents are counted.
  std::vector<NodeId> order;
  order.reserve(cone.size());
  for (NodeId id : cone) {
    uint32_t pending = 0;
    for (NodeId p : graph_.Parents(id)) pending += in_cone(p) ? 1 : 0;
    cone_pending_[id] = pending;
    if (pending == 0) order.push_back(id);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (NodeId c : graph_.Children(order[i])) {
      if (--cone_pending_[c] == 0) order.push_back(c);
    }
  }
  if (order.size() != cone.size()) {
    // The message CausalGraph::TopologicalOrder gives a full ground.
    return Status::FailedPrecondition(
        "causal graph has a cycle (recursive rules are not supported)");
  }
  return order;
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
  for (const AttributeDef& attr : schema().attributes()) {
    // Extended-schema attributes (aggregate heads) are unknown to the
    // instance: AggregateValues below values their nodes, never a column
    // read.
    if (static_cast<size_t>(attr.id) >= instance_->schema().num_attributes()) {
      continue;
    }
    const std::vector<NodeId>& nodes = graph_.NodesOfAttribute(attr.id);
    if (nodes.empty()) continue;
    size_t bulk = std::min(nodes.size(), instance_->NumRows(attr.predicate));
    Instance::NumericColumn col = instance_->NumericColumnOf(attr.id);
    size_t covered = std::min(bulk, col.num_rows);
    for (size_t r = 0; r < covered; ++r) {
      NodeId id = nodes[r];
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
        ReadInstanceValue(nodes[r]);
      }
    }
  }
  AggregateValues(topo_order);
}

std::string GroundedModel::NodeName(NodeId id) const {
  return graph_.NodeName(id, schema(), instance_->interner());
}

Result<GroundedModel> GroundModel(const Instance& instance,
                                  const RelationalCausalModel& model) {
  CARL_TRACE_SCOPE("grounding.ground_model");
  static obs::Counter& pass_counter =
      obs::Registry::Global().GetCounter("grounding.ground_model_passes");
  static obs::Histogram& pass_hist = obs::Registry::Global().GetHistogram(
      "grounding.ground_model_seconds",
      obs::Histogram::ExponentialBounds(1e-4, 4.0, 10));
  pass_counter.Increment();
  obs::MonotonicTimer pass_timer;

  GroundedModel grounded;
  grounded.instance_ = &instance;
  grounded.model_ = &model;
  // Same reset discipline as ExtendGroundedModel: the stats always start
  // from zero, whether the struct is freshly constructed or reused.
  grounded.phase_stats_ = GroundingPhaseStats{};

  const Schema& schema = model.extended_schema();
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
    grounded.graph_.AddNodesBulk(batches);
  }
  grounded.phase_stats_.node_build_s = phase_timer.Seconds();

  // 2. Compile every rule and enumerate each distinct condition into a
  // columnar binding table.
  phase_timer.Reset();
  std::vector<CompiledRule> compiled;
  {
    CARL_TRACE_SCOPE("grounding.enumerate");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.enumerate"));
    CARL_ASSIGN_OR_RETURN(compiled, CompileRules(instance, model, nullptr));
  }
  grounded.phase_stats_.enumerate_s = phase_timer.Seconds();

  // 3. Merge every rule's nodes and edges, one pass and one edge commit
  // per rule.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.merge");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.merge"));
    MergeRuleGroundings(compiled, &grounded.graph_,
                        &grounded.num_groundings_, nullptr);
    CARL_RETURN_IF_ERROR(guard::CheckPoint());
    grounded.graph_.CompactAdjacency();
  }
  grounded.phase_stats_.merge_s = phase_timer.Seconds();
  grounded.phase_stats_.splice_s = grounded.phase_stats_.merge_s;

  // 4. The paper requires non-recursive models; reject cyclic groundings.
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

bool DeltaSupportsIncrementalExtend(const Instance& instance,
                                    const RelationalCausalModel& model,
                                    const InstanceDelta& delta) {
  if (!delta.complete) return false;
  // Overflow writes attach values to tuples outside the row-aligned
  // columns; an extend cannot tell which existing nodes they hit.
  // Writes to constraint-read attributes are non-monotone: an old
  // binding (over exclusively old rows, invisible to every delta pivot)
  // may newly satisfy or newly fail its constraint.
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    if (a.overflow || model.ConstraintReads(a.attribute)) return false;
  }
  // A rule constant interned inside the window had no symbol id when the
  // base grounding compiled its rule refs, so an extend could miss the
  // groundings it now resolves.
  for (const std::string& constant : model.rule_constants()) {
    const SymbolId id = instance.LookupConstant(constant);
    if (id != kInvalidSymbol &&
        static_cast<size_t>(id) >= delta.prev_num_constants) {
      return false;
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
  // semi-naive plan per distinct condition, pivot atoms
  // watermark-restricted to new rows.
  phase_timer.Reset();
  std::vector<CompiledRule> compiled;
  {
    CARL_TRACE_SCOPE("grounding.extend.delta_plan");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.enumerate"));
    CARL_ASSIGN_OR_RETURN(compiled,
                          CompileRules(instance, model, &watermarks));
  }
  out.phase_stats_.enumerate_s = phase_timer.Seconds();

  // 3. Merge the delta groundings in rule order — the same per-rule merge
  // as a full ground, appending to the touched adjacency lists only.
  // AddNode and the edge merge dedupe, so a binding the base
  // already committed (its projection also has an all-old witness)
  // changes nothing in the graph — only num_groundings_ counts it again,
  // which is why the extend contract excludes that counter.
  phase_timer.Reset();
  std::vector<NodeId> seeds;
  {
    CARL_TRACE_SCOPE("grounding.extend.splice");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.merge"));
    MergeRuleGroundings(compiled, &graph, &out.num_groundings_, &seeds);
    CARL_RETURN_IF_ERROR(guard::CheckPoint());
  }
  out.phase_stats_.merge_s = phase_timer.Seconds();
  out.phase_stats_.splice_s = out.phase_stats_.merge_s;

  // 4. Cycle check (the extension could close a cycle) over the forward
  // cone of everything the delta created or wrote: the delta bindings'
  // heads (collected by the merge), the new nodes and the written rows'
  // nodes. The cone's order also drives the aggregate recompute below.
  phase_timer.Reset();
  CARL_TRACE_SCOPE("grounding.extend.value_pass");
  CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.finalize"));
  const size_t n = graph.num_nodes();
  for (size_t id = nodes_before; id < n; ++id) {
    seeds.push_back(static_cast<NodeId>(id));
  }
  for (const InstanceDelta::AttributeDelta& ad : delta.attributes) {
    const std::vector<NodeId>& nodes = graph.NodesOfAttribute(ad.attribute);
    for (uint32_t row : ad.rows) {
      if (row < nodes.size()) seeds.push_back(nodes[row]);
    }
  }
  CARL_ASSIGN_OR_RETURN(std::vector<NodeId> cone_order, out.ConeOrder(seeds));

  // 5. Values, delta-sized: new nodes read the instance; written rows
  // refresh in place; the cone's aggregates recompute, parents first.
  out.value_state_.resize(n, 1);
  out.value_cache_.resize(n, 0.0);
  for (NodeId id = static_cast<NodeId>(nodes_before);
       id < static_cast<NodeId>(n); ++id) {
    if (!model.IsAggregateAttribute(graph.node(id).attribute)) {
      out.ReadInstanceValue(id);
    }
  }
  for (const InstanceDelta::AttributeDelta& ad : delta.attributes) {
    const std::vector<NodeId>& nodes = graph.NodesOfAttribute(ad.attribute);
    Instance::NumericColumn col = instance.NumericColumnOf(ad.attribute);
    for (uint32_t row : ad.rows) {
      if (row >= nodes.size()) continue;
      NodeId id = nodes[row];
      if (row < col.num_rows && col.present[row]) {
        out.value_cache_[id] = col.values[row];
        out.value_state_[id] = 2;
      } else {
        out.ReadInstanceValue(id);
      }
    }
  }
  out.AggregateValues(cone_order);
  out.phase_stats_.finalize_s = phase_timer.Seconds();
  pass_hist.Record(pass_timer.Seconds());
  return out;
}

}  // namespace carl
