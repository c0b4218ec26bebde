#include "core/unit_table.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/parallel.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {

std::vector<std::string> UnitTable::AllCovariateCols() const {
  std::vector<std::string> cols = own_covariate_cols;
  cols.insert(cols.end(), peer_covariate_cols.begin(),
              peer_covariate_cols.end());
  return cols;
}

namespace {

struct RequestPlan {
  AttributeId treatment;
  AttributeId response;
  AttributeId response_source = kInvalidAttribute;  // for aggregates
  std::optional<AggregateKind> response_aggregate;
  const BindingTable* allowed_sources = nullptr;
  // reached[a] != 0 iff the treatment reaches attribute a in the model's
  // attribute graph (the treatment included).
  std::vector<uint8_t> reached;
};

// The attributes `treatment` reaches in the model's attribute graph — the
// relational dependencies of Maier et al.'s abstract ground graph, lifted
// to attributes: one edge body -> head per body ref of a causal rule and
// one edge source -> head per aggregate rule. Every ground edge
// instantiates one of them, so every node on a ground path T[p] -> ... ->
// Y[x] has a reached attribute, and the peer search may skip the rest.
Result<std::vector<uint8_t>> ReachedAttributes(
    const RelationalCausalModel& model, AttributeId treatment) {
  const Schema& schema = model.extended_schema();
  std::vector<std::pair<AttributeId, AttributeId>> edges;
  auto add_edge = [&](const AttributeRef& from,
                      const AttributeRef& to) -> Status {
    CARL_ASSIGN_OR_RETURN(AttributeId f, schema.FindAttribute(from.attribute));
    CARL_ASSIGN_OR_RETURN(AttributeId t, schema.FindAttribute(to.attribute));
    edges.emplace_back(f, t);
    return Status::OK();
  };
  for (const CausalRule& rule : model.rules()) {
    for (const AttributeRef& body : rule.body) {
      CARL_RETURN_IF_ERROR(add_edge(body, rule.head));
    }
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    CARL_RETURN_IF_ERROR(add_edge(rule.source, rule.head));
  }
  std::vector<uint8_t> reached(schema.num_attributes(), 0);
  reached[treatment] = 1;
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [from, to] : edges) {
      if (reached[from] != 0 && reached[to] == 0) {
        reached[to] = 1;
        grew = true;
      }
    }
  }
  return reached;
}

Result<RequestPlan> PlanRequest(const GroundedModel& grounded,
                                const UnitTableRequest& request) {
  const Schema& schema = grounded.schema();
  if (request.treatment == kInvalidAttribute ||
      request.response == kInvalidAttribute) {
    return Status::InvalidArgument("unit table needs treatment and response");
  }
  const AttributeDef& t_def = schema.attribute(request.treatment);
  const AttributeDef& y_def = schema.attribute(request.response);
  if (t_def.predicate != y_def.predicate) {
    return Status::FailedPrecondition(
        "response " + y_def.name + " is not on the treatment's predicate " +
        schema.predicate(t_def.predicate).name +
        "; unify treated and response units first (see §4.3)");
  }
  RequestPlan plan;
  plan.treatment = request.treatment;
  plan.response = request.response;
  if (request.allowed_sources.has_value()) {
    plan.allowed_sources = &*request.allowed_sources;
  }
  Result<const AggregateRule*> agg =
      grounded.model().FindAggregateRule(y_def.name);
  if (agg.ok()) {
    plan.response_aggregate = (*agg)->aggregate;
    CARL_ASSIGN_OR_RETURN(plan.response_source,
                          schema.FindAttribute((*agg)->source.attribute));
  }
  CARL_ASSIGN_OR_RETURN(plan.reached,
                        ReachedAttributes(grounded.model(), plan.treatment));
  return plan;
}

bool SourceAllowed(const RequestPlan& plan, const GroundedAttribute& g) {
  if (plan.allowed_sources == nullptr) return true;
  return plan.allowed_sources->Contains(g.args);
}

// Resolved units, flattened: each unit appends its entries, so a unit's
// run in each list begins where the previous unit's ends.
struct NodeLists {
  std::vector<NodeId> peers;      // sorted T[p] of the relational peers
  std::vector<NodeId> own_covs;   // observed parents of T[x]
  std::vector<NodeId> peer_covs;  // observed parents of the peers' T[p]
};

// One unit's resolved values and the ends of its runs in its chunk's
// NodeLists. Units dropped for missing values append nothing.
struct UnitSlot {
  double y = 0.0;
  double t = 0.0;
  size_t peers_end = 0;
  size_t own_covs_end = 0;
  size_t peer_covs_end = 0;
  bool resolved = false;
};

// Algorithm 1's per-unit step, for one thread at a time. Traversals mark
// nodes in a stamp array over node ids: a node is marked in the current
// pass iff its stamp equals the pass's epoch, so a new pass bumps the
// epoch instead of clearing the array.
class UnitResolver {
 public:
  UnitResolver(const GroundedModel& grounded, const RequestPlan& plan)
      : grounded_(grounded),
        graph_(grounded.graph()),
        plan_(plan),
        stamp_(graph_.num_nodes(), 0) {}

  // Resolves the unit with treatment node `t_node` and response node
  // `y_node` into `slot` and appends its peers and covariates to `out`.
  // Returns false, appending nothing, when the unit lacks a treatment or
  // response value.
  Result<bool> Resolve(NodeId t_node, NodeId y_node, UnitSlot* slot,
                       NodeLists* out) {
    if (t_node == kInvalidNode) return false;
    std::optional<double> t = grounded_.NodeValue(t_node);
    if (!t.has_value()) return false;
    if (*t != 0.0 && *t != 1.0) {
      return Status::InvalidArgument(StrFormat(
          "treatment must be binary 0/1; unit %s has value %g",
          grounded_.NodeName(t_node).c_str(), *t));
    }
    if (y_node == kInvalidNode) return false;
    std::optional<double> y = ResolveResponse(y_node);
    if (!y.has_value()) return false;
    slot->t = *t;
    slot->y = *y;

    // Peers (Def 4.3: p is a peer of x iff a directed path T[p] -> Y[x]
    // exists): the treatment nodes other than T[x] among the ancestors of
    // the response groundings. Only nodes of reached attributes can lie on
    // such a path, so the search enters no other. The visit order is
    // free; the set is not.
    const size_t peers_begin = out->peers.size();
    uint32_t epoch = NextEpoch();
    frontier_.clear();
    for (NodeId s : starts_) {
      if (Reached(s) && Mark(s, epoch)) frontier_.push_back(s);
    }
    while (!frontier_.empty()) {
      NodeId n = frontier_.back();
      frontier_.pop_back();
      ++nodes_expanded_;
      if (n != t_node && graph_.node(n).attribute == plan_.treatment) {
        out->peers.push_back(n);
      }
      for (NodeId p : graph_.Parents(n)) {
        if (Reached(p) && Mark(p, epoch)) frontier_.push_back(p);
      }
    }
    std::sort(out->peers.begin() + static_cast<std::ptrdiff_t>(peers_begin),
              out->peers.end());

    // Covariates (Theorem 5.2): the observed, valued parents of T[x], then
    // of each peer's T[p] in peer order, excluding treatment nodes (the t
    // / peer_t columns carry those). One pass: a node lands once, in the
    // first list that reaches it.
    epoch = NextEpoch();
    auto collect = [&](NodeId treated, std::vector<NodeId>* dst) {
      for (NodeId p : graph_.Parents(treated)) {
        if (graph_.node(p).attribute == plan_.treatment) continue;
        if (!grounded_.NodeValue(p).has_value()) continue;
        if (Mark(p, epoch)) dst->push_back(p);
      }
    };
    collect(t_node, &out->own_covs);
    const size_t peers_end = out->peers.size();
    for (size_t i = peers_begin; i < peers_end; ++i) {
      collect(out->peers[i], &out->peer_covs);
    }
    return true;
  }

  // The last resolved unit's response grounding(s): the response node for
  // base responses, the filtered valued source parents for aggregates.
  const std::vector<NodeId>& starts() const { return starts_; }

  // Nodes the peer searches of this resolver have expanded.
  uint64_t nodes_expanded() const { return nodes_expanded_; }

  // Starts a marking pass.
  uint32_t NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: stale stamps would alias new passes
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    return epoch_;
  }
  // Marks `node` in pass `epoch`; false if it already was.
  bool Mark(NodeId node, uint32_t epoch) {
    if (stamp_[node] == epoch) return false;
    stamp_[node] = epoch;
    return true;
  }

 private:
  bool Reached(NodeId node) const {
    return plan_.reached[graph_.node(node).attribute] != 0;
  }

  // The unit's response value, with its grounding(s) in starts_; nullopt
  // when the response is filtered out or has no value.
  std::optional<double> ResolveResponse(NodeId y_node) {
    starts_.clear();
    if (!plan_.response_aggregate.has_value()) {
      if (!SourceAllowed(plan_, graph_.node(y_node))) return std::nullopt;
      std::optional<double> y = grounded_.NodeValue(y_node);
      if (y.has_value()) starts_.push_back(y_node);
      return y;
    }
    source_values_.clear();
    for (NodeId p : graph_.Parents(y_node)) {
      const GroundedAttribute g = graph_.node(p);
      if (g.attribute != plan_.response_source) continue;
      if (!SourceAllowed(plan_, g)) continue;
      std::optional<double> v = grounded_.NodeValue(p);
      if (!v.has_value()) continue;
      starts_.push_back(p);
      source_values_.push_back(*v);
    }
    if (starts_.empty()) return std::nullopt;
    return ApplyAggregate(*plan_.response_aggregate, source_values_.data(),
                          source_values_.size());
  }

  const GroundedModel& grounded_;
  const CausalGraph& graph_;
  const RequestPlan& plan_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> starts_;
  std::vector<NodeId> frontier_;
  std::vector<double> source_values_;
  uint64_t nodes_expanded_ = 0;
};

// Hands each thread that runs a chunk its own resolver: taken at chunk
// start and returned at chunk end, so the pool holds at most one per
// participating thread, and all are freed when the call ends.
class ResolverPool {
 public:
  ResolverPool(const GroundedModel& grounded, const RequestPlan& plan)
      : grounded_(grounded), plan_(plan) {}

  std::unique_ptr<UnitResolver> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<UnitResolver>(grounded_, plan_);
    std::unique_ptr<UnitResolver> resolver = std::move(free_.back());
    free_.pop_back();
    return resolver;
  }
  void Return(std::unique_ptr<UnitResolver> resolver) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(resolver));
  }
  // Nodes expanded by every resolver; call once all are returned.
  uint64_t NodesExpanded() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const std::unique_ptr<UnitResolver>& r : free_) {
      total += r->nodes_expanded();
    }
    return total;
  }

 private:
  const GroundedModel& grounded_;
  const RequestPlan& plan_;
  std::mutex mu_;
  std::vector<std::unique_ptr<UnitResolver>> free_;
};

// A kept unit: its instance row and its runs in its chunk's NodeLists.
struct KeptUnit {
  size_t row;
  NodeIdSpan peers;
  NodeIdSpan own_covs;
  NodeIdSpan peer_covs;
};

// One column group's values, flattened: row r's group is
// values[ends[r - 1], ends[r]) (from 0 for r = 0).
struct Group {
  std::vector<double> values;
  std::vector<size_t> ends;
};

size_t WidestRow(const Group& group) {
  size_t widest = 0;
  size_t begin = 0;
  for (size_t end : group.ends) {
    widest = std::max(widest, end - begin);
    begin = end;
  }
  return widest;
}

// Groups the valued nodes of every kept unit's `list` by attribute into
// `groups` (indexed by AttributeId) and returns the attributes present,
// ascending. Within a row, values keep the list's order.
std::vector<AttributeId> GroupByAttribute(const GroundedModel& grounded,
                                          const std::vector<KeptUnit>& kept,
                                          NodeIdSpan KeptUnit::*list,
                                          std::vector<Group>* groups) {
  std::vector<AttributeId> present;
  for (size_t r = 0; r < kept.size(); ++r) {
    for (NodeId node : kept[r].*list) {
      AttributeId attr = grounded.graph().node(node).attribute;
      Group& group = (*groups)[attr];
      // First sight: the rows before this one hold no value of attr.
      if (group.ends.empty()) {
        group.ends.resize(kept.size(), 0);
        present.push_back(attr);
      }
      std::optional<double> v = grounded.NodeValue(node);
      CARL_DCHECK(v.has_value());
      group.values.push_back(*v);
    }
    for (AttributeId attr : present) {
      (*groups)[attr].ends[r] = (*groups)[attr].values.size();
    }
  }
  std::sort(present.begin(), present.end());
  return present;
}

// Projects every row's group through `embedding` into dims() new columns
// named `prefix` + dim, appended to `data` and listed in `col_list`.
void EmitEmbedded(const Group& group, const Embedding& embedding,
                  const std::string& prefix, FlatTable* data,
                  std::vector<std::string>* col_list) {
  const size_t rows = group.ends.size();
  const size_t dims = embedding.dims();
  std::vector<std::vector<double>> cols(dims, std::vector<double>(rows));
  std::vector<double> out(dims);
  size_t begin = 0;
  for (size_t r = 0; r < rows; ++r) {
    embedding.Apply(group.values.data() + begin, group.ends[r] - begin,
                    out.data());
    for (size_t d = 0; d < dims; ++d) cols[d][r] = out[d];
    begin = group.ends[r];
  }
  std::vector<std::string> dim_names = embedding.DimNames();
  for (size_t d = 0; d < dims; ++d) {
    std::string name = prefix + dim_names[d];
    col_list->push_back(name);
    data->AddColumn(name, std::move(cols[d]));
  }
}

}  // namespace

Result<UnitTable> BuildUnitTable(const GroundedModel& grounded,
                                 const UnitTableRequest& request,
                                 const UnitTableOptions& options) {
  CARL_TRACE_SCOPE("unit_table.build");
  static obs::Counter& builds =
      obs::Registry::Global().GetCounter("unit_table.builds");
  static obs::Counter& nodes_expanded =
      obs::Registry::Global().GetCounter("unit_table.nodes_expanded");
  builds.Increment();
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  CARL_ASSIGN_OR_RETURN(RequestPlan plan, PlanRequest(grounded, request));
  const Schema& schema = grounded.schema();
  const CausalGraph& graph = grounded.graph();
  const RelationView units =
      grounded.instance().Rows(schema.attribute(plan.treatment).predicate);

  // Row-aligned node-id columns: GroundModel's step 1 bulk-builds one
  // node per (attribute, fact row) in row order, so an attribute's first
  // NumRows(predicate) ids in NodesOfAttribute ARE the per-row node ids.
  // Pass 1 reads them by index — no per-unit FindNode hash probes.
  const std::vector<NodeId>& t_col = graph.NodesOfAttribute(plan.treatment);
  const std::vector<NodeId>& y_col = graph.NodesOfAttribute(plan.response);
  CARL_CHECK(t_col.size() >= units.size() && y_col.size() >= units.size())
      << "grounded graph lacks bulk-built nodes for the unit predicate";

  // Pass 1: resolve every unit in parallel. Each chunk appends to its own
  // NodeLists and each unit writes only its own slot, so the result is
  // identical for any thread count. NodeValue reads are precomputed at
  // grounding time, making this loop side-effect free.
  ExecContext& exec = ExecContext::Global();
  const std::vector<std::pair<size_t, size_t>> chunks =
      exec.Chunks(units.size());
  std::vector<UnitSlot> slots(units.size());
  std::vector<NodeLists> lists(chunks.size());
  std::vector<Status> chunk_status(chunks.size());
  ResolverPool resolvers(grounded, plan);
  ParallelFor(exec, units.size(), [&](size_t begin, size_t end,
                                      size_t chunk) {
    CARL_TRACE_SCOPE("unit_table.resolve_units");
    std::unique_ptr<UnitResolver> resolver = resolvers.Take();
    NodeLists& out = lists[chunk];
    for (size_t i = begin; i < end; ++i) {
      CARL_DCHECK(graph.node(t_col[i]).args == units[i])
          << "node-id column misaligned with unit rows";
      UnitSlot& slot = slots[i];
      Result<bool> resolved = resolver->Resolve(t_col[i], y_col[i], &slot,
                                                &out);
      if (!resolved.ok()) {
        chunk_status[chunk] = resolved.status();
        break;
      }
      slot.resolved = *resolved;
      slot.peers_end = out.peers.size();
      slot.own_covs_end = out.own_covs.size();
      slot.peer_covs_end = out.peer_covs.size();
    }
    resolvers.Return(std::move(resolver));
  });
  nodes_expanded.Add(resolvers.NodesExpanded());
  for (const Status& s : chunk_status) CARL_RETURN_IF_ERROR(s);
  // A stopped token makes ParallelFor skip chunks; surface it before the
  // half-resolved unit slots are read as if complete.
  CARL_RETURN_IF_ERROR(guard::CheckPoint());

  std::vector<KeptUnit> kept;
  kept.reserve(units.size());
  size_t dropped_unvalued = 0;  // no treatment or response value
  size_t dropped_isolated = 0;  // valued, but without a relational peer
  bool relational = false;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const NodeLists& l = lists[c];
    size_t peers_begin = 0;
    size_t own_covs_begin = 0;
    size_t peer_covs_begin = 0;
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      const UnitSlot& slot = slots[i];
      KeptUnit unit{
          i,
          NodeIdSpan(l.peers.data() + peers_begin,
                     slot.peers_end - peers_begin),
          NodeIdSpan(l.own_covs.data() + own_covs_begin,
                     slot.own_covs_end - own_covs_begin),
          NodeIdSpan(l.peer_covs.data() + peer_covs_begin,
                     slot.peer_covs_end - peer_covs_begin)};
      peers_begin = slot.peers_end;
      own_covs_begin = slot.own_covs_end;
      peer_covs_begin = slot.peer_covs_end;
      if (!slot.resolved) {
        ++dropped_unvalued;
        continue;
      }
      if (!options.include_isolated_units && unit.peers.empty()) {
        ++dropped_isolated;
        continue;
      }
      if (!unit.peers.empty()) relational = true;
      kept.push_back(unit);
    }
  }
  if (kept.empty()) {
    if (dropped_isolated > 0) {
      return Status::FailedPrecondition(StrFormat(
          "no unit has a relational peer; a peer-effect query drops the %zu "
          "isolated units unless include_isolated_units is set",
          dropped_isolated));
    }
    return Status::FailedPrecondition(
        "no unit has both treatment and response values");
  }

  UnitTable table;
  table.embedding_kind = options.embedding;
  table.dropped_units = dropped_unvalued + dropped_isolated;
  table.relational = relational;
  const size_t n = kept.size();

  // Pass 2: group values per row — the peers' treatments, then own and
  // peer covariates per attribute — in flat arrays.
  Group peer_t_group;
  if (relational) {
    peer_t_group.ends.resize(n);
    for (size_t r = 0; r < n; ++r) {
      for (NodeId p : kept[r].peers) {
        std::optional<double> v = grounded.NodeValue(p);
        if (v.has_value()) peer_t_group.values.push_back(*v);
      }
      peer_t_group.ends[r] = peer_t_group.values.size();
    }
  }
  std::vector<Group> own_groups(schema.num_attributes());
  std::vector<Group> peer_groups(schema.num_attributes());
  const std::vector<AttributeId> own_attrs = GroupByAttribute(
      grounded, kept, &KeptUnit::own_covs, &own_groups);
  const std::vector<AttributeId> peer_attrs = GroupByAttribute(
      grounded, kept, &KeptUnit::peer_covs, &peer_groups);
  CARL_RETURN_IF_ERROR(guard::CheckPoint());

  // Pass 3: fit one embedding per group and emit pre-sized columns in the
  // order y, t, [peer_count, peer_treated_count, peer_t_*], own_<Attr>_*,
  // peer_<Attr>_* (attributes ascending).
  std::vector<double> y(n);
  std::vector<double> t(n);
  for (size_t r = 0; r < n; ++r) {
    y[r] = slots[kept[r].row].y;
    t[r] = slots[kept[r].row].t;
  }
  table.data.AddColumn(table.y_col, std::move(y));
  table.data.AddColumn(table.t_col, std::move(t));

  if (relational) {
    std::vector<double> peer_count(n);
    std::vector<double> peer_treated(n);
    size_t begin = 0;
    for (size_t r = 0; r < n; ++r) {
      double treated = 0.0;
      for (size_t k = begin; k < peer_t_group.ends[r]; ++k) {
        treated += (peer_t_group.values[k] != 0.0) ? 1.0 : 0.0;
      }
      peer_count[r] = static_cast<double>(peer_t_group.ends[r] - begin);
      peer_treated[r] = treated;
      begin = peer_t_group.ends[r];
    }
    table.peer_count_col = "peer_count";
    table.peer_treated_count_col = "peer_treated_count";
    table.data.AddColumn(table.peer_count_col, std::move(peer_count));
    table.data.AddColumn(table.peer_treated_count_col,
                         std::move(peer_treated));
    std::shared_ptr<Embedding> psi =
        MakeEmbedding(options.embedding, options.embedding_options);
    psi->Fit(WidestRow(peer_t_group));
    EmitEmbedded(peer_t_group, *psi, "peer_t_", &table.data,
                 &table.peer_t_cols);
    table.peer_t_embedding = std::move(psi);
  }
  auto emit_covariates = [&](const std::vector<AttributeId>& attrs,
                             const std::vector<Group>& groups,
                             const std::string& prefix,
                             std::vector<std::string>* col_list) {
    for (AttributeId attr : attrs) {
      std::unique_ptr<Embedding> e =
          MakeEmbedding(options.embedding, options.embedding_options);
      e->Fit(WidestRow(groups[attr]));
      EmitEmbedded(groups[attr], *e,
                   prefix + schema.attribute(attr).name + "_", &table.data,
                   col_list);
    }
  };
  emit_covariates(own_attrs, own_groups, "own_", &table.own_covariate_cols);
  emit_covariates(peer_attrs, peer_groups, "peer_",
                  &table.peer_covariate_cols);

  table.unit_arity = units.arity();
  table.unit_args.resize(n * units.arity());
  SymbolId* dst = table.unit_args.data();
  for (const KeptUnit& unit : kept) {
    const TupleView args = units[unit.row];
    dst = std::copy(args.begin(), args.end(), dst);
  }
  return table;
}

Result<bool> CheckAdjustmentCriterion(const GroundedModel& grounded,
                                      const UnitTableRequest& request,
                                      TupleView unit) {
  CARL_ASSIGN_OR_RETURN(RequestPlan plan, PlanRequest(grounded, request));
  const CausalGraph& graph = grounded.graph();
  // Cold path (a handful of sampled units per query): resolve the unit's
  // nodes with allocation-free span probes.
  NodeId t_node = graph.FindNode(plan.treatment, unit);
  NodeId y_node = graph.FindNode(plan.response, unit);
  UnitResolver resolver(grounded, plan);
  UnitSlot slot;
  NodeLists lists;
  CARL_ASSIGN_OR_RETURN(bool resolved,
                        resolver.Resolve(t_node, y_node, &slot, &lists));
  if (!resolved) {
    return Status::NotFound("unit has no treatment/response values");
  }

  // S' = the unit and its peers; condition on their treatment nodes plus
  // the observed-parent covariate set Z.
  std::vector<NodeId> conditioning{t_node};
  conditioning.insert(conditioning.end(), lists.peers.begin(),
                      lists.peers.end());
  conditioning.insert(conditioning.end(), lists.own_covs.begin(),
                      lists.own_covs.end());
  conditioning.insert(conditioning.end(), lists.peer_covs.begin(),
                      lists.peer_covs.end());

  // X = all parents (observed or latent) of the treatment nodes.
  std::vector<NodeId> all_parents;
  const uint32_t epoch = resolver.NextEpoch();
  auto add_parents = [&](NodeId treated) {
    for (NodeId p : graph.Parents(treated)) {
      if (resolver.Mark(p, epoch)) all_parents.push_back(p);
    }
  };
  add_parents(t_node);
  for (NodeId p : lists.peers) add_parents(p);
  if (all_parents.empty()) return true;  // exogenous treatment

  return DSeparated(graph, resolver.starts(), all_parents, conditioning);
}

Result<bool> CheckAdjustmentCriterionSample(const GroundedModel& grounded,
                                            const UnitTableRequest& request,
                                            const UnitTable& table,
                                            int sample_size, uint64_t seed) {
  Rng rng(seed);
  const RelationView units = table.units();
  size_t sample = std::min<size_t>(
      static_cast<size_t>(std::max(1, sample_size)), units.size());
  for (size_t idx : rng.SampleWithoutReplacement(units.size(), sample)) {
    CARL_ASSIGN_OR_RETURN(
        bool ok, CheckAdjustmentCriterion(grounded, request, units[idx]));
    if (!ok) return false;
  }
  return true;
}

}  // namespace carl
