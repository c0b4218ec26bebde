#include "core/unit_table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"
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
// to attributes (RelationalCausalModel::EffectsOf). Every ground edge
// instantiates one of them, so every node on a ground path T[p] -> ... ->
// Y[x] has a reached attribute, and the peer search may skip the rest.
std::vector<uint8_t> ReachedAttributes(const RelationalCausalModel& model,
                                       AttributeId treatment) {
  std::vector<uint8_t> reached(model.extended_schema().num_attributes(), 0);
  reached[treatment] = 1;
  std::vector<AttributeId> queue{treatment};
  for (size_t i = 0; i < queue.size(); ++i) {
    for (AttributeId effect : model.EffectsOf(queue[i])) {
      if (reached[effect] == 0) {
        reached[effect] = 1;
        queue.push_back(effect);
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
  const AggregateRule* agg = grounded.model().AggregateRuleOf(plan.response);
  if (agg != nullptr) {
    plan.response_aggregate = agg->aggregate;
    CARL_ASSIGN_OR_RETURN(plan.response_source,
                          schema.FindAttribute(agg->source.attribute));
  }
  plan.reached = ReachedAttributes(grounded.model(), plan.treatment);
  return plan;
}

bool SourceAllowed(const RequestPlan& plan, const GroundedAttribute& g) {
  if (plan.allowed_sources == nullptr) return true;
  return plan.allowed_sources->Contains(g.args);
}

// Units resolved between two polls of the ambient guard token.
constexpr size_t kUnitPollStride = 1024;

// Algorithm 1's per-unit step. Traversals mark nodes in a stamp array over
// node ids: a node is marked in the current pass iff its stamp equals the
// pass's epoch, so a new pass bumps the epoch instead of clearing the
// array.
class UnitResolver {
 public:
  UnitResolver(const GroundedModel& grounded, const RequestPlan& plan)
      : grounded_(grounded),
        graph_(grounded.graph()),
        plan_(plan),
        stamp_(graph_.num_nodes(), 0) {}

  // Resolves the unit with treatment node `t_node` and response node
  // `y_node`: its values, its response grounding(s) and its sorted peers.
  // Returns false when the unit lacks a treatment or response value.
  Result<bool> Resolve(NodeId t_node, NodeId y_node) {
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
    t_node_ = t_node;
    t_ = *t;
    y_ = *y;

    // Peers (Def 4.3: p is a peer of x iff a directed path T[p] -> Y[x]
    // exists): the treatment nodes other than T[x] among the ancestors of
    // the response groundings. Only nodes of reached attributes can lie on
    // such a path, so the search enters no other. The visit order is
    // free; the set is not.
    peers_.clear();
    const uint32_t epoch = NextEpoch();
    frontier_.clear();
    for (NodeId s : starts_) {
      if (Reached(s) && Mark(s, epoch)) frontier_.push_back(s);
    }
    while (!frontier_.empty()) {
      NodeId n = frontier_.back();
      frontier_.pop_back();
      ++nodes_expanded_;
      if (n != t_node && graph_.node(n).attribute == plan_.treatment) {
        peers_.push_back(n);
      }
      for (NodeId p : graph_.Parents(n)) {
        if (Reached(p) && Mark(p, epoch)) frontier_.push_back(p);
      }
    }
    std::sort(peers_.begin(), peers_.end());
    return true;
  }

  // Calls visit(own, attribute, node, value) on each covariate of the last
  // resolved unit (Theorem 5.2): the observed, valued parents of T[x]
  // (own), then of each peer's T[p] in peer order, excluding treatment
  // nodes (the t / peer_t columns carry those). One marking pass: a node
  // is visited once, from the first list that reaches it.
  template <typename Visit>
  void VisitCovariates(Visit&& visit) {
    const uint32_t epoch = NextEpoch();
    auto collect = [&](NodeId treated, bool own) {
      for (NodeId p : graph_.Parents(treated)) {
        const AttributeId attr = graph_.node(p).attribute;
        if (attr == plan_.treatment) continue;
        const std::optional<double> v = grounded_.NodeValue(p);
        if (!v.has_value()) continue;
        if (Mark(p, epoch)) visit(own, attr, p, *v);
      }
    };
    collect(t_node_, true);
    for (NodeId p : peers_) collect(p, false);
  }

  // The last resolved unit's values, sorted peers, and response
  // grounding(s): the response node for base responses, the filtered
  // valued source parents for aggregates.
  double t() const { return t_; }
  double y() const { return y_; }
  const std::vector<NodeId>& peers() const { return peers_; }
  const std::vector<NodeId>& starts() const { return starts_; }

  // Nodes the peer searches of this resolver have expanded.
  uint64_t nodes_expanded() const { return nodes_expanded_; }

 private:
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
  NodeId t_node_ = kInvalidNode;
  double t_ = 0.0;
  double y_ = 0.0;
  std::vector<NodeId> peers_;
  std::vector<NodeId> starts_;
  std::vector<NodeId> frontier_;
  std::vector<double> source_values_;
  uint64_t nodes_expanded_ = 0;
};

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

size_t GroupBytes(const UnitRows::Group& group) {
  return VectorBytes(group.values) + VectorBytes(group.ends);
}

size_t CovariateBytes(const UnitRows::CovariateGroups& groups) {
  size_t bytes = VectorBytes(groups.by_attr) + VectorBytes(groups.present);
  for (const UnitRows::Group& group : groups.by_attr) {
    bytes += GroupBytes(group);
  }
  return bytes;
}

}  // namespace

void UnitRows::CovariateGroups::Add(AttributeId attr, size_t row,
                                    double value) {
  Group& group = by_attr[attr];
  if (group.values.empty()) {  // first sight
    group.ends.assign(row, 0);
    present.insert(std::lower_bound(present.begin(), present.end(), attr),
                   attr);
  }
  group.values.push_back(value);
}

size_t UnitTable::bytes() const {
  size_t total = VectorBytes(unit_args) + sums.bytes();
  for (size_t c = 0; c < data.num_cols(); ++c) {
    total += VectorBytes(data.Column(c));
  }
  return total;
}

size_t UnitRows::bytes() const {
  return VectorBytes(y) + VectorBytes(t) + VectorBytes(unit_args) +
         GroupBytes(peer_t) + CovariateBytes(own) + CovariateBytes(peer);
}

Status ResolveUnitRows(const GroundedModel& grounded,
                       const UnitTableRequest& request,
                       const UnitTableOptions& options, UnitRows* rows) {
  CARL_TRACE_SCOPE("unit_table.resolve");
  static obs::Counter& nodes_expanded =
      obs::Registry::Global().GetCounter("unit_table.nodes_expanded");
  static obs::Counter& rows_resolved =
      obs::Registry::Global().GetCounter("unit_table.rows_resolved");
  CARL_RETURN_IF_ERROR(guard::PhaseCheck("unit_table.resolve"));
  CARL_ASSIGN_OR_RETURN(RequestPlan plan, PlanRequest(grounded, request));
  const Schema& schema = grounded.schema();
  const CausalGraph& graph = grounded.graph();
  const RelationView units =
      grounded.instance().Rows(schema.attribute(plan.treatment).predicate);

  // Row-aligned node-id columns: GroundModel's step 1 bulk-builds one
  // node per (attribute, fact row) in row order, and an extend splices
  // new rows' nodes in behind them, so an attribute's first
  // NumRows(predicate) ids in NodesOfAttribute ARE the per-row node ids.
  // The loop reads them by index — no per-unit FindNode hash probes.
  const std::vector<NodeId>& t_col = graph.NodesOfAttribute(plan.treatment);
  const std::vector<NodeId>& y_col = graph.NodesOfAttribute(plan.response);
  if (t_col.size() < units.size() || y_col.size() < units.size()) {
    return Status::FailedPrecondition(
        "grounded graph lacks bulk-built nodes for the unit predicate");
  }
  const size_t first = rows->units_resolved;
  if (first > units.size()) {
    return Status::FailedPrecondition("unit rows resolved past the instance");
  }

  // A fresh build sizes the rows once; a resume appends with the
  // vectors' amortized growth.
  if (first == 0) {
    rows->y.reserve(units.size());
    rows->t.reserve(units.size());
    rows->unit_args.reserve(units.size() * units.arity());
    rows->peer_t.ends.reserve(units.size());
  }
  rows->unit_arity = units.arity();
  rows->own.by_attr.resize(schema.num_attributes());
  rows->peer.by_attr.resize(schema.num_attributes());

  // The units in row order. A unit's fate is decided before it appends
  // anything: no treatment or response value drops it, and so does
  // having no peer unless isolated units are included. A kept unit
  // appends its y, its t, its tuple, its peers' treatments and each
  // covariate value straight to its column group. A stop polled every
  // kUnitPollStride units returns with the rows half appended; the
  // caller discards them.
  UnitResolver resolver(grounded, plan);
  for (size_t i = first; i < units.size(); ++i) {
    if ((i - first) % kUnitPollStride == 0) {
      CARL_RETURN_IF_ERROR(guard::CheckPoint());
    }
    CARL_DCHECK(graph.node(t_col[i]).args == units[i])
        << "node-id column misaligned with unit rows";
    CARL_ASSIGN_OR_RETURN(bool resolved, resolver.Resolve(t_col[i], y_col[i]));
    if (!resolved) {
      ++rows->dropped_unvalued;
      continue;
    }
    const std::vector<NodeId>& peers = resolver.peers();
    if (peers.empty() && !options.include_isolated_units) {
      ++rows->dropped_isolated;
      continue;
    }
    if (!peers.empty()) rows->relational = true;
    const size_t row = rows->y.size();
    rows->y.push_back(resolver.y());
    rows->t.push_back(resolver.t());
    const TupleView args = units[i];
    rows->unit_args.insert(rows->unit_args.end(), args.begin(), args.end());
    for (NodeId p : peers) {
      std::optional<double> v = grounded.NodeValue(p);
      if (v.has_value()) rows->peer_t.values.push_back(*v);
    }
    rows->peer_t.EndRow();
    resolver.VisitCovariates(
        [&](bool is_own, AttributeId attr, NodeId, double value) {
          (is_own ? rows->own : rows->peer).Add(attr, row, value);
        });
    rows->own.EndRow();
    rows->peer.EndRow();
  }
  rows->units_resolved = units.size();
  nodes_expanded.Add(resolver.nodes_expanded());
  rows_resolved.Add(units.size() - first);
  return Status::OK();
}

Status CheckUnitsKept(const UnitRows& rows) {
  if (!rows.y.empty()) return Status::OK();
  if (rows.dropped_isolated > 0) {
    return Status::FailedPrecondition(StrFormat(
        "no unit has a relational peer; a peer-effect query drops the %zu "
        "isolated units unless include_isolated_units is set",
        rows.dropped_isolated));
  }
  return Status::FailedPrecondition(
      "no unit has both treatment and response values");
}

Status EmbedUnitRows(const UnitRows& rows, const Schema& schema,
                     const UnitTableOptions& options, UnitTable* table) {
  CARL_TRACE_SCOPE("unit_table.embed");
  static obs::Counter& builds =
      obs::Registry::Global().GetCounter("unit_table.builds");
  static obs::Counter& rows_embedded =
      obs::Registry::Global().GetCounter("unit_table.rows_embedded");
  builds.Increment();
  CARL_RETURN_IF_ERROR(CheckUnitsKept(rows));
  const size_t n = rows.y.size();

  // One embedding per group, fitted on its widest row, and the number of
  // columns the rows produce. That number only grows with the rows (a
  // group, peers, or padding width once there stays), so it equals the
  // table's exactly when the column list is the table's.
  std::shared_ptr<Embedding> psi;
  size_t num_cols = 2;
  if (rows.relational) {
    psi = MakeEmbedding(options.embedding);
    psi->Fit(rows.peer_t.widest);
    num_cols += 2 + psi->dims();
  }
  const std::unique_ptr<Embedding> embedding = MakeEmbedding(options.embedding);
  for (const UnitRows::CovariateGroups* groups : {&rows.own, &rows.peer}) {
    for (AttributeId attr : groups->present) {
      embedding->Fit(groups->by_attr[attr].widest);
      num_cols += embedding->dims();
    }
  }
  size_t first = table->data.num_rows();
  if (table->data.num_cols() != num_cols || first > n) {
    *table = UnitTable();
    first = 0;
  }

  // A fresh table lays out its columns — y, t, [peer_count,
  // peer_treated_count, peer_t_*], own_<Attr>_*, peer_<Attr>_*
  // (attributes ascending) — each reserved for every row.
  FlatTable& data = table->data;
  if (first == 0) {
    table->unit_arity = rows.unit_arity;
    table->embedding_kind = options.embedding;
    table->peer_t_embedding = psi;
    table->unit_args.reserve(rows.unit_args.size());
    auto add_column = [&](std::string name, std::vector<std::string>* list) {
      if (list != nullptr) list->push_back(name);
      data.AddColumn(std::move(name), {});
      data.MutableColumns(data.num_cols() - 1)->reserve(n);
    };
    add_column(table->y_col, nullptr);
    add_column(table->t_col, nullptr);
    if (rows.relational) {
      table->peer_count_col = "peer_count";
      table->peer_treated_count_col = "peer_treated_count";
      add_column(table->peer_count_col, nullptr);
      add_column(table->peer_treated_count_col, nullptr);
      for (const std::string& dim : psi->DimNames()) {
        add_column("peer_t_" + dim, &table->peer_t_cols);
      }
    }
    auto add_covariates = [&](const UnitRows::CovariateGroups& groups,
                              const std::string& prefix,
                              std::vector<std::string>* list) {
      for (AttributeId attr : groups.present) {
        embedding->Fit(groups.by_attr[attr].widest);
        const std::string group = prefix + schema.attribute(attr).name + "_";
        for (const std::string& dim : embedding->DimNames()) {
          add_column(group + dim, list);
        }
      }
    };
    add_covariates(rows.own, "own_", &table->own_covariate_cols);
    add_covariates(rows.peer, "peer_", &table->peer_covariate_cols);
  }

  // Rows [first, n), each group through one embedding call.
  std::vector<double>* cols = data.MutableColumns(0);
  cols[0].insert(cols[0].end(), rows.y.begin() + first, rows.y.end());
  cols[1].insert(cols[1].end(), rows.t.begin() + first, rows.t.end());
  table->unit_args.insert(table->unit_args.end(),
                          rows.unit_args.begin() + first * rows.unit_arity,
                          rows.unit_args.end());
  size_t c = 2;
  if (rows.relational) {
    const UnitRows::Group& peer_t = rows.peer_t;
    size_t begin = first == 0 ? 0 : peer_t.ends[first - 1];
    for (size_t r = first; r < n; ++r) {
      double treated = 0.0;
      for (size_t k = begin; k < peer_t.ends[r]; ++k) {
        treated += (peer_t.values[k] != 0.0) ? 1.0 : 0.0;
      }
      cols[2].push_back(static_cast<double>(peer_t.ends[r] - begin));
      cols[3].push_back(treated);
      begin = peer_t.ends[r];
    }
    psi->ApplyRows(peer_t.values.data(), peer_t.ends.data(), first, n,
                   cols + 4);
    c = 4 + psi->dims();
  }
  for (const UnitRows::CovariateGroups* groups : {&rows.own, &rows.peer}) {
    for (AttributeId attr : groups->present) {
      const UnitRows::Group& group = groups->by_attr[attr];
      embedding->Fit(group.widest);
      embedding->ApplyRows(group.values.data(), group.ends.data(), first, n,
                           cols + c);
      c += embedding->dims();
    }
  }
  table->dropped_units = rows.dropped_unvalued + rows.dropped_isolated;
  table->relational = rows.relational;
  rows_embedded.Add(n - first);
  return Status::OK();
}

Result<bool> UnitRowsOutsideExtendCone(const GroundedModel& grounded,
                                       const UnitTableRequest& request,
                                       const UnitRows& rows) {
  const CausalGraph& graph = grounded.graph();
  const std::vector<NodeId>& t_col = graph.NodesOfAttribute(request.treatment);
  const std::vector<NodeId>& y_col = graph.NodesOfAttribute(request.response);
  if (t_col.size() < rows.units_resolved ||
      y_col.size() < rows.units_resolved) {
    return Status::FailedPrecondition(
        "unit rows resolved past the grounded graph");
  }
  for (size_t i = 0; i < rows.units_resolved; ++i) {
    if (grounded.InExtendCone(t_col[i]) || grounded.InExtendCone(y_col[i])) {
      return false;
    }
  }
  return true;
}

Result<UnitTable> BuildUnitTable(const GroundedModel& grounded,
                                 const UnitTableRequest& request,
                                 const UnitTableOptions& options) {
  CARL_TRACE_SCOPE("unit_table.build");
  UnitRows rows;
  CARL_RETURN_IF_ERROR(ResolveUnitRows(grounded, request, options, &rows));
  UnitTable table;
  CARL_RETURN_IF_ERROR(
      EmbedUnitRows(rows, grounded.schema(), options, &table));
  return table;
}

Result<bool> CheckAdjustmentCriterion(const GroundedModel& grounded,
                                      const UnitTableRequest& request,
                                      RelationView units) {
  CARL_ASSIGN_OR_RETURN(RequestPlan plan, PlanRequest(grounded, request));
  const CausalGraph& graph = grounded.graph();
  UnitResolver resolver(grounded, plan);
  DSeparation dseparation(graph);
  std::vector<NodeId> conditioning;
  std::vector<NodeId> parents;
  for (size_t i = 0; i < units.size(); ++i) {
    if (i % kUnitPollStride == 0) CARL_RETURN_IF_ERROR(guard::CheckPoint());
    const NodeId t_node = graph.FindNode(plan.treatment, units[i]);
    CARL_ASSIGN_OR_RETURN(
        bool resolved,
        resolver.Resolve(t_node, graph.FindNode(plan.response, units[i])));
    if (!resolved) {
      return Status::NotFound("unit has no treatment/response values");
    }

    // S' = the unit and its peers. X = every parent of their treatment
    // nodes, observed or latent; condition on those treatment nodes plus
    // the covariates Z, their valued non-treatment parents. A unit whose
    // X lies inside the conditioning set passes without a traversal.
    const std::vector<NodeId>& peers = resolver.peers();
    parents.assign(graph.Parents(t_node).begin(), graph.Parents(t_node).end());
    for (NodeId p : peers) {
      parents.insert(parents.end(), graph.Parents(p).begin(),
                     graph.Parents(p).end());
    }
    auto conditioned = [&](NodeId p) {
      if (graph.node(p).attribute != plan.treatment) {
        return grounded.NodeValue(p).has_value();
      }
      return p == t_node || std::binary_search(peers.begin(), peers.end(), p);
    };
    if (std::all_of(parents.begin(), parents.end(), conditioned)) continue;
    conditioning.assign(1, t_node);
    conditioning.insert(conditioning.end(), peers.begin(), peers.end());
    resolver.VisitCovariates([&](bool, AttributeId, NodeId node, double) {
      conditioning.push_back(node);
    });
    if (!dseparation.Separated(resolver.starts(), parents, conditioning)) {
      return false;
    }
  }
  return true;
}

}  // namespace carl
