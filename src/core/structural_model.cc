#include "core/structural_model.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/logging.h"

namespace carl {

const std::vector<double> ParentView::kEmpty = {};

const std::vector<double>& ParentView::Values(
    const std::string& attribute) const {
  auto it = groups_->find(attribute);
  return it == groups_->end() ? kEmpty : it->second;
}

double ParentView::Sum(const std::string& attribute) const {
  double s = 0.0;
  for (double v : Values(attribute)) s += v;
  return s;
}

double ParentView::Count(const std::string& attribute) const {
  return static_cast<double>(Values(attribute).size());
}

double ParentView::Mean(const std::string& attribute, double if_empty) const {
  const std::vector<double>& v = Values(attribute);
  if (v.empty()) return if_empty;
  return Sum(attribute) / static_cast<double>(v.size());
}

double ParentView::Max(const std::string& attribute, double if_empty) const {
  const std::vector<double>& v = Values(attribute);
  if (v.empty()) return if_empty;
  return *std::max_element(v.begin(), v.end());
}

double ParentView::FractionNonzero(const std::string& attribute,
                                   double if_empty) const {
  const std::vector<double>& v = Values(attribute);
  if (v.empty()) return if_empty;
  double nz = 0.0;
  for (double x : v) {
    if (x != 0.0) nz += 1.0;
  }
  return nz / static_cast<double>(v.size());
}

void StructuralModel::Define(const std::string& attribute,
                             StructuralEquation equation) {
  equations_[attribute] = std::move(equation);
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double StructuralModel::EvaluateNode(const GroundedModel& grounded,
                                     NodeId node,
                                     const std::vector<double>& values,
                                     uint64_t seed) const {
  const CausalGraph& graph = grounded.graph();
  const Schema& schema = grounded.schema();

  // Aggregate nodes are deterministic functions of their parents.
  std::optional<AggregateKind> agg = grounded.NodeAggregate(node);
  if (agg.has_value()) {
    std::vector<double> parent_values;
    for (NodeId p : graph.Parents(node)) {
      parent_values.push_back(values[p]);
    }
    return parent_values.empty() ? 0.0 : ApplyAggregate(*agg, parent_values);
  }

  const GroundedAttribute g = graph.node(node);
  const std::string& attr_name = schema.attribute(g.attribute).name;
  auto eq = equations_.find(attr_name);
  if (eq != equations_.end()) {
    std::map<std::string, std::vector<double>> groups;
    for (NodeId p : graph.Parents(node)) {
      const std::string& parent_name =
          schema.attribute(graph.node(p).attribute).name;
      groups[parent_name].push_back(values[p]);
    }
    ParentView view(&groups);
    Rng rng(SplitMix64(seed ^ (static_cast<uint64_t>(node) * 0x9e3779b9ull)));
    return eq->second(g.args, view, rng);
  }

  // No equation: fall back to the observed instance value, then 0.
  std::optional<double> observed = grounded.NodeValue(node);
  return observed.value_or(0.0);
}

Result<std::vector<double>> StructuralModel::Simulate(
    const GroundedModel& grounded, uint64_t seed,
    const std::vector<Intervention>& interventions) const {
  const CausalGraph& graph = grounded.graph();
  CARL_ASSIGN_OR_RETURN(std::vector<NodeId> order, graph.TopologicalOrder());

  // Resolve interventions to node -> value.
  std::unordered_map<NodeId, double> do_values;
  for (const Intervention& iv : interventions) {
    CARL_ASSIGN_OR_RETURN(AttributeId aid,
                          grounded.schema().FindAttribute(iv.attribute));
    for (NodeId n : graph.NodesOfAttribute(aid)) {
      std::optional<double> v = iv.value(graph.node(n).args);
      if (v.has_value()) do_values[n] = *v;
    }
  }

  std::vector<double> values(graph.num_nodes(), 0.0);
  for (NodeId n : order) {
    auto it = do_values.find(n);
    values[n] = (it != do_values.end())
                    ? it->second
                    : EvaluateNode(grounded, n, values, seed);
  }
  return values;
}

Result<std::vector<double>> StructuralModel::SimulateLocal(
    const GroundedModel& grounded, uint64_t seed,
    const std::vector<double>& base,
    const std::unordered_map<NodeId, double>& do_values) const {
  const CausalGraph& graph = grounded.graph();
  if (base.size() != graph.num_nodes()) {
    return Status::InvalidArgument("base values size mismatch");
  }
  std::vector<double> values = base;

  // Collect descendants of intervened nodes and re-evaluate them in a
  // topological order restricted to that set (Kahn over the sub-DAG).
  std::vector<NodeId> seeds;
  seeds.reserve(do_values.size());
  for (const auto& [n, v] : do_values) {
    values[n] = v;
    seeds.push_back(n);
  }
  std::vector<NodeId> affected = graph.Descendants(seeds);
  std::unordered_map<NodeId, int> pending;  // unresolved parents in set
  std::unordered_set<NodeId> affected_set(affected.begin(), affected.end());
  for (NodeId n : affected) {
    int count = 0;
    for (NodeId p : graph.Parents(n)) {
      if (affected_set.count(p)) ++count;
    }
    pending[n] = count;
  }
  std::deque<NodeId> ready;
  for (NodeId n : affected) {
    if (pending[n] == 0) ready.push_back(n);
  }
  size_t processed = 0;
  while (!ready.empty()) {
    NodeId n = ready.front();
    ready.pop_front();
    ++processed;
    if (!do_values.count(n)) {
      values[n] = EvaluateNode(grounded, n, values, seed);
    }
    for (NodeId c : graph.Children(n)) {
      if (!affected_set.count(c)) continue;
      if (--pending[c] == 0) ready.push_back(c);
    }
  }
  CARL_CHECK(processed == affected.size())
      << "cycle in descendant sub-DAG (impossible for a DAG)";
  return values;
}

Status StructuralModel::WriteObservedValues(const GroundedModel& grounded,
                                            const std::vector<double>& values,
                                            Instance* instance) const {
  const CausalGraph& graph = grounded.graph();
  const Schema& schema = grounded.schema();
  if (values.size() != graph.num_nodes()) {
    return Status::InvalidArgument("values size mismatch");
  }
  for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
    if (grounded.NodeAggregate(n).has_value()) continue;
    const GroundedAttribute g = graph.node(n);
    const AttributeDef& def = schema.attribute(g.attribute);
    if (!def.observed) continue;
    CARL_RETURN_IF_ERROR(instance->SetAttributeSpan(
        g.attribute, g.args.data(), g.args.size(), Value(values[n])));
  }
  return Status::OK();
}

}  // namespace carl
