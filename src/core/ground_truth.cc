#include "core/ground_truth.h"

#include <unordered_map>

#include "common/logging.h"

namespace carl {

Result<GroundTruthEffects> ComputeGroundTruth(
    const GroundedModel& grounded, const StructuralModel& scm,
    AttributeId treatment, AttributeId response,
    const GroundTruthOptions& options) {
  const CausalGraph& graph = grounded.graph();
  const Schema& schema = grounded.schema();
  if (schema.attribute(treatment).predicate !=
      schema.attribute(response).predicate) {
    return Status::FailedPrecondition(
        "ground truth needs unified treatment/response units");
  }

  CARL_ASSIGN_OR_RETURN(std::vector<double> base,
                        scm.Simulate(grounded, options.seed));

  // Global arms for the ATE.
  const std::string& t_name = schema.attribute(treatment).name;
  auto all = [&](double v) {
    StructuralModel::Intervention iv;
    iv.attribute = t_name;
    iv.value = [v](TupleView) { return std::optional<double>(v); };
    return iv;
  };
  CARL_ASSIGN_OR_RETURN(std::vector<double> arm1,
                        scm.Simulate(grounded, options.seed, {all(1.0)}));
  CARL_ASSIGN_OR_RETURN(std::vector<double> arm0,
                        scm.Simulate(grounded, options.seed, {all(0.0)}));

  GroundTruthEffects out;
  const RelationView units =
      grounded.instance().Rows(schema.attribute(treatment).predicate);
  size_t limit = options.max_units == 0
                     ? units.size()
                     : std::min(options.max_units, units.size());

  // Row-aligned node-id columns: the bulk node build assigns one node per
  // (attribute, fact row) in row order, so indexing replaces the per-unit
  // FindNode hash probes.
  const std::vector<NodeId>& t_col = graph.NodesOfAttribute(treatment);
  const std::vector<NodeId>& y_col = graph.NodesOfAttribute(response);
  CARL_CHECK(t_col.size() >= units.size() && y_col.size() >= units.size())
      << "grounded graph lacks bulk-built nodes for the unit predicate";

  double sum_ate = 0.0, sum_aie = 0.0, sum_are = 0.0, sum_aoe = 0.0;
  size_t evaluated = 0;
  for (size_t u = 0; u < units.size() && evaluated < limit; ++u) {
    NodeId t_node = t_col[u];
    NodeId y_node = y_col[u];
    if (t_node == kInvalidNode || y_node == kInvalidNode) continue;
    if (graph.Parents(y_node).empty() &&
        grounded.NodeAggregate(y_node).has_value()) {
      continue;  // aggregate response with no sources
    }
    std::unordered_map<NodeId, double> own1{{t_node, 1.0}};
    std::unordered_map<NodeId, double> own0{{t_node, 0.0}};
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_own1,
        scm.SimulateLocal(grounded, options.seed, base, own1));
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_own0,
        scm.SimulateLocal(grounded, options.seed, base, own0));
    sum_aie += y_own1[y_node] - y_own0[y_node];

    // The peers: the other treatment nodes among y's ancestors.
    std::unordered_map<NodeId, double> peers1, peers0;
    for (NodeId p : graph.Ancestors({y_node})) {
      if (p == t_node || graph.node(p).attribute != treatment) continue;
      peers1[p] = 1.0;
      peers0[p] = 0.0;
    }
    // Peers-only arms keep the own treatment at its realized value.
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_peers1,
        scm.SimulateLocal(grounded, options.seed, base, peers1));
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_peers0,
        scm.SimulateLocal(grounded, options.seed, base, peers0));
    sum_are += y_peers1[y_node] - y_peers0[y_node];

    std::unordered_map<NodeId, double> both1 = peers1;
    both1[t_node] = 1.0;
    std::unordered_map<NodeId, double> both0 = peers0;
    both0[t_node] = 0.0;
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_both1,
        scm.SimulateLocal(grounded, options.seed, base, both1));
    CARL_ASSIGN_OR_RETURN(
        std::vector<double> y_both0,
        scm.SimulateLocal(grounded, options.seed, base, both0));
    sum_aoe += y_both1[y_node] - y_both0[y_node];

    sum_ate += arm1[y_node] - arm0[y_node];
    ++evaluated;
  }
  if (evaluated == 0) {
    return Status::FailedPrecondition("no unit usable for ground truth");
  }
  double n = static_cast<double>(evaluated);
  out.aie = sum_aie / n;
  out.are = sum_are / n;
  out.aoe = sum_aoe / n;
  out.ate = sum_ate / n;
  out.units_evaluated = evaluated;
  return out;
}

}  // namespace carl
