#include "core/explain.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/str_util.h"
#include "lang/parser.h"

namespace carl {

std::string QueryExplanation::ToString() const {
  std::ostringstream os;
  os << "Query: " << query << "\n";
  os << "  treatment:  " << treatment_attribute << "  (units: "
     << unit_predicate << ", n=" << num_units << ", dropped="
     << dropped_units << ")\n";
  os << "  response:   " << response_attribute;
  if (unified) os << "  [derived: " << unification_rule << "]";
  os << "\n";
  if (relational) {
    os << "  interference: relational; mean peers/unit "
       << StrFormat("%.2f", mean_peers) << ", max " << max_peers << ", "
       << isolated_units << " unit(s) without peers\n";
  } else {
    os << "  interference: none detected (SUTVA holds for this query)\n";
  }
  os << "  adjustment set (Theorem 5.2):\n";
  if (covariates.empty()) {
    os << (treatment_exogenous
               ? "    (empty - treatment is exogenous in the model)\n"
               : "    (empty - no observed parent of the treatment)\n");
  }
  for (const CovariateSummary& c : covariates) {
    os << "    " << c.role << " " << c.attribute << "  (covers "
       << c.units_covered << " units)\n";
  }
  if (criterion_checked) {
    os << "  d-separation criterion: "
       << (criterion_ok ? "holds on every unit"
                        : "VIOLATED - estimates may be biased")
       << "\n";
  }
  return os.str();
}

Result<QueryExplanation> ExplainQuery(const CarlEngine* engine,
                                      const std::string& query_text,
                                      const EngineOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("ExplainQuery needs an engine");
  }
  CARL_ASSIGN_OR_RETURN(CausalQuery query, ParseQuery(query_text));
  CARL_ASSIGN_OR_RETURN(CarlEngine::ResolvedQuery resolved,
                        engine->Resolve(query, options));
  const GroundedModel& grounded = *resolved.grounded;
  CARL_ASSIGN_OR_RETURN(
      UnitTable table,
      BuildUnitTable(grounded, resolved.request, resolved.unit_options));

  QueryExplanation out;
  out.query = query.ToString();
  out.treatment_attribute = query.treatment.attribute;
  const Schema& schema = grounded.schema();
  out.unit_predicate =
      schema.predicate(schema.attribute(resolved.request.treatment).predicate)
          .name;

  // Unified iff the query runs on a variant whose response rule the base
  // model lacks.
  out.response_attribute = resolved.response_attribute;
  Result<const AggregateRule*> rule =
      grounded.model().FindAggregateRule(out.response_attribute);
  if (rule.ok() &&
      !engine->model().FindAggregateRule(out.response_attribute).ok()) {
    out.unified = true;
    out.unification_rule = (*rule)->ToString();
  }

  out.num_units = table.data.num_rows();
  out.dropped_units = table.dropped_units;
  out.relational = table.relational;
  if (table.relational) {
    const std::vector<double>& peers = table.data.Column(
        table.peer_count_col);
    double total = 0.0;
    for (double p : peers) {
      total += p;
      out.max_peers = std::max(out.max_peers, static_cast<size_t>(p));
      if (p == 0.0) ++out.isolated_units;
    }
    out.mean_peers = total / static_cast<double>(peers.size());
  }

  // Covariate groups: parse "own_<Attr>_<dim>" / "peer_<Attr>_<dim>"
  // columns back into attribute summaries (count units with a nonzero
  // group, i.e. count dim > 0 where available, else non-default values).
  auto summarize = [&](const std::vector<std::string>& cols,
                       const std::string& role) {
    std::map<std::string, size_t> seen;  // attribute -> covered units
    for (const std::string& col : cols) {
      // Strip the role prefix and the dim suffix.
      std::string body = col.substr(role.size() + 1);
      size_t underscore = body.rfind('_');
      if (underscore == std::string::npos) continue;
      std::string attr = body.substr(0, underscore);
      if (seen.count(attr)) continue;
      size_t covered = 0;
      const std::vector<double>& values = table.data.Column(col);
      for (double v : values) {
        if (v != 0.0) ++covered;
      }
      seen[attr] = covered;
    }
    for (const auto& [attr, covered] : seen) {
      out.covariates.push_back({attr, role, covered});
    }
  };
  summarize(table.own_covariate_cols, "own");
  summarize(table.peer_covariate_cols, "peer");
  const RelationalCausalModel& model = grounded.model();
  out.treatment_exogenous =
      !model.IsAggregateAttribute(resolved.request.treatment) &&
      std::none_of(model.rules().begin(), model.rules().end(),
                   [&](const CausalRule& rule) {
                     return rule.head.attribute == out.treatment_attribute;
                   });

  if (options.check_criterion) {
    out.criterion_checked = true;
    CARL_ASSIGN_OR_RETURN(
        out.criterion_ok,
        CheckAdjustmentCriterion(grounded, resolved.request, table.units()));
  }
  return out;
}

}  // namespace carl
