#include "core/explain.h"

#include <algorithm>
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
  UnitRows rows;
  CARL_RETURN_IF_ERROR(ResolveUnitRows(grounded, resolved.request,
                                       resolved.unit_options, &rows));
  CARL_RETURN_IF_ERROR(CheckUnitsKept(rows));

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

  // Row r of a group holds values [ends[r - 1], ends[r]).
  auto row_size = [](const UnitRows::Group& group, size_t r) {
    return group.ends[r] - (r == 0 ? 0 : group.ends[r - 1]);
  };
  out.num_units = rows.y.size();
  out.dropped_units = rows.dropped_unvalued + rows.dropped_isolated;
  out.relational = rows.relational;
  if (rows.relational) {
    size_t total = 0;
    for (size_t r = 0; r < out.num_units; ++r) {
      const size_t peers = row_size(rows.peer_t, r);
      total += peers;
      out.max_peers = std::max(out.max_peers, peers);
      if (peers == 0) ++out.isolated_units;
    }
    out.mean_peers =
        static_cast<double>(total) / static_cast<double>(out.num_units);
  }

  // One summary per covariate group, attributes ascending: a unit is
  // covered when its row of the group holds a value.
  auto summarize = [&](const UnitRows::CovariateGroups& groups,
                       const char* role) {
    for (AttributeId attr : groups.present) {
      const UnitRows::Group& group = groups.by_attr[attr];
      size_t covered = 0;
      for (size_t r = 0; r < out.num_units; ++r) {
        if (row_size(group, r) > 0) ++covered;
      }
      out.covariates.push_back({schema.attribute(attr).name, role, covered});
    }
  };
  summarize(rows.own, "own");
  summarize(rows.peer, "peer");
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
        CheckAdjustmentCriterion(grounded, resolved.request, rows.units()));
  }
  return out;
}

}  // namespace carl
