// Static analysis of causal queries (paper §1, contribution 3: "the
// algorithm performs a static analysis of the causal query, and it
// constructs a unit-table specific to the query and the relational causal
// model by identifying a set of attributes that are sufficient for
// confounding adjustment").
//
// ExplainQuery reports the full resolved plan without estimating anything:
// the unit predicate, the unification rule (if derived), the adjustment
// set grouped by attribute, peer statistics, and the d-separation check —
// what an analyst reviews before trusting an estimate. It reads the same
// CarlEngine::Resolve and the same every-unit criterion check that Answer
// runs, so the two report the same response attribute and criterion_ok,
// and takes the units, peers and covariate groups from Algorithm 1's
// resolved unit rows (ResolveUnitRows), before any embedding.

#ifndef CARL_CORE_EXPLAIN_H_
#define CARL_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"

namespace carl {

struct CovariateSummary {
  std::string attribute;
  /// "own" (parents of the unit's treatment) or "peer" (parents of the
  /// peers' treatments).
  std::string role;
  /// Number of units with at least one value in this group.
  size_t units_covered = 0;
};

struct QueryExplanation {
  std::string query;
  std::string treatment_attribute;
  std::string response_attribute;   ///< resolved (unified when derived)
  std::string unit_predicate;
  bool unified = false;
  /// The derived aggregate rule text when unification happened.
  std::string unification_rule;

  size_t num_units = 0;
  size_t dropped_units = 0;
  bool relational = false;
  double mean_peers = 0.0;
  size_t max_peers = 0;
  size_t isolated_units = 0;  ///< units with no peers

  std::vector<CovariateSummary> covariates;
  /// No rule of the model the query runs on heads the treatment attribute.
  bool treatment_exogenous = false;
  /// Theorem 5.2's criterion, checked by d-separation on every unit of
  /// the unit table, as Answer checks it (options.check_criterion).
  bool criterion_checked = false;
  bool criterion_ok = false;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Resolves and analyzes `query_text` against the engine without running
/// an estimator.
Result<QueryExplanation> ExplainQuery(const CarlEngine* engine,
                                      const std::string& query_text,
                                      const EngineOptions& options = {});

}  // namespace carl

#endif  // CARL_CORE_EXPLAIN_H_
