// Effect estimation on unit tables (paper §5.2, eq. 33).
//
// Free functions so that benches can re-estimate on row subsets of a unit
// table (bootstrap replicates, CATE strata) without rebuilding it.
//
// Every regression on a unit table is solved from X'X and X'y sums whose
// columns keep one order: the intercept, t, [peer_cond], peer_count,
// peer_t_*, own_*, peer_* (see stats/ols.h for why the order fixes the
// bits). A fit names a subset of them and solves from its sub-matrix, so
// the point estimate of an answer can read the sums QuerySession keeps
// with its table (SumRegressionColumns, carried on as rows append) and get
// the bits of a fit summed from row 0, which is what bootstrap replicates
// and memo-free callers do. A peer-effect estimate sums only its
// condition indicator's entries on top of the table's sums, and solves
// both of its fits from sub-matrices of that one Gram.
//
// Estimators:
//  * kRegression — OLS on y ~ t + ψ(peer treatments) + covariates; the
//    conditional expectation of eq. (33) as a regression function.
//  * kMatching / kIpw / kStratification — propensity-score methods with
//    e(x) = P(t=1 | covariates, ψ(peer treatments)).
//
// For ATE queries on relational data the regression estimator converts the
// all-treated-vs-none intervention into coefficients: for each unit i with
// n_i peers, ATE_i = β_t + Σ_d β_d (ψ_d(1^{n_i}) − ψ_d(0^{n_i})), averaged
// over units (ψ evaluated with the fitted embedding). Propensity methods
// estimate the isolated (own-treatment) contrast, which coincides with the
// ATE when the data has no interference.

#ifndef CARL_CORE_ESTIMATION_H_
#define CARL_CORE_ESTIMATION_H_

#include <string>

#include "common/result.h"
#include "core/unit_table.h"
#include "lang/ast.h"
#include "relational/flat_table.h"
#include "stats/ols.h"

namespace carl {

enum class EstimatorKind { kRegression, kMatching, kIpw, kStratification };

const char* EstimatorKindToString(EstimatorKind kind);
Result<EstimatorKind> ParseEstimatorKind(const std::string& name);

/// Carries `sums` on over the rows of `table` it has not absorbed: X'X
/// and X'y of y on the intercept and the regression columns t,
/// peer_count (relational tables only), peer_t_*, own_*, peer_*, in that
/// order. What QuerySession keeps in UnitTable::sums.
void SumRegressionColumns(const UnitTable& table, OlsSums* sums);

/// Point ATE estimate on `view` (the unit table's data or a row subset of
/// it — column layout must match `meta`). `sums`, when set, must be
/// SumRegressionColumns over every row of `view`; the regression
/// estimator then reads them instead of summing from row 0, with the
/// same bits.
Result<double> EstimateAte(const UnitTable& meta, const FlatTable& view,
                           EstimatorKind kind,
                           const OlsSums* sums = nullptr);

/// Relational / isolated / overall effects for a peer condition
/// (paper eq. 24–26; Proposition 4.1 holds by construction: aoe=aie+are).
struct RelationalEffects {
  double aie = 0.0;
  double are = 0.0;
  double aoe = 0.0;
  /// Isolated effect re-estimated through the ψ(peer-treatment) columns
  /// (embedding-sensitive variant used by the Table 5 / Fig 10 ablations;
  /// equals aie up to estimation noise).
  double aie_psi = 0.0;
};
/// `sums` as for EstimateAte.
Result<RelationalEffects> EstimateRelationalEffects(
    const UnitTable& meta, const FlatTable& view, const PeerCondition& cond,
    EstimatorKind kind, const OlsSums* sums = nullptr);

/// Naive difference of group means plus Pearson correlation — the
/// "correlation is not causation" columns of Table 3 / Fig 7.
struct NaiveContrast {
  double treated_mean = 0.0;
  double control_mean = 0.0;
  double difference = 0.0;
  double correlation = 0.0;
  size_t n_treated = 0;
  size_t n_control = 0;
};
Result<NaiveContrast> ComputeNaiveContrast(const UnitTable& meta,
                                           const FlatTable& view);

}  // namespace carl

#endif  // CARL_CORE_ESTIMATION_H_
