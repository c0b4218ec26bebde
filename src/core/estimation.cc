#include "core/estimation.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/str_util.h"
#include "stats/descriptive.h"
#include "stats/ipw.h"
#include "stats/logistic.h"
#include "stats/matching.h"
#include "stats/ols.h"
#include "stats/stratification.h"

namespace carl {

const char* EstimatorKindToString(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kRegression: return "regression";
    case EstimatorKind::kMatching: return "matching";
    case EstimatorKind::kIpw: return "ipw";
    case EstimatorKind::kStratification: return "stratification";
  }
  return "?";
}

Result<EstimatorKind> ParseEstimatorKind(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "REGRESSION" || upper == "OLS")
    return EstimatorKind::kRegression;
  if (upper == "MATCHING" || upper == "PSM") return EstimatorKind::kMatching;
  if (upper == "IPW") return EstimatorKind::kIpw;
  if (upper == "STRATIFICATION" || upper == "STRAT")
    return EstimatorKind::kStratification;
  return Status::InvalidArgument("unknown estimator: " + name);
}

namespace {

// Covariate columns for propensity/adjustment: ψ(peer treatments) plus the
// embedded own/peer covariates.
std::vector<std::string> AdjustmentColumns(const UnitTable& meta) {
  std::vector<std::string> cols = meta.peer_t_cols;
  for (const std::string& c : meta.own_covariate_cols) cols.push_back(c);
  for (const std::string& c : meta.peer_covariate_cols) cols.push_back(c);
  return cols;
}

Result<double> PropensityBasedAte(const UnitTable& meta,
                                  const FlatTable& view, EstimatorKind kind) {
  const std::vector<double>& y = view.Column(meta.y_col);
  const std::vector<double>& t = view.Column(meta.t_col);
  CARL_ASSIGN_OR_RETURN(
      std::vector<double> ps,
      PropensityScores(view, meta.t_col, AdjustmentColumns(meta)));
  switch (kind) {
    case EstimatorKind::kMatching: {
      CARL_ASSIGN_OR_RETURN(MatchingResult m,
                            PropensityScoreMatchingAte(y, t, ps));
      return m.ate;
    }
    case EstimatorKind::kIpw:
      return IpwAte(y, t, ps);
    case EstimatorKind::kStratification: {
      CARL_ASSIGN_OR_RETURN(StratifiedAteResult s, StratifiedAte(y, t, ps));
      return s.ate;
    }
    case EstimatorKind::kRegression:
      break;
  }
  return Status::Internal("unreachable estimator dispatch");
}

}  // namespace

Result<double> EstimateAte(const UnitTable& meta, const FlatTable& view,
                           EstimatorKind kind) {
  if (kind != EstimatorKind::kRegression) {
    return PropensityBasedAte(meta, view, kind);
  }

  std::vector<std::string> x_cols{meta.t_col};
  for (const std::string& c : AdjustmentColumns(meta)) x_cols.push_back(c);
  CARL_ASSIGN_OR_RETURN(OlsFit fit, FitOls(view, meta.y_col, x_cols));
  double beta_t = fit.CoefficientOr(meta.t_col, 0.0);
  if (!meta.relational || meta.peer_t_embedding == nullptr) return beta_t;

  // Convert the do(all)-vs-do(none) contrast: per-unit ψ difference between
  // an all-ones and an all-zeros peer assignment of that unit's peer count.
  // A unit's effect depends only on its peer count, so each distinct count
  // is projected once; the effects are still summed in unit order.
  const std::vector<double>& peer_count = view.Column(meta.peer_count_col);
  const Embedding& psi = *meta.peer_t_embedding;
  std::vector<double> betas;
  for (const std::string& col : meta.peer_t_cols) {
    betas.push_back(fit.CoefficientOr(col, 0.0));
  }
  size_t max_count = 0;
  for (double pc : peer_count) {
    max_count = std::max(max_count, static_cast<size_t>(pc));
  }
  const std::vector<double> ones(max_count, 1.0);
  const std::vector<double> zeros(max_count, 0.0);
  std::vector<double> psi_one(psi.dims());
  std::vector<double> psi_zero(psi.dims());
  std::vector<std::optional<double>> effect_of_count(max_count + 1);
  double total = 0.0;
  for (double pc : peer_count) {
    size_t n_i = static_cast<size_t>(pc);
    std::optional<double>& effect = effect_of_count[n_i];
    if (!effect.has_value()) {
      double unit_effect = beta_t;
      if (n_i > 0) {
        psi.Apply(ones.data(), n_i, psi_one.data());
        psi.Apply(zeros.data(), n_i, psi_zero.data());
        for (size_t d = 0; d < betas.size(); ++d) {
          unit_effect += betas[d] * (psi_one[d] - psi_zero[d]);
        }
      }
      effect = unit_effect;
    }
    total += *effect;
  }
  return total / static_cast<double>(peer_count.size());
}

Result<RelationalEffects> EstimateRelationalEffects(const UnitTable& meta,
                                                    const FlatTable& view,
                                                    const PeerCondition& cond,
                                                    EstimatorKind kind) {
  if (!meta.relational) {
    return Status::FailedPrecondition(
        "relational effects need units with peers; this unit table has none");
  }

  // Condition indicator from observed peer assignments.
  const std::vector<double>& peer_count = view.Column(meta.peer_count_col);
  const std::vector<double>& peer_treated =
      view.Column(meta.peer_treated_count_col);
  std::vector<double> indicator(peer_count.size());
  for (size_t i = 0; i < peer_count.size(); ++i) {
    indicator[i] = cond.Satisfied(static_cast<size_t>(peer_treated[i]),
                                  static_cast<size_t>(peer_count[i]))
                       ? 1.0
                       : 0.0;
  }
  FlatTable with_c = view;
  const std::string c_col = "peer_cond";
  with_c.AddColumn(c_col, indicator);

  // Regression B: decomposition regression (AOE = AIE + ARE exactly,
  // Proposition 4.1).
  std::vector<std::string> cols_b{meta.t_col, c_col, meta.peer_count_col};
  for (const std::string& c : meta.own_covariate_cols) cols_b.push_back(c);
  for (const std::string& c : meta.peer_covariate_cols) cols_b.push_back(c);
  CARL_ASSIGN_OR_RETURN(OlsFit fit_b, FitOls(with_c, meta.y_col, cols_b));

  RelationalEffects out;
  out.aie = fit_b.CoefficientOr(meta.t_col, 0.0);
  out.are = fit_b.CoefficientOr(c_col, 0.0);
  out.aoe = out.aie + out.are;

  // Variant A: isolated effect through the ψ(peer treatment) columns —
  // the embedding-sensitive estimate (Table 5, Fig 10).
  if (kind == EstimatorKind::kRegression) {
    std::vector<std::string> cols_a{meta.t_col};
    for (const std::string& c : AdjustmentColumns(meta)) cols_a.push_back(c);
    CARL_ASSIGN_OR_RETURN(OlsFit fit_a, FitOls(view, meta.y_col, cols_a));
    out.aie_psi = fit_a.CoefficientOr(meta.t_col, 0.0);
  } else {
    CARL_ASSIGN_OR_RETURN(out.aie_psi, PropensityBasedAte(meta, view, kind));
  }
  return out;
}

Result<NaiveContrast> ComputeNaiveContrast(const UnitTable& meta,
                                           const FlatTable& view) {
  const std::vector<double>& y = view.Column(meta.y_col);
  const std::vector<double>& t = view.Column(meta.t_col);
  CARL_ASSIGN_OR_RETURN(GroupMeans means, MeansByGroup(y, t));
  NaiveContrast out;
  out.treated_mean = means.treated_mean;
  out.control_mean = means.control_mean;
  out.difference = means.difference;
  out.n_treated = means.n_treated;
  out.n_control = means.n_control;
  Result<double> corr = PearsonCorrelation(t, y);
  out.correlation = corr.ok() ? *corr : 0.0;
  return out;
}

}  // namespace carl
