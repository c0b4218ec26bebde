#include "core/estimation.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/str_util.h"
#include "obs/metrics.h"
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

// What a regressor is to the fits; a fit names a set of roles.
enum RegressorRole : unsigned {
  kTreatment = 1u << 0,
  kPeerCondition = 1u << 1,
  kPeerCount = 1u << 2,
  kPeerTreatment = 1u << 3,
  kCovariate = 1u << 4,
};
// y ~ t + ψ(peer treatments) + covariates: the ATE fit (eq. 33), and the
// AIE-ψ variant of a peer-effect estimate.
constexpr unsigned kPsiFit = kTreatment | kPeerTreatment | kCovariate;
// y ~ t + peer_cond + peer_count + covariates: the AIE/ARE decomposition
// (Proposition 4.1: AOE = AIE + ARE exactly).
constexpr unsigned kDecompositionFit =
    kTreatment | kPeerCondition | kPeerCount | kCovariate;

// The regressors of `view` (laid out as `meta`'s data, see UnitTable) in
// the Gram order, the intercept — the null ones column — first: t,
// [peer_cond], peer_count, peer_t_*, own_*, peer_*. peer_cond is listed
// when `peer_cond` is set, peer_count and peer_t_* on a relational table.
struct Regressors {
  std::vector<const double*> cols;
  std::vector<unsigned> roles;  // 0 for the intercept

  Regressors(const UnitTable& meta, const FlatTable& view,
             const double* peer_cond) {
    CARL_DCHECK(view.column_names()[1] == meta.t_col)
        << "view not laid out as its unit table";
    Add(nullptr, 0);
    Add(view.Column(1).data(), kTreatment);
    if (peer_cond != nullptr) Add(peer_cond, kPeerCondition);
    size_t c = 2;
    if (meta.relational) {
      Add(view.Column(2).data(), kPeerCount);
      for (c = 4; c < 4 + meta.peer_t_cols.size(); ++c) {
        Add(view.Column(c).data(), kPeerTreatment);
      }
    }
    for (; c < view.num_cols(); ++c) Add(view.Column(c).data(), kCovariate);
  }

  void Add(const double* col, unsigned role) {
    cols.push_back(col);
    roles.push_back(role);
  }
};

// One Gram over the regressors, and the fits solved from it: a fit names
// roles, leaves out the regressors it does not name and the near-constant
// ones (two-pass variance over every row, as FitOls), and solves from the
// sub-matrix of the rest. Every sub-matrix entry keeps the bits of the
// same entry summed for that fit alone (stats/ols.h).
class SharedGram {
 public:
  // Sums the Gram of y on `x` over the n rows for the fits of the roles
  // `fits`. With `table_sums` (SumRegressionColumns over every row) it
  // reads those and sums only the peer_cond entries; without, it sums
  // the intercept and the regressors some fit keeps from row 0.
  static Result<SharedGram> Sum(const Regressors& x, const double* y,
                                size_t n, unsigned fits,
                                const OlsSums* table_sums) {
    if (n < 2) return Status::InvalidArgument("OLS needs at least 2 rows");
    SharedGram gram;
    const size_t p = x.cols.size();
    std::vector<const double*> named;
    for (size_t i = 1; i < p; ++i) {
      if ((x.roles[i] & fits) != 0) named.push_back(x.cols[i]);
    }
    const std::vector<double> variances = SampleVariances(named, n);
    gram.kept_.assign(p, false);
    gram.kept_[0] = true;
    for (size_t i = 1, v = 0; i < p; ++i) {
      if ((x.roles[i] & fits) != 0) {
        gram.kept_[i] = variances[v++] >= kOlsMinVariance;
      }
    }
    gram.roles_ = x.roles;
    gram.index_.assign(p, 0);
    if (table_sums == nullptr) {
      std::vector<const double*> cols;
      for (size_t i = 0; i < p; ++i) {
        if (!gram.kept_[i]) continue;
        gram.index_[i] = cols.size();
        cols.push_back(x.cols[i]);
      }
      SumProducts(cols, y, n, &gram.own_);
      return gram;
    }
    const bool with_condition = p > 2 && x.roles[2] == kPeerCondition;
    if (table_sums->rows != n ||
        table_sums->cols + (with_condition ? 1 : 0) != p) {
      return Status::Internal("regression sums do not match the table");
    }
    for (size_t i = 0; i < p; ++i) gram.index_[i] = i;
    if (with_condition) {
      gram.own_ = InsertColumn(*table_sums, x.cols, y, 2);
    } else {
      gram.borrowed_ = table_sums;
    }
    return gram;
  }

  // Each regressor's coefficient in the fit of y on the intercept and the
  // kept regressors of `roles`; 0.0 for those the fit leaves out.
  Result<std::vector<double>> Fit(unsigned roles) const {
    std::vector<size_t> members;
    std::vector<size_t> keep;
    for (size_t i = 0; i < roles_.size(); ++i) {
      if (kept_[i] && (i == 0 || (roles_[i] & roles) != 0)) {
        members.push_back(i);
        keep.push_back(index_[i]);
      }
    }
    const OlsSums& sums = borrowed_ != nullptr ? *borrowed_ : own_;
    CARL_ASSIGN_OR_RETURN(std::vector<double> b, SolveOls(sums, keep));
    std::vector<double> beta(roles_.size(), 0.0);
    for (size_t k = 0; k < members.size(); ++k) beta[members[k]] = b[k];
    return beta;
  }

 private:
  std::vector<unsigned> roles_;
  std::vector<bool> kept_;
  std::vector<size_t> index_;  // Gram index of each kept regressor
  OlsSums own_;
  const OlsSums* borrowed_ = nullptr;
};

}  // namespace

void SumRegressionColumns(const UnitTable& table, OlsSums* sums) {
  static obs::Counter& rows_summed =
      obs::Registry::Global().GetCounter("unit_table.rows_summed");
  const Regressors x(table, table.data, nullptr);
  const size_t n = table.data.num_rows();
  const size_t before = sums->rows;
  SumProducts(x.cols, table.data.Column(0).data(), n, sums);
  rows_summed.Add(n - before);
}

Result<double> EstimateAte(const UnitTable& meta, const FlatTable& view,
                           EstimatorKind kind, const OlsSums* sums) {
  if (kind != EstimatorKind::kRegression) {
    return PropensityBasedAte(meta, view, kind);
  }

  const Regressors x(meta, view, nullptr);
  CARL_ASSIGN_OR_RETURN(SharedGram gram,
                        SharedGram::Sum(x, view.Column(0).data(),
                                        view.num_rows(), kPsiFit, sums));
  CARL_ASSIGN_OR_RETURN(std::vector<double> beta, gram.Fit(kPsiFit));
  const double beta_t = beta[1];
  if (!meta.relational || meta.peer_t_embedding == nullptr) return beta_t;

  // Convert the do(all)-vs-do(none) contrast: per-unit ψ difference between
  // an all-ones and an all-zeros peer assignment of that unit's peer count.
  // A unit's effect depends only on its peer count, so each distinct count
  // is projected once; the effects are still summed in unit order.
  const std::vector<double>& peer_count = view.Column(2);
  const Embedding& psi = *meta.peer_t_embedding;
  std::vector<double> betas;
  for (size_t i = 0; i < x.roles.size(); ++i) {
    if (x.roles[i] == kPeerTreatment) betas.push_back(beta[i]);
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

Result<RelationalEffects> EstimateRelationalEffects(
    const UnitTable& meta, const FlatTable& view, const PeerCondition& cond,
    EstimatorKind kind, const OlsSums* sums) {
  if (!meta.relational) {
    return Status::FailedPrecondition(
        "relational effects need units with peers; this unit table has none");
  }

  // Condition indicator from observed peer assignments, a borrowed
  // regressor beside the table's columns.
  const std::vector<double>& peer_count = view.Column(2);
  const std::vector<double>& peer_treated = view.Column(3);
  std::vector<double> indicator(peer_count.size());
  for (size_t i = 0; i < peer_count.size(); ++i) {
    indicator[i] = cond.Satisfied(static_cast<size_t>(peer_treated[i]),
                                  static_cast<size_t>(peer_count[i]))
                       ? 1.0
                       : 0.0;
  }
  const Regressors x(meta, view, indicator.data());
  const bool regression = kind == EstimatorKind::kRegression;
  CARL_ASSIGN_OR_RETURN(
      SharedGram gram,
      SharedGram::Sum(x, view.Column(0).data(), view.num_rows(),
                      kDecompositionFit | (regression ? kPsiFit : 0u), sums));

  // Regression B: decomposition regression (AOE = AIE + ARE exactly,
  // Proposition 4.1).
  CARL_ASSIGN_OR_RETURN(std::vector<double> beta_b,
                        gram.Fit(kDecompositionFit));
  RelationalEffects out;
  out.aie = beta_b[1];
  out.are = beta_b[2];
  out.aoe = out.aie + out.are;

  // Variant A: isolated effect through the ψ(peer treatment) columns —
  // the embedding-sensitive estimate (Table 5, Fig 10).
  if (regression) {
    CARL_ASSIGN_OR_RETURN(std::vector<double> beta_a, gram.Fit(kPsiFit));
    out.aie_psi = beta_a[1];
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
