// Simulated MIMIC-III (paper §6.1): critical-care records with the 5-rule
// causal model of the paper (SelfPay, Diag, Dose, Death, Len) extended
// with the severity/age mechanisms the paper's discussion implies:
// self-payers defer admission and arrive sicker (confounding of mortality)
// and leave earlier for cost reasons (a real negative effect on length of
// stay, inflated by selection in the naive contrast).
//
// Substitution (DESIGN.md): the real MIMIC-III is access-controlled
// (400M rows, 26 tables); this simulator reproduces the schema fragment
// the paper's model touches (Patients, Caregivers, Prescriptions, Care,
// Given) at configurable scale, with generative mechanisms that produce
// the paper's qualitative Table 3 rows: naive mortality gap >> ATE ~ 0,
// and naive LOS gap ~ 3-4x the causal effect.

#ifndef CARL_DATAGEN_MIMIC_H_
#define CARL_DATAGEN_MIMIC_H_

#include <cstdint>

#include "common/result.h"
#include "datagen/dataset.h"

namespace carl {
namespace datagen {

struct MimicConfig {
  size_t num_patients = 40000;
  size_t num_caregivers = 1300;
  double mean_prescriptions = 2.0;
  /// Causal effect of self-pay on length of stay, in hours (negative:
  /// uninsured patients leave earlier).
  double selfpay_los_effect = -26.0;
  /// Direct causal effect of self-pay on mortality probability.
  double selfpay_death_effect = 0.005;
  uint64_t seed = 13;
};

/// Queries from the paper (eq. 34): "Death[P] <= SelfPay[P]?" and
/// "Len[P] <= SelfPay[P]?".
Result<Dataset> GenerateMimic(const MimicConfig& config);

}  // namespace datagen
}  // namespace carl

#endif  // CARL_DATAGEN_MIMIC_H_
