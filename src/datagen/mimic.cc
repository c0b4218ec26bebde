#include "datagen/mimic.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/str_util.h"
#include "stats/logistic.h"

namespace carl {
namespace datagen {
namespace {

Result<Dataset> BuildSchemaAndModel() {
  Dataset data;
  data.schema = std::make_unique<Schema>();
  Schema& schema = *data.schema;

  CARL_RETURN_IF_ERROR(schema.AddEntity("Pa").status());         // patient
  CARL_RETURN_IF_ERROR(schema.AddEntity("Caregiver").status());
  CARL_RETURN_IF_ERROR(schema.AddEntity("Prescription").status());
  CARL_RETURN_IF_ERROR(
      schema.AddRelationship("Care", {"Caregiver", "Pa"}).status());
  CARL_RETURN_IF_ERROR(
      schema.AddRelationship("Given", {"Prescription", "Pa"}).status());
  CARL_RETURN_IF_ERROR(
      schema.AddRelationship("Drug", {"Caregiver", "Prescription"}).status());

  struct AttrSpec {
    const char* name;
    const char* pred;
    ValueType type;
  };
  for (const AttrSpec& a : std::initializer_list<AttrSpec>{
           {"Eth", "Pa", ValueType::kDouble},
           {"Religion", "Pa", ValueType::kDouble},
           {"Sex", "Pa", ValueType::kBool},
           {"Age", "Pa", ValueType::kDouble},
           {"SelfPay", "Pa", ValueType::kBool},
           {"Diag", "Pa", ValueType::kDouble},
           {"Severe", "Pa", ValueType::kBool},
           {"Len", "Pa", ValueType::kDouble},
           {"Death", "Pa", ValueType::kBool},
           {"Doc", "Caregiver", ValueType::kDouble},
           {"Dose", "Prescription", ValueType::kDouble}}) {
    CARL_RETURN_IF_ERROR(
        schema.AddAttribute(a.name, a.pred, true, a.type).status());
  }

  data.instance = std::make_unique<Instance>(data.schema.get());

  // The paper's MIMIC-III model (§6.1), with the deferred-admission
  // mechanism (SelfPay -> Severe) and age channel made explicit.
  data.model_text = R"(
    SelfPay[P] <= Eth[P], Religion[P], Sex[P], Age[P], Diag[P] WHERE Pa(P)
    Diag[P] <= Eth[P], Religion[P], Sex[P], Age[P] WHERE Pa(P)
    Severe[P] <= Diag[P] WHERE Pa(P)
    Dose[D] <= Diag[P], Severe[P], Doc[C] WHERE Drug(C, D), Care(C, P), Given(D, P)
    Len[P] <= Dose[D], Diag[P], SelfPay[P], Age[P] WHERE Given(D, P)
    Death[P] <= Len[P], Diag[P], Dose[D], Doc[C], Severe[P], SelfPay[P] WHERE Care(C, P), Given(D, P)
  )";
  return data;
}

}  // namespace

Result<Dataset> GenerateMimic(const MimicConfig& config) {
  CARL_ASSIGN_OR_RETURN(Dataset data, BuildSchemaAndModel());
  Instance& db = *data.instance;
  const Schema& schema = *data.schema;
  Rng rng(config.seed);

  // Fast-path handles: resolve every predicate/attribute name once and
  // insert by interned ids (span inserts, no per-fact string lookups).
  CARL_ASSIGN_OR_RETURN(PredicateId pa_p, schema.FindPredicate("Pa"));
  CARL_ASSIGN_OR_RETURN(PredicateId caregiver_p,
                        schema.FindPredicate("Caregiver"));
  CARL_ASSIGN_OR_RETURN(PredicateId prescription_p,
                        schema.FindPredicate("Prescription"));
  CARL_ASSIGN_OR_RETURN(PredicateId care_p, schema.FindPredicate("Care"));
  CARL_ASSIGN_OR_RETURN(PredicateId given_p, schema.FindPredicate("Given"));
  CARL_ASSIGN_OR_RETURN(PredicateId drug_p, schema.FindPredicate("Drug"));
  CARL_ASSIGN_OR_RETURN(AttributeId eth_a, schema.FindAttribute("Eth"));
  CARL_ASSIGN_OR_RETURN(AttributeId religion_a,
                        schema.FindAttribute("Religion"));
  CARL_ASSIGN_OR_RETURN(AttributeId sex_a, schema.FindAttribute("Sex"));
  CARL_ASSIGN_OR_RETURN(AttributeId age_a, schema.FindAttribute("Age"));
  CARL_ASSIGN_OR_RETURN(AttributeId selfpay_a,
                        schema.FindAttribute("SelfPay"));
  CARL_ASSIGN_OR_RETURN(AttributeId diag_a, schema.FindAttribute("Diag"));
  CARL_ASSIGN_OR_RETURN(AttributeId severe_a, schema.FindAttribute("Severe"));
  CARL_ASSIGN_OR_RETURN(AttributeId len_a, schema.FindAttribute("Len"));
  CARL_ASSIGN_OR_RETURN(AttributeId death_a, schema.FindAttribute("Death"));
  CARL_ASSIGN_OR_RETURN(AttributeId doc_a, schema.FindAttribute("Doc"));
  CARL_ASSIGN_OR_RETURN(AttributeId dose_a, schema.FindAttribute("Dose"));

  // Caregivers with a skill score.
  std::vector<double> doc_skill(config.num_caregivers);
  std::vector<SymbolId> caregiver_sym(config.num_caregivers);
  for (size_t c = 0; c < config.num_caregivers; ++c) {
    SymbolId sym = db.Intern(StrFormat("c%zu", c));
    caregiver_sym[c] = sym;
    CARL_RETURN_IF_ERROR(db.AddFactSpan(caregiver_p, &sym, 1));
    doc_skill[c] = rng.Normal(0.0, 1.0);
    CARL_RETURN_IF_ERROR(
        db.SetAttributeSpan(doc_a, &sym, 1, Value(doc_skill[c])));
  }

  size_t prescription_counter = 0;
  for (size_t p = 0; p < config.num_patients; ++p) {
    SymbolId pat = db.Intern(StrFormat("p%zu", p));
    CARL_RETURN_IF_ERROR(db.AddFactSpan(pa_p, &pat, 1));

    // Demographics (exogenous).
    double eth = static_cast<double>(rng.UniformInt(0, 4));
    double religion = static_cast<double>(rng.UniformInt(0, 3));
    bool sex = rng.Bernoulli(0.5);
    double age = std::clamp(rng.Normal(62.0, 18.0), 18.0, 99.0);
    CARL_RETURN_IF_ERROR(db.SetAttributeSpan(eth_a, &pat, 1, Value(eth)));
    CARL_RETURN_IF_ERROR(
        db.SetAttributeSpan(religion_a, &pat, 1, Value(religion)));
    CARL_RETURN_IF_ERROR(db.SetAttributeSpan(sex_a, &pat, 1, Value(sex)));
    CARL_RETURN_IF_ERROR(db.SetAttributeSpan(age_a, &pat, 1, Value(age)));

    // Diagnosis severity index (demographics-driven baseline illness).
    double diag = 0.35 + 0.006 * (age - 62.0) + 0.08 * (eth == 2.0 ? 1.0 : 0.0) +
                  rng.Normal(0.0, 0.3);
    CARL_RETURN_IF_ERROR(db.SetAttributeSpan(diag_a, &pat, 1, Value(diag)));

    // Deferred admission: the uninsured check in only once the problem is
    // severe, so conditional on being in the ICU, self-payers are sicker
    // (Diag -> SelfPay). Younger patients are more often uninsured.
    double selfpay_logit = -2.9 - 0.068 * (age - 62.0) + 3.8 * (diag - 0.35) +
                           0.25 * (eth == 2.0 ? 1.0 : 0.0) +
                           0.15 * (eth == 3.0 ? 1.0 : 0.0) +
                           (sex ? 0.05 : 0.0) + 0.03 * religion;
    bool selfpay = rng.Bernoulli(Sigmoid(selfpay_logit));
    CARL_RETURN_IF_ERROR(
        db.SetAttributeSpan(selfpay_a, &pat, 1, Value(selfpay)));

    double severe_logit = -1.1 + 2.1 * diag;
    bool severe = rng.Bernoulli(Sigmoid(severe_logit));
    CARL_RETURN_IF_ERROR(
        db.SetAttributeSpan(severe_a, &pat, 1, Value(severe)));

    // Care team and prescriptions.
    size_t c = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(config.num_caregivers) - 1));
    SymbolId care_args[2] = {caregiver_sym[c], pat};
    CARL_RETURN_IF_ERROR(db.AddFactSpan(care_p, care_args, 2));

    int64_t num_rx = 1 + rng.Poisson(config.mean_prescriptions - 1.0);
    double dose_sum = 0.0;
    for (int64_t d = 0; d < num_rx; ++d) {
      SymbolId rx = db.Intern(StrFormat("d%zu", prescription_counter++));
      CARL_RETURN_IF_ERROR(db.AddFactSpan(prescription_p, &rx, 1));
      SymbolId given_args[2] = {rx, pat};
      CARL_RETURN_IF_ERROR(db.AddFactSpan(given_p, given_args, 2));
      SymbolId drug_args[2] = {caregiver_sym[c], rx};
      CARL_RETURN_IF_ERROR(db.AddFactSpan(drug_p, drug_args, 2));
      double dose = std::max(
          0.0, 1.0 + 1.6 * diag + (severe ? 0.9 : 0.0) - 0.1 * doc_skill[c] +
                   rng.Normal(0.0, 0.4));
      dose_sum += dose;
      CARL_RETURN_IF_ERROR(db.SetAttributeSpan(dose_a, &rx, 1, Value(dose)));
    }
    double dose_mean = dose_sum / static_cast<double>(num_rx);

    // Length of stay (hours): sicker and older patients stay longer;
    // self-payers cut stays short (the true causal effect). The strong
    // age channel (young <-> uninsured <-> short stays) inflates the naive
    // contrast well past the causal -26h.
    double len = 120.0 + 55.0 * dose_mean + 35.0 * diag + 4.6 * (age - 62.0) +
                 (selfpay ? config.selfpay_los_effect : 0.0) +
                 rng.Normal(0.0, 40.0);
    len = std::max(6.0, len);
    CARL_RETURN_IF_ERROR(db.SetAttributeSpan(len_a, &pat, 1, Value(len)));

    // Mortality: dominated by diagnosis severity; self-pay has only the
    // tiny direct effect configured (paper: ATE ~ 0.5%).
    double death_logit = -4.1 + 2.3 * diag + (severe ? 0.95 : 0.0) +
                         0.14 * dose_mean + 0.0008 * (len - 200.0) -
                         0.08 * doc_skill[c] +
                         (selfpay ? 16.0 * config.selfpay_death_effect : 0.0);
    bool death = rng.Bernoulli(Sigmoid(death_logit));
    CARL_RETURN_IF_ERROR(
        db.SetAttributeSpan(death_a, &pat, 1, Value(death)));
  }
  return data;
}

}  // namespace datagen
}  // namespace carl
