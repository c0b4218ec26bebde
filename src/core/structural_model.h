// StructuralModel: non-parametric structural equations attached to
// attribute functions (paper §2, eq. F_X), evaluated over a grounded
// causal graph.
//
// Used for two things:
//  * generating synthetic instances (SYNTHETIC REVIEWDATA, simulated
//    MIMIC/NIS) by evaluating the grounded graph in topological order;
//  * computing interventional ground truth: do()-surgery fixes node values
//    and re-evaluates descendants, with per-node deterministic noise so
//    both arms of a contrast share exogenous randomness (counterfactual
//    consistency).
//
// Structural homogeneity (§4.1) is built in: one equation per attribute
// function, applied to every grounding.

#ifndef CARL_CORE_STRUCTURAL_MODEL_H_
#define CARL_CORE_STRUCTURAL_MODEL_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/grounding.h"

namespace carl {

/// A node's parent values, grouped by the parent attribute's name.
class ParentView {
 public:
  explicit ParentView(
      const std::map<std::string, std::vector<double>>* groups)
      : groups_(groups) {}

  /// All parent values of the given attribute (empty if none).
  const std::vector<double>& Values(const std::string& attribute) const;
  double Sum(const std::string& attribute) const;
  double Count(const std::string& attribute) const;
  /// Mean, or `if_empty` when the group is absent.
  double Mean(const std::string& attribute, double if_empty = 0.0) const;
  double Max(const std::string& attribute, double if_empty = 0.0) const;
  /// Fraction of parents of `attribute` that are nonzero; `if_empty` when
  /// none (useful for threshold-style relational effects).
  double FractionNonzero(const std::string& attribute,
                         double if_empty = 0.0) const;

 private:
  const std::map<std::string, std::vector<double>>* groups_;
  static const std::vector<double> kEmpty;
};

/// value = f(unit, parents, rng). `unit` is a view of the grounding tuple
/// (interned constants, straight from the graph's node arena), letting
/// generators pin pre-drawn exogenous values per unit. The rng is seeded
/// deterministically per node so repeated simulations with the same seed
/// reproduce the same noise.
using StructuralEquation =
    std::function<double(TupleView, const ParentView&, Rng&)>;

class StructuralModel {
 public:
  /// Attaches the equation for all groundings of `attribute`.
  void Define(const std::string& attribute, StructuralEquation equation);

  /// A do() intervention: fixes groundings of an attribute. The setter
  /// returns nullopt for units that keep their structural value.
  struct Intervention {
    std::string attribute;
    std::function<std::optional<double>(TupleView)> value;
  };

  /// Evaluates every node in topological order. Precedence per node:
  /// intervention > aggregate computation > structural equation >
  /// observed instance value > 0. Returns values indexed by NodeId.
  Result<std::vector<double>> Simulate(
      const GroundedModel& grounded, uint64_t seed,
      const std::vector<Intervention>& interventions = {}) const;

  /// Re-evaluates only the descendants of the intervened nodes, starting
  /// from `base` (a previous Simulate result with the same seed). Much
  /// cheaper than a full pass for unit-level counterfactuals.
  Result<std::vector<double>> SimulateLocal(
      const GroundedModel& grounded, uint64_t seed,
      const std::vector<double>& base,
      const std::unordered_map<NodeId, double>& do_values) const;

  /// Copies simulated values into the instance for all *observed* base
  /// attributes (generation pipeline). Unobserved attributes stay missing,
  /// matching the paper's notion of latent attribute functions.
  Status WriteObservedValues(const GroundedModel& grounded,
                             const std::vector<double>& values,
                             Instance* instance) const;

 private:
  double EvaluateNode(const GroundedModel& grounded, NodeId node,
                      const std::vector<double>& values, uint64_t seed) const;

  std::unordered_map<std::string, StructuralEquation> equations_;
};

}  // namespace carl

#endif  // CARL_CORE_STRUCTURAL_MODEL_H_
