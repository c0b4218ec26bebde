// RelationalCausalModel: a validated set of relational causal rules and
// aggregate rules over a schema (paper §3.2).
//
// Validation performs:
//  * name/arity resolution of every attribute reference against the schema;
//  * registration of aggregate-rule heads as new attribute functions on an
//    inferred predicate (the paper's "extended attribute functions");
//  * rule safety: Def 3.3 requires every variable of the head and body to
//    occur in the condition Q(Y). CaRL programs in the paper frequently
//    omit the obvious unit atoms (e.g. "Bill[P] <= Illness_Severity[P]"
//    with no WHERE); we therefore augment each condition with the *implied
//    unit atoms* — Pred(args) for the head and every body reference — which
//    both restores safety and restricts groundings to real units.
//
// Structural homogeneity (§4.1) makes every rule a statement about
// attribute functions, so what grounding and answers need from the rules
// is a set of lifted facts about attributes and predicates: each
// attribute's aggregate rule and direct effects, the predicates a
// grounding reads, the attributes constraints read and the constants
// rules name. The model derives them once, beside its key, whenever its
// rules change (Create, AddAggregateRule); consumers look them up by id.

#ifndef CARL_CORE_CAUSAL_MODEL_H_
#define CARL_CORE_CAUSAL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "lang/ast.h"
#include "relational/schema.h"

namespace carl {

class RelationalCausalModel {
 public:
  /// Validates `program` against `schema`. The schema is copied and
  /// extended with aggregate-rule head attributes. Queries contained in
  /// the program are kept (unvalidated; the engine validates at answer
  /// time, once the instance is known).
  static Result<RelationalCausalModel> Create(const Schema& schema,
                                              Program program);

  /// Convenience: parse then Create.
  static Result<RelationalCausalModel> Parse(const Schema& schema,
                                             const std::string& text);

  /// Schema extended with aggregate attributes.
  const Schema& extended_schema() const { return extended_schema_; }

  /// Rules with conditions already augmented with implied unit atoms.
  const std::vector<CausalRule>& rules() const { return rules_; }
  const std::vector<AggregateRule>& aggregate_rules() const {
    return aggregate_rules_;
  }
  const std::vector<CausalQuery>& queries() const { return queries_; }

  /// The aggregate rule defining `attribute_name`, or NotFound.
  Result<const AggregateRule*> FindAggregateRule(
      const std::string& attribute_name) const;

  /// The aggregate rule defining `attribute` (an extended-schema id), or
  /// null when no aggregate rule defines it.
  const AggregateRule* AggregateRuleOf(AttributeId attribute) const {
    const size_t a = static_cast<size_t>(attribute);
    if (a >= aggregate_rule_of_.size() || aggregate_rule_of_[a] < 0) {
      return nullptr;
    }
    return &aggregate_rules_[static_cast<size_t>(aggregate_rule_of_[a])];
  }

  /// True if `attribute_id` (in the extended schema) is aggregate-defined.
  bool IsAggregateAttribute(AttributeId attribute_id) const {
    return AggregateRuleOf(attribute_id) != nullptr;
  }

  /// The attributes `attribute` directly causes, ascending: the head of
  /// every causal rule with a body ref to it and of every aggregate rule
  /// over it. Every edge of a grounding instantiates one of these.
  const std::vector<AttributeId>& EffectsOf(AttributeId attribute) const {
    CARL_CHECK(static_cast<size_t>(attribute) < effects_.size());
    return effects_[attribute];
  }

  /// True when a grounding reads the facts of `predicate`: the predicate
  /// bears an attribute (its rows become nodes) or a rule condition names
  /// it (its rows make bindings).
  bool GroundingReads(PredicateId predicate) const {
    return static_cast<size_t>(predicate) < grounding_reads_.size() &&
           grounding_reads_[predicate] != 0;
  }

  /// True when a rule-condition constraint reads `attribute`.
  bool ConstraintReads(AttributeId attribute) const {
    return static_cast<size_t>(attribute) < constraint_reads_.size() &&
           constraint_reads_[attribute] != 0;
  }

  /// Every constant a rule names, in a head, a body, a source, a
  /// condition atom or a constraint's arguments; ascending and distinct.
  const std::vector<std::string>& rule_constants() const {
    return rule_constants_;
  }

  /// Registers an additional aggregate rule after creation. Used by the
  /// engine to unify treated and response units automatically (§4.3,
  /// rule (21)).
  Status AddAggregateRule(AggregateRule rule);

  std::string ToString() const;

  /// What a grounding of the model depends on: the rule set (ToString)
  /// and the extended schema, serialized. QuerySession keys its
  /// groundings by it. Built with the rule facts above by Create and
  /// AddAggregateRule, the only mutators, so reading it costs nothing.
  const std::string& key_text() const { return key_text_; }
  /// Hash of key_text(), built beside it; QuerySession compares it
  /// before the text.
  uint64_t key_hash() const { return key_hash_; }

 private:
  RelationalCausalModel() = default;

  Status ValidateAndAugmentRule(CausalRule* rule);
  Status ValidateAndRegisterAggregateRule(AggregateRule* rule);
  Status ValidateAttributeRef(const AttributeRef& ref) const;
  Status ValidateCondition(const ConjunctiveQuery& condition) const;
  // Rebuilds the key and the rule facts from the rules.
  void RebuildIndex();

  Schema extended_schema_;
  std::vector<CausalRule> rules_;
  std::vector<AggregateRule> aggregate_rules_;
  std::vector<CausalQuery> queries_;
  std::string key_text_;
  uint64_t key_hash_ = 0;
  // The rule facts, built by RebuildIndex. Aggregate rules are held by
  // index, so a copy of the model looks up its own rules.
  std::vector<int> aggregate_rule_of_;             // per attribute; -1: none
  std::vector<std::vector<AttributeId>> effects_;  // per attribute
  std::vector<uint8_t> grounding_reads_;           // per predicate
  std::vector<uint8_t> constraint_reads_;          // per attribute
  std::vector<std::string> rule_constants_;
};

/// Appends Pred(args) atoms implied by `ref` to `where` (deduplicated).
/// Exposed for the engine's derived aggregations and for tests.
void AddImpliedUnitAtom(const Schema& schema, const AttributeRef& ref,
                        ConjunctiveQuery* where);

}  // namespace carl

#endif  // CARL_CORE_CAUSAL_MODEL_H_
