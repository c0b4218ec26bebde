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

#ifndef CARL_CORE_CAUSAL_MODEL_H_
#define CARL_CORE_CAUSAL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

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

  /// True if `attribute_id` (in the extended schema) is aggregate-defined.
  bool IsAggregateAttribute(AttributeId attribute_id) const;

  /// Registers an additional aggregate rule after creation. Used by the
  /// engine to unify treated and response units automatically (§4.3,
  /// rule (21)).
  Status AddAggregateRule(AggregateRule rule);

  std::string ToString() const;

  /// What a grounding of the model depends on: the rule set (ToString)
  /// and the extended schema, serialized. QuerySession keys its
  /// groundings by it. Built by Create and AddAggregateRule, the only
  /// mutators, so reading it costs nothing.
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
  void RebuildKey();

  Schema extended_schema_;
  std::vector<CausalRule> rules_;
  std::vector<AggregateRule> aggregate_rules_;
  std::vector<CausalQuery> queries_;
  std::vector<AttributeId> aggregate_attribute_ids_;  // parallel to rules
  std::string key_text_;
  uint64_t key_hash_ = 0;
};

/// Appends Pred(args) atoms implied by `ref` to `where` (deduplicated).
/// Exposed for the engine's derived aggregations and for tests.
void AddImpliedUnitAtom(const Schema& schema, const AttributeRef& ref,
                        ConjunctiveQuery* where);

}  // namespace carl

#endif  // CARL_CORE_CAUSAL_MODEL_H_
