#include "core/causal_model.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/str_util.h"
#include "lang/parser.h"

namespace carl {

void AddImpliedUnitAtom(const Schema& schema, const AttributeRef& ref,
                        ConjunctiveQuery* where) {
  Result<AttributeId> aid = schema.FindAttribute(ref.attribute);
  if (!aid.ok()) return;  // validation reports this separately
  const Predicate& pred = schema.predicate(schema.attribute(*aid).predicate);
  Atom implied;
  implied.predicate = pred.name;
  implied.args = ref.args;
  for (const Atom& existing : where->atoms) {
    if (existing.predicate == implied.predicate &&
        existing.args == implied.args) {
      return;
    }
  }
  where->atoms.push_back(std::move(implied));
}

Result<RelationalCausalModel> RelationalCausalModel::Create(
    const Schema& schema, Program program) {
  RelationalCausalModel model;
  model.extended_schema_ = schema;

  // Register aggregate heads first so causal rules may reference them.
  for (AggregateRule& rule : program.aggregate_rules) {
    CARL_RETURN_IF_ERROR(model.ValidateAndRegisterAggregateRule(&rule));
    model.aggregate_rules_.push_back(std::move(rule));
  }
  for (CausalRule& rule : program.rules) {
    CARL_RETURN_IF_ERROR(model.ValidateAndAugmentRule(&rule));
    model.rules_.push_back(std::move(rule));
  }
  model.queries_ = std::move(program.queries);
  model.RebuildIndex();
  return model;
}

Result<RelationalCausalModel> RelationalCausalModel::Parse(
    const Schema& schema, const std::string& text) {
  CARL_ASSIGN_OR_RETURN(Program program, ParseProgram(text));
  return Create(schema, std::move(program));
}

Status RelationalCausalModel::ValidateAttributeRef(
    const AttributeRef& ref) const {
  CARL_ASSIGN_OR_RETURN(AttributeId aid,
                        extended_schema_.FindAttribute(ref.attribute));
  const AttributeDef& def = extended_schema_.attribute(aid);
  const Predicate& pred = extended_schema_.predicate(def.predicate);
  if (static_cast<int>(ref.args.size()) != pred.arity()) {
    return Status::InvalidArgument(StrFormat(
        "attribute %s takes %d argument(s), got %zu", ref.attribute.c_str(),
        pred.arity(), ref.args.size()));
  }
  return Status::OK();
}

Status RelationalCausalModel::ValidateCondition(
    const ConjunctiveQuery& condition) const {
  for (const Atom& atom : condition.atoms) {
    CARL_ASSIGN_OR_RETURN(PredicateId pid,
                          extended_schema_.FindPredicate(atom.predicate));
    const Predicate& pred = extended_schema_.predicate(pid);
    if (static_cast<int>(atom.args.size()) != pred.arity()) {
      return Status::InvalidArgument(StrFormat(
          "atom %s has %zu argument(s), predicate arity is %d",
          atom.predicate.c_str(), atom.args.size(), pred.arity()));
    }
  }
  for (const AttributeConstraint& c : condition.constraints) {
    AttributeRef ref;
    ref.attribute = c.attribute;
    ref.args = c.args;
    CARL_RETURN_IF_ERROR(ValidateAttributeRef(ref));
  }
  return Status::OK();
}

Status RelationalCausalModel::ValidateAndAugmentRule(CausalRule* rule) {
  CARL_RETURN_IF_ERROR(ValidateAttributeRef(rule->head));
  if (FindAggregateRule(rule->head.attribute).ok()) {
    return Status::InvalidArgument(
        "aggregate-defined attribute cannot head a causal rule: " +
        rule->head.attribute);
  }
  if (rule->body.empty()) {
    return Status::InvalidArgument("causal rule needs a non-empty body: " +
                                   rule->ToString());
  }
  for (const AttributeRef& b : rule->body) {
    CARL_RETURN_IF_ERROR(ValidateAttributeRef(b));
  }
  CARL_RETURN_IF_ERROR(ValidateCondition(rule->where));

  AddImpliedUnitAtom(extended_schema_, rule->head, &rule->where);
  for (const AttributeRef& b : rule->body) {
    AddImpliedUnitAtom(extended_schema_, b, &rule->where);
  }

  // Safety (Def 3.3): after augmentation every head/body variable must
  // occur in the condition's atoms.
  std::unordered_set<std::string> condition_vars;
  for (const Atom& atom : rule->where.atoms) {
    for (const Term& t : atom.args) {
      if (t.is_variable()) condition_vars.insert(t.text);
    }
  }
  auto check_ref = [&](const AttributeRef& ref) -> Status {
    for (const Term& t : ref.args) {
      if (t.is_variable() && condition_vars.count(t.text) == 0) {
        return Status::InvalidArgument(
            "unsafe rule: variable " + t.text +
            " does not occur in the condition of " + ref.ToString());
      }
    }
    return Status::OK();
  };
  CARL_RETURN_IF_ERROR(check_ref(rule->head));
  for (const AttributeRef& b : rule->body) CARL_RETURN_IF_ERROR(check_ref(b));
  return Status::OK();
}

Status RelationalCausalModel::ValidateAndRegisterAggregateRule(
    AggregateRule* rule) {
  CARL_RETURN_IF_ERROR(ValidateAttributeRef(rule->source));
  CARL_RETURN_IF_ERROR(ValidateCondition(rule->where));
  if (extended_schema_.FindAttribute(rule->head.attribute).ok()) {
    return Status::AlreadyExists("aggregate head already declared: " +
                                 rule->head.attribute);
  }

  // Infer the predicate the head attribute is a function of:
  //  (a) an atom of the condition whose argument list equals the head's;
  //  (b) otherwise, a single-variable head whose variable appears in some
  //      atom: the entity of that argument position.
  std::string head_predicate;
  ConjunctiveQuery augmented = rule->where;
  AddImpliedUnitAtom(extended_schema_, rule->source, &augmented);
  for (const Atom& atom : augmented.atoms) {
    if (atom.args == rule->head.args) {
      head_predicate = atom.predicate;
      break;
    }
  }
  if (head_predicate.empty() && rule->head.args.size() == 1 &&
      rule->head.args[0].is_variable()) {
    const std::string& var = rule->head.args[0].text;
    for (const Atom& atom : augmented.atoms) {
      Result<PredicateId> pid = extended_schema_.FindPredicate(atom.predicate);
      if (!pid.ok()) continue;
      const Predicate& pred = extended_schema_.predicate(*pid);
      for (size_t pos = 0; pos < atom.args.size(); ++pos) {
        if (atom.args[pos].is_variable() && atom.args[pos].text == var) {
          head_predicate = pred.arg_entities[pos];
          break;
        }
      }
      if (!head_predicate.empty()) break;
    }
  }
  if (head_predicate.empty()) {
    return Status::InvalidArgument(
        "cannot infer the unit predicate of aggregate head " +
        rule->head.ToString() +
        "; add an atom over exactly the head variables to the WHERE clause");
  }

  CARL_RETURN_IF_ERROR(
      extended_schema_
          .AddAttribute(rule->head.attribute, head_predicate,
                        /*observed=*/true, ValueType::kDouble)
          .status());

  // Augment the condition with the implied unit atoms (source + head).
  AddImpliedUnitAtom(extended_schema_, rule->source, &rule->where);
  AddImpliedUnitAtom(extended_schema_, rule->head, &rule->where);

  // Safety for head and source variables.
  std::unordered_set<std::string> condition_vars;
  for (const Atom& atom : rule->where.atoms) {
    for (const Term& t : atom.args) {
      if (t.is_variable()) condition_vars.insert(t.text);
    }
  }
  for (const AttributeRef* ref : {&rule->head, &rule->source}) {
    for (const Term& t : ref->args) {
      if (t.is_variable() && condition_vars.count(t.text) == 0) {
        return Status::InvalidArgument(
            "unsafe aggregate rule: variable " + t.text +
            " does not occur in the condition");
      }
    }
  }
  return Status::OK();
}

Result<const AggregateRule*> RelationalCausalModel::FindAggregateRule(
    const std::string& attribute_name) const {
  for (const AggregateRule& rule : aggregate_rules_) {
    if (rule.head.attribute == attribute_name) return &rule;
  }
  return Status::NotFound("no aggregate rule defines: " + attribute_name);
}

Status RelationalCausalModel::AddAggregateRule(AggregateRule rule) {
  // A rule that fails validation may already have extended the schema,
  // so the key and the facts are rebuilt either way.
  Status status = ValidateAndRegisterAggregateRule(&rule);
  if (status.ok()) aggregate_rules_.push_back(std::move(rule));
  RebuildIndex();
  return status;
}

void RelationalCausalModel::RebuildIndex() {
  key_text_ = ToString() + "\n@schema\n" + extended_schema_.ToString();
  key_hash_ = std::hash<std::string>{}(key_text_);

  // Every name below was resolved by validation.
  const Schema& schema = extended_schema_;
  auto id_of = [&schema](const std::string& attribute) {
    return *schema.FindAttribute(attribute);
  };
  aggregate_rule_of_.assign(schema.num_attributes(), -1);
  effects_.assign(schema.num_attributes(), {});
  grounding_reads_.assign(schema.num_predicates(), 0);
  constraint_reads_.assign(schema.num_attributes(), 0);
  rule_constants_.clear();
  for (const AttributeDef& attr : schema.attributes()) {
    grounding_reads_[attr.predicate] = 1;
  }
  auto name_constants = [this](const std::vector<Term>& terms) {
    for (const Term& t : terms) {
      if (!t.is_variable()) rule_constants_.push_back(t.text);
    }
  };
  auto read_head = [&](const AttributeRef& head,
                       const ConjunctiveQuery& where) {
    name_constants(head.args);
    for (const Atom& atom : where.atoms) {
      grounding_reads_[*schema.FindPredicate(atom.predicate)] = 1;
      name_constants(atom.args);
    }
    for (const AttributeConstraint& c : where.constraints) {
      constraint_reads_[id_of(c.attribute)] = 1;
      name_constants(c.args);
    }
  };
  auto read_cause = [&](const AttributeRef& cause, const AttributeRef& head) {
    effects_[id_of(cause.attribute)].push_back(id_of(head.attribute));
    name_constants(cause.args);
  };
  for (const CausalRule& rule : rules_) {
    read_head(rule.head, rule.where);
    for (const AttributeRef& b : rule.body) read_cause(b, rule.head);
  }
  for (size_t r = 0; r < aggregate_rules_.size(); ++r) {
    const AggregateRule& rule = aggregate_rules_[r];
    aggregate_rule_of_[id_of(rule.head.attribute)] = static_cast<int>(r);
    read_head(rule.head, rule.where);
    read_cause(rule.source, rule.head);
  }
  auto sort_unique = [](auto* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  for (std::vector<AttributeId>& effects : effects_) sort_unique(&effects);
  sort_unique(&rule_constants_);
}

std::string RelationalCausalModel::ToString() const {
  std::ostringstream os;
  for (const CausalRule& r : rules_) os << r.ToString() << "\n";
  for (const AggregateRule& r : aggregate_rules_) os << r.ToString() << "\n";
  return os.str();
}

}  // namespace carl
