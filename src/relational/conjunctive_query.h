// Conjunctive queries Q(Y): the WHERE-condition language of CaRL rules
// (paper Def. 3.3) plus attribute comparisons used by query filters such as
// "only single-blind venues" (§6.2 runs each query twice with a WHERE
// condition on Blind[C]).

#ifndef CARL_RELATIONAL_CONJUNCTIVE_QUERY_H_
#define CARL_RELATIONAL_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace carl {

/// A variable or constant appearing in an atom.
struct Term {
  enum class Kind { kVariable, kConstant };
  Kind kind = Kind::kVariable;
  std::string text;

  static Term Var(std::string name) {
    return Term{Kind::kVariable, std::move(name)};
  }
  static Term Const(std::string name) {
    return Term{Kind::kConstant, std::move(name)};
  }
  bool is_variable() const { return kind == Kind::kVariable; }
  bool operator==(const Term& o) const {
    return kind == o.kind && text == o.text;
  }
  std::string ToString() const;
};

/// A relational atom P(t1, ..., tk).
struct Atom {
  std::string predicate;
  std::vector<Term> args;
  bool operator==(const Atom& o) const {
    return predicate == o.predicate && args == o.args;
  }
  std::string ToString() const;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// Evaluates `lhs op rhs`. Numeric values compare numerically (bool/int
/// promote to double); strings compare lexicographically; mixed
/// numeric/string or null operands compare unequal (only kEq/kNe are
/// meaningful then).
bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs);

/// A comparison A[t1,...,tk] op constant, e.g. Blind[C] = "single".
/// Rows whose attribute is missing fail the constraint.
struct AttributeConstraint {
  std::string attribute;
  std::vector<Term> args;
  CompareOp op = CompareOp::kEq;
  Value rhs;
  /// Exact: the rhs must match in type and value.
  bool operator==(const AttributeConstraint& o) const {
    return attribute == o.attribute && args == o.args && op == o.op &&
           rhs == o.rhs;
  }
  std::string ToString() const;
};

/// A conjunction of atoms and attribute constraints. Every variable in a
/// constraint must also appear in some atom (safety).
struct ConjunctiveQuery {
  std::vector<Atom> atoms;
  std::vector<AttributeConstraint> constraints;

  bool empty() const { return atoms.empty() && constraints.empty(); }
  /// Structural: the same atoms and constraints in the same order.
  bool operator==(const ConjunctiveQuery& o) const {
    return atoms == o.atoms && constraints == o.constraints;
  }
  std::string ToString() const;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_CONJUNCTIVE_QUERY_H_
