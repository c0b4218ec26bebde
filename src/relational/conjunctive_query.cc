#include "relational/conjunctive_query.h"

#include <sstream>

#include "common/str_util.h"

namespace carl {

std::string Term::ToString() const {
  if (kind == Kind::kConstant) return "\"" + text + "\"";
  return text;
}

std::string Atom::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const Term& t : args) parts.push_back(t.ToString());
  return predicate + "(" + Join(parts, ", ") + ")";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) {
    // Null compares unequal to everything, including null (SQL-like).
    return op == CompareOp::kNe;
  }
  if (lhs.is_numeric() && rhs.is_numeric()) {
    double a = lhs.AsDouble();
    double b = rhs.AsDouble();
    switch (op) {
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kGt: return a > b;
      case CompareOp::kGe: return a >= b;
    }
  }
  if (lhs.type() == ValueType::kString && rhs.type() == ValueType::kString) {
    int cmp = lhs.string_value().compare(rhs.string_value());
    switch (op) {
      case CompareOp::kEq: return cmp == 0;
      case CompareOp::kNe: return cmp != 0;
      case CompareOp::kLt: return cmp < 0;
      case CompareOp::kLe: return cmp <= 0;
      case CompareOp::kGt: return cmp > 0;
      case CompareOp::kGe: return cmp >= 0;
    }
  }
  // Mixed incomparable types.
  return op == CompareOp::kNe;
}

std::string AttributeConstraint::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const Term& t : args) parts.push_back(t.ToString());
  std::ostringstream os;
  os << attribute << "[" << Join(parts, ", ") << "] " << CompareOpToString(op)
     << " " << rhs.ToString();
  return os.str();
}

std::string ConjunctiveQuery::ToString() const {
  std::vector<std::string> parts;
  for (const Atom& a : atoms) parts.push_back(a.ToString());
  for (const AttributeConstraint& c : constraints) parts.push_back(c.ToString());
  return Join(parts, ", ");
}

}  // namespace carl
