// QueryEvaluator: evaluates conjunctive queries against an Instance.
//
// Grounding a CaRL rule (Def. 3.5) asks for all bindings of the
// distinguished variables Z such that ∆ |= Q([Y/z]) with the remaining
// variables existentially quantified; this evaluator answers exactly that.
//
// Strategy: greedy most-bound-first index-nested-loop join, planned once
// at compile time. Which atom the search schedules next depends only on
// which atoms are already placed (never on row values), so the entire
// atom order — and with it each step's bound positions, variable binds,
// repeated-variable checks, and ready constraints — is memoized per depth
// in the compiled plan. The run loop then does no planning, no per-row
// allocation, and probes the instance's match indexes with keys
// assembled in preallocated scratch. Results are deduplicated on the
// projection to the distinguished variables straight into a columnar
// BindingTable (span-hashed arena) — no owned Tuple is ever built on the
// result path; consumers read rows as TupleView spans.
//
// Each call compiles its plan against the instance as it is at the call
// (atom-order tie-breaks read relation sizes, constants resolve to their
// current ids), so a call after a mutation sees the mutation.
//
// Evaluate and EvaluateDelta run under the ambient guard token: every
// binding they enumerate is charged against its binding budget, and a
// stop surfaces as the token's Status.

#ifndef CARL_RELATIONAL_EVALUATOR_H_
#define CARL_RELATIONAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/binding_table.h"
#include "relational/conjunctive_query.h"
#include "relational/instance.h"
#include "relational/tuple.h"

namespace carl {

class QueryEvaluator {
 public:
  explicit QueryEvaluator(const Instance* instance);

  /// Distinct bindings of `output_vars` as a columnar BindingTable whose
  /// rows align with `output_vars`. Every output variable must occur in
  /// some atom of the query. An empty query with no output vars is
  /// satisfied (returns one arity-0 binding).
  Result<BindingTable> Evaluate(
      const ConjunctiveQuery& query,
      const std::vector<std::string>& output_vars) const;

  /// Distinct bindings of `output_vars` that use at least one fact row at
  /// or beyond its predicate's watermark. `fact_watermarks` holds one
  /// prior row count per PredicateId (current row count for untouched
  /// predicates). The semi-naive decomposition: one plan per atom of the
  /// query with that atom forced as the join root ("pivot"), restricted
  /// to its new rows, every atom with a lower index to old rows and later
  /// atoms unrestricted, so the union over pivots is exactly the bindings
  /// that touch a new row, each found once. Pivots run in atom order and
  /// merge first-occurrence, so the result order is deterministic. An
  /// atom-less query yields no delta bindings. Call it after the mutation
  /// whose delta it evaluates, so constants the delta interned resolve.
  Result<BindingTable> EvaluateDelta(
      const ConjunctiveQuery& query,
      const std::vector<std::string>& output_vars,
      const std::vector<uint32_t>& fact_watermarks) const;

 private:
  const Instance* instance_;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_EVALUATOR_H_
