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
// allocation, and probes the instance's CSR match indexes with keys
// assembled in preallocated scratch. Results are deduplicated on the
// projection to the distinguished variables straight into a columnar
// BindingTable (span-hashed arena) — no owned Tuple is ever built on the
// result path; consumers read rows as TupleView spans.
//
// Prepare() compiles a query once into a shareable PreparedQuery;
// Evaluate accepts either a raw query (compiling on the fly) or a
// PreparedQuery. A PreparedQuery is tied to the instance contents at
// Prepare time — re-prepare after mutating the instance.
//
// Evaluate and EvaluateDelta run under the ambient guard token: every
// binding they enumerate is charged against its binding budget, and a
// stop surfaces as the token's Status.

#ifndef CARL_RELATIONAL_EVALUATOR_H_
#define CARL_RELATIONAL_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/binding_table.h"
#include "relational/conjunctive_query.h"
#include "relational/instance.h"
#include "relational/tuple.h"

namespace carl {

namespace evaluator_internal {
struct CompiledQuery;
struct CompiledDeltaQuery;
}  // namespace evaluator_internal

/// A compiled conjunctive query (join plan + constraint schedule),
/// shareable across threads. Cheap to copy.
class PreparedQuery {
 public:
  PreparedQuery() = default;

 private:
  friend class QueryEvaluator;
  std::shared_ptr<const evaluator_internal::CompiledQuery> impl_;
};

/// A compiled family of delta-restricted plans: one plan per atom of the
/// query, with that atom forced as the join root. Pivot plan i restricts
/// its root to rows at or beyond the root predicate's watermark ("new"),
/// every atom with a lower original index to rows strictly below its
/// predicate's watermark ("old"), and leaves later atoms unrestricted —
/// the standard semi-naive decomposition, so the union over pivots is
/// exactly the bindings that touch at least one new row, each produced
/// once. Cheap to copy.
class PreparedDeltaQuery {
 public:
  PreparedDeltaQuery() = default;

 private:
  friend class QueryEvaluator;
  std::shared_ptr<const evaluator_internal::CompiledDeltaQuery> impl_;
};

class QueryEvaluator {
 public:
  explicit QueryEvaluator(const Instance* instance);

  /// Compiles `query` into a reusable plan. Invalidated by instance
  /// mutation (the plan bakes in atom order tie-breaks and constant ids).
  Result<PreparedQuery> Prepare(const ConjunctiveQuery& query) const;

  /// Distinct bindings of `output_vars` as a columnar BindingTable whose
  /// rows align with `output_vars`. Every output variable must occur in
  /// some atom of the query. An empty query with no output vars is
  /// satisfied (returns one arity-0 binding).
  Result<BindingTable> Evaluate(
      const ConjunctiveQuery& query,
      const std::vector<std::string>& output_vars) const;
  Result<BindingTable> Evaluate(
      const PreparedQuery& prepared,
      const std::vector<std::string>& output_vars) const;

  /// Compiles the semi-naive delta plans of `query` (one forced-root plan
  /// per atom). Like Prepare, the result is tied to the instance contents
  /// at call time — prepare after the mutation whose delta is evaluated,
  /// so constants interned by the delta resolve.
  Result<PreparedDeltaQuery> PrepareDelta(const ConjunctiveQuery& query) const;

  /// Distinct bindings of `output_vars` that use at least one fact row at
  /// or beyond its predicate's watermark. `fact_watermarks` holds one
  /// prior row count per PredicateId (current row count for untouched
  /// predicates). Pivot plans run in atom order and merge
  /// first-occurrence, so the result order is deterministic. An atom-less
  /// query yields no delta bindings.
  Result<BindingTable> EvaluateDelta(
      const PreparedDeltaQuery& prepared,
      const std::vector<std::string>& output_vars,
      const std::vector<uint32_t>& fact_watermarks) const;

  /// Boolean query: does any satisfying assignment exist?
  Result<bool> Ask(const ConjunctiveQuery& query) const;

  /// Number of satisfying assignments of all variables (no projection).
  Result<size_t> Count(const ConjunctiveQuery& query) const;

 private:
  const Instance* instance_;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_EVALUATOR_H_
