#include "relational/evaluator.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/str_util.h"
#include "guard/guard.h"
#include "obs/trace.h"
#include "relational/span_index.h"
#include "relational/storage_stats.h"

namespace carl {
namespace evaluator_internal {

// One argument position of a compiled atom: either a dense variable id or
// an interned constant.
struct CompiledTerm {
  bool is_var = false;
  int var = -1;          // dense variable id when is_var
  SymbolId constant = kInvalidSymbol;  // when !is_var
  bool unseen_constant = false;  // constant never interned -> no matches
};

struct CompiledAtom {
  PredicateId predicate = kInvalidPredicate;
  std::vector<CompiledTerm> terms;
};

// A scratch-buffer slot filled from the assignment at evaluation time.
struct Fill {
  int idx = 0;  // index into the key/args template
  int var = 0;  // dense variable id to read
};

struct CompiledConstraint {
  AttributeId attribute = kInvalidAttribute;
  CompareOp op = CompareOp::kEq;
  Value rhs;
  bool unseen = false;               // some constant arg was never interned
  std::vector<SymbolId> args_template;  // constants baked in
  std::vector<Fill> fills;
};

// One depth of the join: the atom the greedy most-bound-first scheduler
// places there. Atom choice depends only on which atoms are placed (never
// on row values), so the whole order — and each step's bound positions,
// first-occurrence binds, repeated-variable checks, and ready
// constraints — is computed once at compile time.
// Row restriction of one plan step against a per-predicate watermark
// (prior row count): kAny reads every row, kOldOnly the rows below the
// watermark, kNewOnly the rows at or beyond it. CSR postings are in row
// order within a key, so both cuts are a single lower_bound.
enum class RowFilter : uint8_t { kAny, kOldOnly, kNewOnly };

struct PlanStep {
  PredicateId predicate = kInvalidPredicate;
  size_t arity = 0;
  int atom_index = -1;  // index of the atom in the source query
  RowFilter filter = RowFilter::kAny;  // used by delta plans only
  bool unseen = false;  // an argument constant was never interned
  std::vector<int> bound_positions;     // index key positions, ascending
  std::vector<SymbolId> key_template;   // constants baked in
  std::vector<Fill> key_fills;          // variable key slots
  struct VarBind {
    int pos = 0;
    int var = 0;
  };
  std::vector<VarBind> binds;   // first occurrence: assignment[var] = row[pos]
  std::vector<VarBind> checks;  // intra-atom repeat: assignment[var] == row[pos]
  std::vector<int> due_constraints;  // constraint ids checked at this depth
};

struct CompiledQuery {
  std::vector<CompiledAtom> atoms;
  std::vector<CompiledConstraint> constraints;
  std::vector<PlanStep> steps;  // one per atom, in scheduling order
  int num_vars = 0;
  std::unordered_map<std::string, int> var_ids;
  // Some always-checked atom/constraint references an unseen constant, so
  // the query (if it has atoms) cannot have results.
  bool always_empty = false;
};

// The semi-naive delta decomposition: pivots[i] is the query re-planned
// with atom i forced as the join root and per-step RowFilters derived
// from the original atom indexes (pivot new-only, earlier atoms old-only,
// later atoms unrestricted).
struct CompiledDeltaQuery {
  std::vector<CompiledQuery> pivots;
};

}  // namespace evaluator_internal

namespace {

using evaluator_internal::CompiledAtom;
using evaluator_internal::CompiledConstraint;
using evaluator_internal::CompiledDeltaQuery;
using evaluator_internal::CompiledQuery;
using evaluator_internal::CompiledTerm;
using evaluator_internal::Fill;
using evaluator_internal::PlanStep;
using evaluator_internal::RowFilter;

class Compiler {
 public:
  Compiler(const Instance& instance) : instance_(instance) {}

  Result<CompiledQuery> Compile(const ConjunctiveQuery& query,
                                int forced_root = -1) {
    CompiledQuery out;
    for (const Atom& atom : query.atoms) {
      CARL_ASSIGN_OR_RETURN(PredicateId pid,
                            instance_.schema().FindPredicate(atom.predicate));
      const Predicate& p = instance_.schema().predicate(pid);
      if (static_cast<int>(atom.args.size()) != p.arity()) {
        return Status::InvalidArgument(
            StrFormat("atom %s has %zu args, predicate arity is %d",
                      atom.predicate.c_str(), atom.args.size(), p.arity()));
      }
      CompiledAtom ca;
      ca.predicate = pid;
      for (const Term& t : atom.args) ca.terms.push_back(CompileTerm(t, &out));
      out.atoms.push_back(std::move(ca));
    }
    for (const AttributeConstraint& c : query.constraints) {
      CARL_ASSIGN_OR_RETURN(AttributeId aid,
                            instance_.schema().FindAttribute(c.attribute));
      const AttributeDef& def = instance_.schema().attribute(aid);
      const Predicate& p = instance_.schema().predicate(def.predicate);
      if (static_cast<int>(c.args.size()) != p.arity()) {
        return Status::InvalidArgument(
            StrFormat("constraint on %s has %zu args, expected %d",
                      c.attribute.c_str(), c.args.size(), p.arity()));
      }
      CompiledConstraint cc;
      cc.attribute = aid;
      cc.op = c.op;
      cc.rhs = c.rhs;
      for (const Term& t : c.args) {
        CompiledTerm ct = CompileTerm(t, nullptr);
        int idx = static_cast<int>(cc.args_template.size());
        if (ct.is_var) {
          auto it = out.var_ids.find(t.text);
          if (it == out.var_ids.end()) {
            return Status::InvalidArgument(
                "constraint variable " + t.text +
                " does not occur in any atom (unsafe query)");
          }
          cc.args_template.push_back(kInvalidSymbol);
          cc.fills.push_back(Fill{idx, it->second});
        } else {
          if (ct.unseen_constant) cc.unseen = true;
          cc.args_template.push_back(ct.constant);
        }
      }
      out.constraints.push_back(std::move(cc));
    }
    PlanJoin(&out, forced_root);
    return out;
  }

  // One plan per pivot atom, implementing the semi-naive decomposition:
  // a binding using at least one new row is found exactly once, by the
  // pivot whose atom matches its lowest-indexed new-row atom.
  Result<CompiledDeltaQuery> CompileDelta(const ConjunctiveQuery& query) {
    CompiledDeltaQuery out;
    out.pivots.reserve(query.atoms.size());
    for (size_t pivot = 0; pivot < query.atoms.size(); ++pivot) {
      CARL_ASSIGN_OR_RETURN(CompiledQuery plan,
                            Compile(query, static_cast<int>(pivot)));
      for (PlanStep& step : plan.steps) {
        if (step.atom_index == static_cast<int>(pivot)) {
          step.filter = RowFilter::kNewOnly;
        } else if (step.atom_index < static_cast<int>(pivot)) {
          step.filter = RowFilter::kOldOnly;
        }
      }
      out.pivots.push_back(std::move(plan));
    }
    return out;
  }

 private:
  // `query` non-null: new variables are registered. Null: lookup-only
  // (used for constraints, which must reference atom variables).
  CompiledTerm CompileTerm(const Term& t, CompiledQuery* query) {
    CompiledTerm ct;
    if (t.is_variable()) {
      ct.is_var = true;
      if (query != nullptr) {
        auto [it, inserted] = query->var_ids.emplace(t.text, query->num_vars);
        if (inserted) ++query->num_vars;
        ct.var = it->second;
      }
    } else {
      ct.constant = instance_.LookupConstant(t.text);
      if (ct.constant == kInvalidSymbol) ct.unseen_constant = true;
    }
    return ct;
  }

  // Replays the greedy scheduler (most bound positions first; ties toward
  // the smaller relation, then the lower atom index) over the
  // value-independent boundness state, materializing one PlanStep per
  // depth and assigning each constraint to the first depth where all its
  // variables are bound. A non-negative `forced_root` pins that atom to
  // depth 0 (delta pivot plans); the remaining depths schedule greedily.
  void PlanJoin(CompiledQuery* q, int forced_root) {
    size_t n = q->atoms.size();
    std::vector<char> placed(n, 0);
    std::vector<char> var_bound(static_cast<size_t>(q->num_vars), 0);
    std::vector<int> var_depth(static_cast<size_t>(q->num_vars), 0);
    q->steps.reserve(n);
    for (size_t depth = 0; depth < n; ++depth) {
      int best = -1;
      if (depth == 0 && forced_root >= 0) {
        best = forced_root;
      } else {
        int best_bound = -1;
        size_t best_size = 0;
        for (size_t i = 0; i < n; ++i) {
          if (placed[i]) continue;
          const CompiledAtom& atom = q->atoms[i];
          int bound = 0;
          for (const CompiledTerm& t : atom.terms) {
            if (!t.is_var || var_bound[t.var]) ++bound;
          }
          size_t size = instance_.NumRows(atom.predicate);
          if (bound > best_bound ||
              (bound == best_bound && size < best_size)) {
            best = static_cast<int>(i);
            best_bound = bound;
            best_size = size;
          }
        }
      }
      placed[best] = 1;
      const CompiledAtom& atom = q->atoms[best];

      PlanStep step;
      step.predicate = atom.predicate;
      step.arity = atom.terms.size();
      step.atom_index = best;
      for (size_t p = 0; p < atom.terms.size(); ++p) {
        const CompiledTerm& t = atom.terms[p];
        if (!t.is_var) {
          if (t.unseen_constant) {
            step.unseen = true;
            q->always_empty = true;
            break;
          }
          step.bound_positions.push_back(static_cast<int>(p));
          step.key_template.push_back(t.constant);
        } else if (var_bound[t.var]) {
          step.bound_positions.push_back(static_cast<int>(p));
          step.key_fills.push_back(
              Fill{static_cast<int>(step.key_template.size()), t.var});
          step.key_template.push_back(kInvalidSymbol);
        } else {
          bool repeat = false;
          for (const PlanStep::VarBind& b : step.binds) {
            if (b.var == t.var) {
              repeat = true;
              break;
            }
          }
          if (repeat) {
            step.checks.push_back(PlanStep::VarBind{static_cast<int>(p), t.var});
          } else {
            step.binds.push_back(PlanStep::VarBind{static_cast<int>(p), t.var});
          }
        }
      }
      for (const PlanStep::VarBind& b : step.binds) {
        var_bound[b.var] = 1;
        var_depth[b.var] = static_cast<int>(depth);
      }
      q->steps.push_back(std::move(step));
    }

    // Constraints fire at the first depth where every variable is bound
    // (checked once per candidate row of that depth, exactly like the
    // dynamic ready-set of the historical searcher). Constant-only
    // constraints fire at depth 0. With no atoms, constraints are never
    // checked (an atom-less query is vacuously satisfied).
    if (!q->steps.empty()) {
      for (size_t c = 0; c < q->constraints.size(); ++c) {
        const CompiledConstraint& cc = q->constraints[c];
        if (cc.unseen) q->always_empty = true;
        int ready = 0;
        for (const Fill& f : cc.fills) {
          ready = std::max(ready, var_depth[f.var]);
        }
        q->steps[ready].due_constraints.push_back(static_cast<int>(c));
      }
    }
  }

  const Instance& instance_;
};

// Depth-first join over the compiled plan. All scratch (assignment, key
// buffers, constraint args) is preallocated at construction; the run loop
// performs no heap allocation.
class Searcher {
 public:
  Searcher(const Instance& instance, const CompiledQuery& query)
      : instance_(instance),
        query_(query),
        assignment_(static_cast<size_t>(query.num_vars), kInvalidSymbol) {
    storage_stats::CountAlloc();
    step_keys_.reserve(query.steps.size());
    step_index_.reserve(query.steps.size());
    step_rows_.reserve(query.steps.size());
    for (const PlanStep& step : query.steps) {
      step_keys_.push_back(step.key_template);
      step_index_.push_back(
          step.unseen ? nullptr
                      : instance.MatchIndex(step.predicate,
                                            step.bound_positions.data(),
                                            step.bound_positions.size()));
      step_rows_.push_back(instance.Rows(step.predicate));
    }
    constraint_args_.reserve(query.constraints.size());
    for (const CompiledConstraint& c : query.constraints) {
      constraint_args_.push_back(c.args_template);
    }
  }

  // Activates the per-step RowFilters of a delta plan against one prior
  // row count per PredicateId. Postings are row-ordered within a key, so
  // each filter is a binary-search cut of the candidate span.
  void SetWatermarks(const uint32_t* watermarks) {
    watermarks_ = watermarks;
  }

  // Calls `leaf` on each complete assignment; `leaf` returns false to
  // stop. An atom-less query fires the leaf exactly once.
  template <typename Leaf>
  void Run(Leaf&& leaf) {
    if (query_.steps.empty()) {
      leaf(assignment_);
      return;
    }
    if (query_.always_empty) return;
    Recurse(0, leaf);
  }

 private:
  bool EvalConstraint(int cid) {
    const CompiledConstraint& c = query_.constraints[cid];
    std::vector<SymbolId>& args = constraint_args_[cid];
    for (const Fill& f : c.fills) args[f.idx] = assignment_[f.var];
    const Value* v =
        instance_.FindAttributeValue(c.attribute, args.data(), args.size());
    return v != nullptr && CompareValues(*v, c.op, c.rhs);
  }

  // Returns false to propagate a stop request. Variables are not unbound
  // on backtrack: the plan guarantees a variable is only read at depths
  // after its binding depth, where it has been (re)bound.
  template <typename Leaf>
  bool Recurse(size_t depth, Leaf& leaf) {
    if (depth == query_.steps.size()) return leaf(assignment_);
    const PlanStep& step = query_.steps[depth];
    std::vector<SymbolId>& key = step_keys_[depth];
    for (const Fill& f : step.key_fills) key[f.idx] = assignment_[f.var];
    RowIdSpan rows = step_index_[depth]->Lookup(key.data(), key.size());
    const uint32_t* it = rows.begin();
    const uint32_t* end = rows.end();
    if (watermarks_ != nullptr && step.filter != RowFilter::kAny) {
      const uint32_t* cut =
          std::lower_bound(it, end, watermarks_[step.predicate]);
      if (step.filter == RowFilter::kNewOnly) {
        it = cut;
      } else {
        end = cut;
      }
    }
    const SymbolId* base = step_rows_[depth].data();
    const size_t arity = step.arity;
    for (; it != end; ++it) {
      // Cooperative cancellation: one relaxed load + branch per candidate
      // row (the guard's armed-but-idle cost, gated ≤1 ns/probe by
      // bench_guard_overhead). Stops propagate like a leaf stop request.
      if (token_ != nullptr && token_->stopped()) return false;
      const SymbolId* row = base + static_cast<size_t>(*it) * arity;
      for (const PlanStep::VarBind& b : step.binds) {
        assignment_[b.var] = row[b.pos];
      }
      bool ok = true;
      for (const PlanStep::VarBind& c : step.checks) {
        if (assignment_[c.var] != row[c.pos]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (int cid : step.due_constraints) {
          if (!EvalConstraint(cid)) {
            ok = false;
            break;
          }
        }
      }
      if (ok && !Recurse(depth + 1, leaf)) return false;
    }
    return true;
  }

  const Instance& instance_;
  const CompiledQuery& query_;
  std::vector<SymbolId> assignment_;
  std::vector<std::vector<SymbolId>> step_keys_;  // per depth, mutable key
  std::vector<const Instance::PositionIndex*> step_index_;
  std::vector<RelationView> step_rows_;
  std::vector<std::vector<SymbolId>> constraint_args_;
  const uint32_t* watermarks_ = nullptr;  // per PredicateId, delta runs only
  // The ambient token, read once at construction, not per row.
  guard::ExecToken* token_ = guard::CurrentToken();
};

Result<std::vector<int>> ResolveProjection(
    const CompiledQuery& query, const std::vector<std::string>& output_vars) {
  std::vector<int> projection;
  projection.reserve(output_vars.size());
  for (const std::string& v : output_vars) {
    auto it = query.var_ids.find(v);
    if (it == query.var_ids.end()) {
      return Status::InvalidArgument("output variable " + v +
                                     " does not occur in the query");
    }
    projection.push_back(it->second);
  }
  return projection;
}

// Runs the search, deduplicating projected bindings straight into the
// columnar result table — no per-binding materialization anywhere. Every
// binding is charged against the guard's binding budget, in strides, so
// the leaf pays one add per kBindingChargeStride rows instead of an
// atomic RMW per binding; an exhausted budget stops the search. Full
// evaluations and every delta pivot run through here.
constexpr size_t kBindingChargeStride = 256;

void RunProjected(Searcher& searcher, const std::vector<int>& projection,
                  BindingTable* table) {
  std::vector<SymbolId> projected(projection.size());
  guard::ExecToken* token = guard::CurrentToken();
  size_t uncharged = 0;
  searcher.Run([&](const std::vector<SymbolId>& assignment) {
    for (size_t i = 0; i < projection.size(); ++i) {
      projected[i] = assignment[projection[i]];
    }
    table->InsertDistinct(projected.data());
    if (token != nullptr && ++uncharged >= kBindingChargeStride) {
      uncharged = 0;
      if (token->ChargeBindings(kBindingChargeStride)) return false;
    }
    return true;
  });
  if (token != nullptr && uncharged > 0) token->ChargeBindings(uncharged);
}

}  // namespace

QueryEvaluator::QueryEvaluator(const Instance* instance)
    : instance_(instance) {
  CARL_CHECK(instance != nullptr);
}

Result<PreparedQuery> QueryEvaluator::Prepare(
    const ConjunctiveQuery& query) const {
  CARL_TRACE_SCOPE("eval.prepare");
  Compiler compiler(*instance_);
  CARL_ASSIGN_OR_RETURN(CompiledQuery compiled, compiler.Compile(query));
  PreparedQuery prepared;
  prepared.impl_ =
      std::make_shared<const CompiledQuery>(std::move(compiled));
  return prepared;
}

Result<BindingTable> QueryEvaluator::Evaluate(
    const ConjunctiveQuery& query,
    const std::vector<std::string>& output_vars) const {
  CARL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query));
  return Evaluate(prepared, output_vars);
}

Result<BindingTable> QueryEvaluator::Evaluate(
    const PreparedQuery& prepared,
    const std::vector<std::string>& output_vars) const {
  CARL_TRACE_SCOPE("eval.evaluate");
  if (prepared.impl_ == nullptr) {
    return Status::FailedPrecondition(
        "unprepared query: pass the result of Prepare()");
  }
  const CompiledQuery& compiled = *prepared.impl_;
  CARL_ASSIGN_OR_RETURN(std::vector<int> projection,
                        ResolveProjection(compiled, output_vars));
  BindingTable table(projection.size());
  Searcher searcher(*instance_, compiled);
  RunProjected(searcher, projection, &table);
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  return table;
}

Result<PreparedDeltaQuery> QueryEvaluator::PrepareDelta(
    const ConjunctiveQuery& query) const {
  CARL_TRACE_SCOPE("eval.prepare_delta");
  Compiler compiler(*instance_);
  CARL_ASSIGN_OR_RETURN(CompiledDeltaQuery compiled,
                        compiler.CompileDelta(query));
  PreparedDeltaQuery prepared;
  prepared.impl_ =
      std::make_shared<const CompiledDeltaQuery>(std::move(compiled));
  return prepared;
}

Result<BindingTable> QueryEvaluator::EvaluateDelta(
    const PreparedDeltaQuery& prepared,
    const std::vector<std::string>& output_vars,
    const std::vector<uint32_t>& fact_watermarks) const {
  CARL_TRACE_SCOPE("eval.evaluate_delta");
  if (prepared.impl_ == nullptr) {
    return Status::FailedPrecondition(
        "unprepared delta query: pass the result of PrepareDelta()");
  }
  if (fact_watermarks.size() < instance_->schema().num_predicates()) {
    return Status::InvalidArgument(
        StrFormat("fact watermarks cover %zu predicates, schema has %zu",
                  fact_watermarks.size(),
                  instance_->schema().num_predicates()));
  }
  const CompiledDeltaQuery& compiled = *prepared.impl_;
  std::vector<int> projection;
  if (!compiled.pivots.empty()) {
    CARL_ASSIGN_OR_RETURN(
        projection, ResolveProjection(compiled.pivots[0], output_vars));
  }
  BindingTable table(projection.size());
  for (const CompiledQuery& pivot : compiled.pivots) {
    if (pivot.always_empty || pivot.steps.empty()) continue;
    // A pivot whose predicate gained no rows contributes nothing; skip
    // it before building indexes for its plan.
    PredicateId root = pivot.steps[0].predicate;
    if (fact_watermarks[root] >= instance_->NumRows(root)) continue;
    Searcher searcher(*instance_, pivot);
    searcher.SetWatermarks(fact_watermarks.data());
    RunProjected(searcher, projection, &table);
    if (guard::StopRequested()) break;
  }
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  return table;
}

Result<bool> QueryEvaluator::Ask(const ConjunctiveQuery& query) const {
  Compiler compiler(*instance_);
  CARL_ASSIGN_OR_RETURN(CompiledQuery compiled, compiler.Compile(query));
  bool found = false;
  Searcher searcher(*instance_, compiled);
  searcher.Run([&](const std::vector<SymbolId>&) {
    found = true;
    return false;  // stop at the first witness
  });
  return found;
}

Result<size_t> QueryEvaluator::Count(const ConjunctiveQuery& query) const {
  Compiler compiler(*instance_);
  CARL_ASSIGN_OR_RETURN(CompiledQuery compiled, compiler.Compile(query));
  size_t count = 0;
  Searcher searcher(*instance_, compiled);
  searcher.Run([&](const std::vector<SymbolId>&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace carl
