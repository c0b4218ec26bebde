#include "core/engine.h"

#include <optional>
#include <unordered_map>

#include "common/str_util.h"
#include "core/relational_path.h"
#include "guard/guard.h"
#include "lang/parser.h"
#include "obs/timer.h"
#include "relational/evaluator.h"
#include "stats/bootstrap.h"

namespace carl {
namespace {

// Per-request admission control: Answer(QueryRequest) arms a token from
// the request budget (request fields override the CARL_DEADLINE_MS /
// CARL_MEM_BUDGET environment defaults, see QueryBudget::WithEnvDefaults)
// unless the caller already installed an ambient token — an embedding
// that manages its own ScopedToken keeps full control, and a serving
// layer that admits requests itself (carl_serve) installs its token
// before calling in.
class RequestBudgetToken {
 public:
  explicit RequestBudgetToken(const guard::QueryBudget& request_budget) {
    if (guard::CurrentToken() != nullptr) return;
    guard::QueryBudget budget = request_budget.WithEnvDefaults();
    if (budget.unlimited()) return;
    token_.emplace(budget);
    scoped_.emplace(&*token_);
  }

 private:
  std::optional<guard::ExecToken> token_;
  std::optional<guard::ScopedToken> scoped_;
};

// Evaluates a query WHERE filter into the set of allowed source-unit
// tuples — kept as the evaluator's columnar BindingTable, whose span
// index serves the unit-table membership probes directly. The filter must
// contain exactly one variable whose inferred entity type is the source
// attribute's (entity) predicate; that variable links the filter to the
// response sources.
Result<std::optional<BindingTable>> EvaluateFilter(
    const Instance& instance, const Schema& schema,
    const ConjunctiveQuery& where, PredicateId source_pred) {
  if (where.empty()) {
    return std::optional<BindingTable>();
  }
  const Predicate& source = schema.predicate(source_pred);
  if (source.kind != PredicateKind::kEntity) {
    return Status::Unimplemented(
        "query filters over relationship-attached responses are not "
        "supported; filter on an entity-attached response");
  }

  // Infer variable entity types from atom and constraint positions.
  std::unordered_map<std::string, std::string> var_entity;
  auto note = [&var_entity](const Term& t, const std::string& entity)
      -> Status {
    if (!t.is_variable()) return Status::OK();
    auto [it, inserted] = var_entity.emplace(t.text, entity);
    if (!inserted && it->second != entity) {
      return Status::InvalidArgument("filter variable " + t.text +
                                     " used with two entity types: " +
                                     it->second + " and " + entity);
    }
    return Status::OK();
  };
  for (const Atom& atom : where.atoms) {
    CARL_ASSIGN_OR_RETURN(PredicateId pid,
                          schema.FindPredicate(atom.predicate));
    const Predicate& pred = schema.predicate(pid);
    if (static_cast<int>(atom.args.size()) != pred.arity()) {
      return Status::InvalidArgument("filter atom arity mismatch: " +
                                     atom.ToString());
    }
    for (size_t i = 0; i < atom.args.size(); ++i) {
      CARL_RETURN_IF_ERROR(note(atom.args[i], pred.arg_entities[i]));
    }
  }
  for (const AttributeConstraint& c : where.constraints) {
    CARL_ASSIGN_OR_RETURN(AttributeId aid, schema.FindAttribute(c.attribute));
    const Predicate& pred = schema.predicate(schema.attribute(aid).predicate);
    if (static_cast<int>(c.args.size()) != pred.arity()) {
      return Status::InvalidArgument("filter constraint arity mismatch: " +
                                     c.ToString());
    }
    for (size_t i = 0; i < c.args.size(); ++i) {
      CARL_RETURN_IF_ERROR(note(c.args[i], pred.arg_entities[i]));
    }
  }

  std::vector<std::string> link_vars;
  for (const auto& [var, entity] : var_entity) {
    if (entity == source.name) link_vars.push_back(var);
  }
  if (link_vars.size() != 1) {
    return Status::InvalidArgument(StrFormat(
        "query filter must reference the response unit (%s) through exactly "
        "one variable; found %zu",
        source.name.c_str(), link_vars.size()));
  }

  ConjunctiveQuery cq = where;
  Atom unit_atom;
  unit_atom.predicate = source.name;
  unit_atom.args = {Term::Var(link_vars[0])};
  cq.atoms.push_back(std::move(unit_atom));

  QueryEvaluator evaluator(&instance);
  CARL_ASSIGN_OR_RETURN(BindingTable bindings,
                        evaluator.Evaluate(cq, {link_vars[0]}));
  return std::optional<BindingTable>(std::move(bindings));
}

void AttachBootstrap(EffectEstimate* estimate, const BootstrapResult& b) {
  estimate->std_error = b.sd;
  estimate->ci_low = b.ci_low;
  estimate->ci_high = b.ci_high;
  estimate->samples = b.samples;
}

// The regression sums of `table` when they cover every row: what a point
// estimate on a memo table reads. Bootstrap replicates sum their own.
const OlsSums* FullSums(const UnitTable& table) {
  return table.sums.rows == table.data.num_rows() ? &table.sums : nullptr;
}

// The ATE (eq. 23) and its optional bootstrap.
Result<AteAnswer> EstimateAteAnswer(const UnitTable& table,
                                    const EngineOptions& options) {
  AteAnswer answer;
  answer.relational = table.relational;
  CARL_ASSIGN_OR_RETURN(answer.ate.value,
                        EstimateAte(table, table.data, options.estimator,
                                    FullSums(table)));
  if (options.bootstrap_replicates > 0) {
    CARL_ASSIGN_OR_RETURN(
        BootstrapResult b,
        Bootstrap(table.data.num_rows(), options.bootstrap_replicates,
                  options.seed, [&](const std::vector<size_t>& rows) {
                    return EstimateAte(table, table.data.SelectRows(rows),
                                       options.estimator);
                  }));
    AttachBootstrap(&answer.ate, b);
  }
  return answer;
}

// AIE/ARE/AOE (eq. 24–26) and their optional bootstrap.
Result<RelationalEffectsAnswer> EstimateEffectsAnswer(
    const UnitTable& table, const PeerCondition& condition,
    const EngineOptions& options) {
  RelationalEffectsAnswer answer;
  answer.condition = condition;
  CARL_ASSIGN_OR_RETURN(
      RelationalEffects point,
      EstimateRelationalEffects(table, table.data, condition,
                                options.estimator, FullSums(table)));
  answer.aie.value = point.aie;
  answer.are.value = point.are;
  answer.aoe.value = point.aoe;
  answer.aie_psi.value = point.aie_psi;
  if (options.bootstrap_replicates > 0) {
    // One run keeps all four effects of each replicate.
    CARL_ASSIGN_OR_RETURN(
        std::vector<BootstrapResult> b,
        Bootstrap(table.data.num_rows(), options.bootstrap_replicates,
                  options.seed, 4,
                  [&](const std::vector<size_t>& rows,
                      double* values) -> Status {
                    CARL_ASSIGN_OR_RETURN(
                        RelationalEffects e,
                        EstimateRelationalEffects(
                            table, table.data.SelectRows(rows), condition,
                            options.estimator));
                    values[0] = e.aie;
                    values[1] = e.are;
                    values[2] = e.aoe;
                    values[3] = e.aie_psi;
                    return Status::OK();
                  }));
    AttachBootstrap(&answer.aie, b[0]);
    AttachBootstrap(&answer.are, b[1]);
    AttachBootstrap(&answer.aoe, b[2]);
    AttachBootstrap(&answer.aie_psi, b[3]);
  }
  return answer;
}

}  // namespace

Result<std::unique_ptr<CarlEngine>> CarlEngine::Create(
    const Instance* instance, RelationalCausalModel model) {
  if (instance == nullptr) {
    return Status::InvalidArgument("engine needs an instance");
  }
  return Create(std::make_shared<QuerySession>(instance), std::move(model));
}

Result<std::unique_ptr<CarlEngine>> CarlEngine::Create(
    std::shared_ptr<QuerySession> session, RelationalCausalModel model) {
  if (session == nullptr) {
    return Status::InvalidArgument("engine needs a query session");
  }
  CARL_ASSIGN_OR_RETURN(std::shared_ptr<const GroundedModel> grounded,
                        session->Ground(model));
  return std::unique_ptr<CarlEngine>(
      new CarlEngine(std::move(session), std::move(grounded)));
}

Result<CarlEngine::ResolvedQuery> CarlEngine::Resolve(
    const CausalQuery& query, const EngineOptions& options) const {
  const RelationalCausalModel& base = model();
  const Schema& schema = base.extended_schema();
  CARL_ASSIGN_OR_RETURN(AttributeId t_attr,
                        schema.FindAttribute(query.treatment.attribute));
  PredicateId t_pred = schema.attribute(t_attr).predicate;

  std::optional<AggregateRule> derived;
  Result<AttributeId> y_attr = schema.FindAttribute(query.response.attribute);
  if (y_attr.ok() && schema.attribute(*y_attr).predicate != t_pred) {
    // Existing response on a different predicate: unify along a relational
    // path (§4.3).
    CARL_ASSIGN_OR_RETURN(
        derived,
        DeriveUnifyingAggregateRule(schema, query.treatment, query.response,
                                    options.unification_aggregate));
  } else if (!y_attr.ok()) {
    // Unknown response: allow AGG_<base> shorthand, deriving the
    // aggregation over the relational path (the paper's query (36)).
    const std::string& response_name = query.response.attribute;
    AggregateKind agg;
    if (!SplitAggregateName(response_name, &agg)) {
      return y_attr.status();
    }
    std::string base_name = response_name.substr(response_name.find('_') + 1);
    CARL_ASSIGN_OR_RETURN(AttributeId base_attr,
                          schema.FindAttribute(base_name));
    if (schema.attribute(base_attr).predicate == t_pred) {
      return Status::InvalidArgument(
          "aggregated response " + response_name +
          " over an attribute already on the treatment's predicate; define "
          "an explicit aggregate rule instead");
    }
    AttributeRef source_ref;
    source_ref.attribute = base_name;
    const Predicate& base_pred =
        schema.predicate(schema.attribute(base_attr).predicate);
    for (int i = 0; i < base_pred.arity(); ++i) {
      source_ref.args.push_back(Term::Var(StrFormat("USRC%d", i)));
    }
    CARL_ASSIGN_OR_RETURN(
        derived,
        DeriveUnifyingAggregateRule(schema, query.treatment, source_ref, agg));
    derived->head.attribute = response_name;
  }

  // The grounding of the instance as it is now, through the session: a
  // cache hit while the instance is unchanged, an extend or a re-ground
  // after a mutation.
  ResolvedQuery resolved;
  resolved.response_attribute =
      derived.has_value() ? derived->head.attribute : query.response.attribute;
  if (derived.has_value() &&
      !base.FindAggregateRule(resolved.response_attribute).ok()) {
    // The query's own variant: a copy of the base model plus the derived
    // rule. The engine keeps its base model, so no later query sees this
    // rule.
    RelationalCausalModel variant = base;
    CARL_RETURN_IF_ERROR(variant.AddAggregateRule(std::move(*derived)));
    CARL_ASSIGN_OR_RETURN(resolved.grounded, session_->Ground(variant));
  } else {
    CARL_ASSIGN_OR_RETURN(resolved.grounded, session_->Ground(base));
  }

  const RelationalCausalModel& xmodel = resolved.grounded->model();
  const Schema& xschema = xmodel.extended_schema();
  CARL_ASSIGN_OR_RETURN(resolved.request.response,
                        xschema.FindAttribute(resolved.response_attribute));
  CARL_ASSIGN_OR_RETURN(resolved.request.treatment,
                        xschema.FindAttribute(query.treatment.attribute));

  // The WHERE filter applies to the response sources (aggregate responses
  // filter the aggregated groundings).
  AttributeId source_attr = resolved.request.response;
  if (const AggregateRule* agg = xmodel.AggregateRuleOf(source_attr)) {
    CARL_ASSIGN_OR_RETURN(source_attr,
                          xschema.FindAttribute(agg->source.attribute));
  }
  CARL_ASSIGN_OR_RETURN(
      resolved.request.allowed_sources,
      EvaluateFilter(session_->instance(), xschema, query.where,
                     xschema.attribute(source_attr).predicate));

  resolved.unit_options.embedding = options.embedding;
  // Plain ATE queries keep every unit; peer-effect queries drop the units
  // without peers unless asked not to.
  resolved.unit_options.include_isolated_units =
      !query.peer_condition.has_value() || options.include_isolated_units;
  return resolved;
}

Result<UnitTable> CarlEngine::BuildUnitTableForQuery(
    const CausalQuery& query, const EngineOptions& options) const {
  CARL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(query, options));
  return BuildUnitTable(*resolved.grounded, resolved.request,
                        resolved.unit_options);
}

Result<QueryAnswer> CarlEngine::AnswerQuery(const CausalQuery& query,
                                            const EngineOptions& options,
                                            QueryTiming* timing) const {
  obs::MonotonicTimer phase;
  CARL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(query, options));
  timing->resolve_s = phase.Seconds();
  phase.Reset();
  CARL_ASSIGN_OR_RETURN(
      std::shared_ptr<const UnitTable> shared_table,
      session_->BuildUnitTable(*resolved.grounded, resolved.request,
                               resolved.unit_options));
  const UnitTable& table = *shared_table;
  timing->unit_table_s = phase.Seconds();
  phase.Reset();

  CARL_ASSIGN_OR_RETURN(NaiveContrast naive,
                        ComputeNaiveContrast(table, table.data));
  QueryAnswer answer;
  if (query.peer_condition.has_value()) {
    CARL_ASSIGN_OR_RETURN(
        answer.effects,
        EstimateEffectsAnswer(table, *query.peer_condition, options));
  } else {
    CARL_ASSIGN_OR_RETURN(answer.ate, EstimateAteAnswer(table, options));
  }
  std::optional<bool> criterion_ok;
  if (options.check_criterion) {
    CARL_ASSIGN_OR_RETURN(criterion_ok,
                          CheckAdjustmentCriterion(*resolved.grounded,
                                                   resolved.request,
                                                   table.units()));
  }
  auto fill = [&](auto& out) {
    out.naive = naive;
    out.num_units = table.data.num_rows();
    out.dropped_units = table.dropped_units;
    out.response_attribute = std::move(resolved.response_attribute);
    out.criterion_ok = criterion_ok;
  };
  if (answer.ate.has_value()) {
    fill(*answer.ate);
  } else {
    fill(*answer.effects);
  }
  timing->estimate_s = phase.Seconds();
  return answer;
}

QueryResponse CarlEngine::Answer(const QueryRequest& request) const {
  QueryResponse response;
  obs::MonotonicTimer total;

  const CausalQuery* query = nullptr;
  CausalQuery parsed;
  if (request.query.has_value()) {
    if (!request.query_text.empty()) {
      response.status = Status::InvalidArgument(
          "QueryRequest carries both a parsed query and query text; set "
          "exactly one");
      response.timing.total_s = total.Seconds();
      return response;
    }
    query = &*request.query;
  } else {
    obs::MonotonicTimer parse;
    Result<CausalQuery> r = ParseQuery(request.query_text);
    response.timing.parse_s = parse.Seconds();
    if (!r.ok()) {
      response.status = r.status();
      response.timing.total_s = total.Seconds();
      return response;
    }
    parsed = std::move(*r);
    query = &parsed;
  }

  // Guard admission: the request budget (env-defaulted) holds for
  // everything below, grounding a derived variant included.
  RequestBudgetToken admission(request.budget);
  Result<QueryAnswer> answer =
      AnswerQuery(*query, request.options, &response.timing);
  if (answer.ok()) {
    response.answer = std::move(*answer);
  } else {
    response.status = answer.status();
  }
  response.timing.total_s = total.Seconds();
  return response;
}

}  // namespace carl
