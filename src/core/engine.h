// CarlEngine: end-to-end causal query answering (paper §5).
//
// Pipeline per query:
//   1. resolve treatment/response attributes; if the response lives on a
//      different predicate than the treatment, derive the unifying
//      aggregation along a relational path (§4.3). The query then runs on
//      its own model variant — the base model plus that one rule, grounded
//      through the session cache;
//   2. evaluate the query's WHERE filter into an allowed-source set;
//   3. build the unit table (Algorithm 1) with the configured embedding,
//      through the session's unit-row memo of the grounding;
//   4. estimate: ATE (eq. 23) for plain queries, AIE/ARE/AOE (eq. 24–26)
//      for WHEN ... PEERS TREATED queries;
//   5. optional bootstrap standard errors and an optional check of the
//      adjustment criterion (Theorem 5.2) by d-separation on every unit
//      of the table.
//
// The engine is immutable after Create: it holds its session and the
// model it was created with, and a derived aggregate belongs to the one
// query that needs it. Every answer takes its grounding from the session
// (QuerySession::Ground: a cache hit while the instance is unchanged), so
// it reads the instance as it is when asked, never as it was at Create.
// An answer therefore never depends on which queries ran earlier or on
// what other engines over the session did. Answer is safe to call
// concurrently: the session is thread-safe and single-flight
// (query_session.h).

#ifndef CARL_CORE_ENGINE_H_
#define CARL_CORE_ENGINE_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/causal_model.h"
#include "core/estimation.h"
#include "core/grounding.h"
#include "core/query_session.h"
#include "core/unit_table.h"
#include "guard/guard.h"
#include "lang/ast.h"

namespace carl {

struct EngineOptions {
  EmbeddingKind embedding = EmbeddingKind::kMean;
  EstimatorKind estimator = EstimatorKind::kRegression;
  /// 0 disables the bootstrap (std_error and CI stay NaN).
  int bootstrap_replicates = 0;
  uint64_t seed = 42;
  /// Check Theorem 5.2's criterion by d-separation on every unit of the
  /// unit table (CheckAdjustmentCriterion) and report criterion_ok.
  bool check_criterion = false;
  /// Peer-effect queries drop units without peers unless set.
  bool include_isolated_units = false;
  /// Aggregate used when unifying treated/response units (§4.3).
  AggregateKind unification_aggregate = AggregateKind::kAvg;
};

struct EffectEstimate {
  double value = 0.0;
  double std_error = std::numeric_limits<double>::quiet_NaN();
  double ci_low = std::numeric_limits<double>::quiet_NaN();
  double ci_high = std::numeric_limits<double>::quiet_NaN();
  /// Bootstrap samples (empty when the bootstrap is disabled).
  std::vector<double> samples;
};

struct AteAnswer {
  EffectEstimate ate;
  NaiveContrast naive;
  size_t num_units = 0;
  size_t dropped_units = 0;
  bool relational = false;
  /// Resolved response attribute (the unified aggregate when derived).
  std::string response_attribute;
  /// Set when options.check_criterion: true iff every unit passes.
  std::optional<bool> criterion_ok;
};

struct RelationalEffectsAnswer {
  EffectEstimate aie;
  EffectEstimate are;
  EffectEstimate aoe;
  /// Embedding-sensitive isolated-effect variant (see estimation.h).
  EffectEstimate aie_psi;
  NaiveContrast naive;
  PeerCondition condition;
  size_t num_units = 0;
  size_t dropped_units = 0;
  std::string response_attribute;
  std::optional<bool> criterion_ok;
};

/// Either/or depending on the query form.
struct QueryAnswer {
  std::optional<AteAnswer> ate;
  std::optional<RelationalEffectsAnswer> effects;
};

/// Per-phase wall-clock breakdown of one answered query. All fields are
/// seconds; phases that did not run (e.g. parse_s for a pre-parsed
/// request) stay 0.
struct QueryTiming {
  double parse_s = 0.0;      ///< query-text parse
  double resolve_s = 0.0;    ///< resolution incl. any §4.3 re-ground
  double unit_table_s = 0.0; ///< Algorithm 1 unit-table build
  double estimate_s = 0.0;   ///< naive + estimator + bootstrap + criterion
  double total_s = 0.0;      ///< end-to-end, >= the sum of the above
};

/// The request of the one query entry point, CarlEngine::Answer: the
/// query (text or pre-parsed), the engine options, and an explicit
/// per-request guard budget.
struct QueryRequest {
  /// Pre-parsed query; when set, `query_text` must be empty.
  std::optional<CausalQuery> query;
  /// Query text, parsed by the engine when `query` is not set.
  std::string query_text;
  EngineOptions options;
  /// Per-request guard budget. Zero fields fall back to the process-wide
  /// environment defaults (CARL_DEADLINE_MS / CARL_MEM_BUDGET); a set
  /// field overrides the environment for this request only. Ignored when
  /// the caller already installed an ambient guard::ScopedToken — an
  /// embedding that manages its own token keeps full control.
  guard::QueryBudget budget;

  QueryRequest() = default;
  explicit QueryRequest(CausalQuery q) : query(std::move(q)) {}
  explicit QueryRequest(std::string text) : query_text(std::move(text)) {}
};

/// The canonical response: the variant answer, the Status (errors travel
/// inside the response, never as an abort), and the per-phase timing
/// snapshot a serving layer reports.
struct QueryResponse {
  Status status;
  /// Valid only when status.ok(): exactly one of ate/effects is set,
  /// matching the query form.
  QueryAnswer answer;
  QueryTiming timing;
};

class CarlEngine {
 public:
  /// Grounds the model against the instance through a private
  /// QuerySession. The instance must outlive the engine.
  static Result<std::unique_ptr<CarlEngine>> Create(
      const Instance* instance, RelationalCausalModel model);

  /// Grounds through a shared session: engines over the same instance
  /// reuse each other's cached groundings (including the variants that
  /// §4.3 derived aggregations run on), so a multi-query pipeline grounds
  /// each distinct model variant once.
  static Result<std::unique_ptr<CarlEngine>> Create(
      std::shared_ptr<QuerySession> session, RelationalCausalModel model);

  CarlEngine(const CarlEngine&) = delete;
  CarlEngine& operator=(const CarlEngine&) = delete;

  /// The base grounding as of Create (each answer grounds the instance
  /// as it is when asked): the model as created, never a query's variant.
  const GroundedModel& grounded() const { return *grounded_; }
  const RelationalCausalModel& model() const { return grounded_->model(); }
  const QuerySession& session() const { return *session_; }

  /// One query resolved against the engine (§4.3 and the WHERE filter).
  struct ResolvedQuery {
    /// The grounding the query runs on: the session's grounding of the
    /// base model when nothing is derived, else of the base model plus
    /// the one derived aggregate rule, both of the instance as it is now.
    /// Shared, so a grounding the session evicts stays alive for the
    /// request.
    std::shared_ptr<const GroundedModel> grounded;
    UnitTableRequest request;
    UnitTableOptions unit_options;
    /// The query's response, or the derived aggregate's name: the
    /// `<AGG>_<response>_unified` unification or the AGG_<base>
    /// shorthand as written.
    std::string response_attribute;
  };
  Result<ResolvedQuery> Resolve(const CausalQuery& query,
                                const EngineOptions& options) const;

  /// THE query entry point: parses (when needed), admits the request
  /// budget through carl_guard (request fields override the environment
  /// defaults; an ambient ScopedToken overrides both), answers the query
  /// in the form it asks for, and reports the outcome — answer, Status,
  /// and per-phase timing — in one QueryResponse. Never returns an error
  /// by value: failures travel in response.status.
  QueryResponse Answer(const QueryRequest& request) const;

  /// Exposes the unit table a query would use (Table 1; also used by the
  /// CATE benches to stratify rows). Memo-free: every call resolves every
  /// unit row (carl::BuildUnitTable), the reference Answer's memoized
  /// tables equal.
  Result<UnitTable> BuildUnitTableForQuery(
      const CausalQuery& query, const EngineOptions& options = {}) const;

 private:
  CarlEngine(std::shared_ptr<QuerySession> session,
             std::shared_ptr<const GroundedModel> grounded)
      : session_(std::move(session)), grounded_(std::move(grounded)) {}

  // Everything after parse and guard admission, timed phase by phase.
  Result<QueryAnswer> AnswerQuery(const CausalQuery& query,
                                  const EngineOptions& options,
                                  QueryTiming* timing) const;

  std::shared_ptr<QuerySession> session_;
  std::shared_ptr<const GroundedModel> grounded_;
};

}  // namespace carl

#endif  // CARL_CORE_ENGINE_H_
