// Fault-fuzz differential harness (the carl_guard robustness contract):
// for every fault site and schedule, a pass over REVIEW / MIMIC / NIS
// either succeeds with the unfaulted result (degradation sites: pool
// dispatch, checked on a unit-table build; delta trim, on a grounding)
// or fails with a clean guard Status — and in BOTH cases the session is
// not poisoned: the
// binding cache is pointer-identical across an aborted pass, the next
// query runs normally and matches a from-scratch ground, and the obs
// counters account for every injected fault and guard stop. Runs at
// CARL_THREADS 1 and 4; the ASan+UBSan and TSan CI legs execute this
// binary directly (ctest label: robustness).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "carl/carl.h"
#include "fixtures.h"
#include "obs/metrics.h"

namespace carl {
namespace {

using test_fixtures::Canonicalize;
using test_fixtures::CanonicalGraph;
using test_fixtures::MiniMimicDataset;
using test_fixtures::MiniNisDataset;
using test_fixtures::NamedDataset;
using test_fixtures::ReviewToyDataset;
using test_fixtures::ScopedThreads;

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

// First entity predicate that bears an attribute: adding one of its rows
// always reaches the grounded graph (a node must be built), so the
// session cannot take the irrelevant-delta fast path and skip the
// grounding work the harness wants to fault.
std::string EntityWithAttribute(const Schema& schema) {
  for (const AttributeDef& attr : schema.attributes()) {
    const Predicate& pred = schema.predicate(attr.predicate);
    if (pred.kind == PredicateKind::kEntity) return pred.name;
  }
  return schema.predicates()[0].name;
}

void ExpectPointerIdentical(
    const std::vector<std::pair<BindingKeyId, const BindingTable*>>& before,
    const std::vector<std::pair<BindingKeyId, const BindingTable*>>& after,
    const char* what) {
  ASSERT_EQ(before.size(), after.size()) << what;
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first, after[i].first) << what;
    EXPECT_EQ(before[i].second, after[i].second)
        << what << ": cached table re-allocated across an aborted pass: "
        << before[i].first;
  }
}

class FaultFuzzTest : public ::testing::Test {
 protected:
  // A leaked arming would fire in an unrelated test.
  void TearDown() override { guard::FaultRegistry::Global().Reset(); }
};

// Small instances: the harness grounds each dataset dozens of times
// (per site x schedule x thread count).
std::vector<NamedDataset> FuzzWorkloads() {
  std::vector<NamedDataset> workloads;
  workloads.push_back({"REVIEW", ReviewToyDataset()});
  workloads.push_back({"MIMIC", MiniMimicDataset(300, 30)});
  workloads.push_back({"NIS", MiniNisDataset(600, 20)});
  return workloads;
}

// The token-mediated phase sites: arming one makes a tokened grounding
// pass fail with kResourceExhausted("injected fault at <site>").
const char* const kPhaseSites[] = {
    "grounding.node_build",
    "grounding.enumerate",
    "grounding.merge",
    "grounding.finalize",
};

// ---------------------------------------------------------------------------
// Phase faults: every schedule fails cleanly, the session recovers, the
// binding cache is pointer-identical across the abort.
// ---------------------------------------------------------------------------
TEST_F(FaultFuzzTest, PhaseFaultsFailCleanAndDoNotPoisonTheSession) {
  for (NamedDataset& workload : FuzzWorkloads()) {
    SCOPED_TRACE(workload.name);
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *workload.dataset.schema, workload.dataset.model_text);
    ASSERT_TRUE(model.ok()) << model.status();
    Instance& db = *workload.dataset.instance;
    const std::string entity = EntityWithAttribute(db.schema());
    int mutation = 0;

    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedThreads scoped_threads(threads);

      for (const char* site : kPhaseSites) {
        SCOPED_TRACE(site);
        QuerySession session(&db);
        // Warm the session so the aborts below have committed cache
        // state to preserve.
        ASSERT_TRUE(session.Ground(*model).ok());

        // Stale the entry with a graph-relevant mutation, then abort
        // once: this pass performs the legitimate per-delta cache
        // invalidation before the fault stops it, isolating the
        // no-poison comparison below from deterministic invalidation.
        ASSERT_TRUE(db.AddFact(entity, {"fz_phase_" +
                                        std::to_string(mutation++)})
                        .ok());
        guard::ExecToken first_token;
        guard::FaultRegistry::Global().Arm(site, 1);
        Result<std::shared_ptr<const GroundedModel>> first = [&] {
          guard::ScopedToken scoped(&first_token);
          return session.Ground(*model);
        }();
        ASSERT_FALSE(first.ok()) << "fault at " << site << " was lost";
        EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted)
            << first.status();
        EXPECT_NE(first.status().message().find(site), std::string::npos)
            << first.status();
        EXPECT_EQ(first_token.reason(), guard::StopReason::kFault);

        // Second aborted pass over reconciled state: the cache must be
        // pointer-identical across it.
        auto before = session.binding_cache().SnapshotEntries();
        uint64_t faults_before = CounterValue("fault_injected");
        guard::ExecToken second_token;
        guard::FaultRegistry::Global().Arm(site, 1);
        Result<std::shared_ptr<const GroundedModel>> second = [&] {
          guard::ScopedToken scoped(&second_token);
          return session.Ground(*model);
        }();
        ASSERT_FALSE(second.ok());
        EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(CounterValue("fault_injected"), faults_before + 1)
            << "fault_injected must account for exactly this firing";
        ExpectPointerIdentical(before,
                               session.binding_cache().SnapshotEntries(),
                               site);

        // The next (unguarded) query runs normally and canonically
        // matches a from-scratch ground of the current state.
        Result<GroundedModel> fresh = GroundModel(db, *model);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        Result<std::shared_ptr<const GroundedModel>> recovered =
            session.Ground(*model);
        ASSERT_TRUE(recovered.ok()) << recovered.status();
        EXPECT_TRUE(Canonicalize(**recovered) == Canonicalize(*fresh))
            << "post-fault session grounding diverged from scratch";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Degradation faults: the pass still succeeds, canonically identical to
// the unfaulted run.
// ---------------------------------------------------------------------------

// Grounding runs on one thread, so the pool-dispatch site is exercised
// where ParallelFor still runs: a 4-thread unit-table build (pass 1).
// The countdown-th build under an armed site degrades to the calling
// thread and must still equal the unfaulted table bit for bit.
TEST_F(FaultFuzzTest, PoolDispatchFaultYieldsIdenticalUnitTable) {
  const char* queries[] = {"AVG_Score[A] <= Prestige[A]?",
                           "Death[P] <= SelfPay[P]?",
                           "HighBill[P] <= AdmittedToLarge[P]?"};
  std::vector<NamedDataset> workloads = FuzzWorkloads();
  for (size_t w = 0; w < workloads.size(); ++w) {
    NamedDataset& workload = workloads[w];
    SCOPED_TRACE(workload.name);
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *workload.dataset.schema, workload.dataset.model_text);
    ASSERT_TRUE(model.ok()) << model.status();
    Result<CausalQuery> query = ParseQuery(queries[w]);
    ASSERT_TRUE(query.ok()) << query.status();

    ScopedThreads scoped_threads(4);
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(workload.dataset.instance.get(), std::move(*model));
    ASSERT_TRUE(engine.ok()) << engine.status();
    Result<UnitTable> reference = (*engine)->BuildUnitTableForQuery(*query);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_GT(reference->data.num_rows(), 1u) << "one chunk never dispatches";

    for (uint64_t countdown : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE("countdown=" + std::to_string(countdown));
      guard::FaultRegistry& faults = guard::FaultRegistry::Global();
      const uint64_t fired_before = faults.fired_count();
      faults.Arm("exec.pool_dispatch", countdown);
      for (uint64_t build = 0; build < countdown; ++build) {
        Result<UnitTable> table = (*engine)->BuildUnitTableForQuery(*query);
        ASSERT_TRUE(table.ok()) << table.status();
        ASSERT_EQ(table->data.column_names(), reference->data.column_names());
        EXPECT_EQ(table->units, reference->units);
        EXPECT_EQ(table->dropped_units, reference->dropped_units);
        for (const std::string& col : reference->data.column_names()) {
          EXPECT_EQ(table->data.Column(col), reference->data.Column(col))
              << "degraded-dispatch unit table diverged in column " << col;
        }
      }
      faults.Reset();
      EXPECT_EQ(faults.fired_count(), fired_before + 1)
          << "the pool-dispatch fault never fired";
    }
  }
}

TEST_F(FaultFuzzTest, DeltaTrimFaultFallsBackToFullReground) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    datagen::Dataset data = ReviewToyDataset();
    Instance& db = *data.instance;
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data.schema, data.model_text);
    ASSERT_TRUE(model.ok()) << model.status();
    ScopedThreads scoped_threads(threads);
    QuerySession session(&db);
    ASSERT_TRUE(session.Ground(*model).ok());
    uint64_t extends_before = session.SnapshotStats().ground_extends;
    uint64_t trims_before = CounterValue("delta_log_trimmed");

    // The faulted trim drops the mutation's window: DeltaSince comes
    // back incomplete and the session must re-ground from scratch (WARN
    // + delta_log_trimmed) instead of extending.
    guard::FaultRegistry::Global().Arm("instance.delta_trim", 1);
    ASSERT_TRUE(db.AddFact("Person", {"fz_trim_t" + std::to_string(threads)})
                    .ok());
    guard::FaultRegistry::Global().Reset();

    Result<std::shared_ptr<const GroundedModel>> after =
        session.Ground(*model);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(session.SnapshotStats().ground_extends, extends_before)
        << "trimmed delta must not be extended";
    EXPECT_EQ(CounterValue("delta_log_trimmed"), trims_before + 1)
        << "forced re-ground must be accounted by delta_log_trimmed";

    Result<GroundedModel> fresh = GroundModel(db, *model);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_TRUE(Canonicalize(**after) == Canonicalize(*fresh));
  }
}

// ---------------------------------------------------------------------------
// Budget stops through the real pipeline: deadline / memory / binding
// ceilings abort a full re-ground with the right Status, commit nothing
// to the binding cache, and the next query runs normally.
// ---------------------------------------------------------------------------
TEST_F(FaultFuzzTest, BudgetStopsAbortCleanlyAndCommitNothing) {
  struct Case {
    const char* name;
    guard::QueryBudget budget;
    StatusCode want_code;
  };
  const Case cases[] = {
      // An already-expired deadline stops at the first phase boundary.
      {"deadline",
       {/*deadline_ms=*/1e-9, 0, 0},
       StatusCode::kDeadlineExceeded},
      // A one-byte arena budget trips on the first binding-table growth.
      {"memory", {0.0, /*memory_bytes=*/1, 0},
       StatusCode::kResourceExhausted},
      // A one-binding ceiling trips in the evaluator's probe loops.
      {"bindings", {0.0, 0, /*max_bindings=*/1},
       StatusCode::kResourceExhausted},
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      datagen::Dataset data = ReviewToyDataset();
      Instance& db = *data.instance;
      Result<RelationalCausalModel> model =
          RelationalCausalModel::Parse(*data.schema, data.model_text);
      ASSERT_TRUE(model.ok()) << model.status();
      ScopedThreads scoped_threads(threads);
      QuerySession session(&db);
      ASSERT_TRUE(session.Ground(*model).ok());

      // Force the full re-ground path with an empty binding cache: the
      // faulted trim makes the delta incomplete, which clears the cache
      // and voids the extend contract — so the guarded query must
      // re-enumerate every rule (real work for the budget to stop).
      guard::FaultRegistry::Global().Arm("instance.delta_trim", 1);
      ASSERT_TRUE(db.AddFact("Person", {std::string("fz_budget_") + c.name +
                                        "_t" + std::to_string(threads)})
                      .ok());
      guard::FaultRegistry::Global().Reset();

      guard::ExecToken token(c.budget);
      Result<std::shared_ptr<const GroundedModel>> stopped = [&] {
        guard::ScopedToken scoped(&token);
        return session.Ground(*model);
      }();
      ASSERT_FALSE(stopped.ok())
          << c.name << " budget did not stop the pass";
      EXPECT_EQ(stopped.status().code(), c.want_code) << stopped.status();

      // Nothing the aborted pass enumerated may have been committed:
      // the cache was cleared by the incomplete delta, and the staged
      // inserts of the aborted re-ground were dropped whole.
      EXPECT_EQ(session.binding_cache().size(), 0u)
          << "aborted " << c.name << " pass leaked staged cache entries";

      // Session still usable: the unguarded retry succeeds and matches
      // a from-scratch ground.
      Result<std::shared_ptr<const GroundedModel>> retry =
          session.Ground(*model);
      ASSERT_TRUE(retry.ok()) << retry.status();
      Result<GroundedModel> fresh = GroundModel(db, *model);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_TRUE(Canonicalize(**retry) == Canonicalize(*fresh));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end admission control: CARL_DEADLINE_MS reaches the engine's
// query entry points (token installed per query, unit-table checkpoints
// honor it), and clearing it restores normal answers.
// ---------------------------------------------------------------------------
TEST_F(FaultFuzzTest, EnvDeadlineStopsEngineQueries) {
  datagen::Dataset data = ReviewToyDataset();
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data.instance.get(), std::move(*model));
  ASSERT_TRUE(engine.ok()) << engine.status();

  ASSERT_EQ(setenv("CARL_DEADLINE_MS", "0.000001", 1), 0);
  const QueryRequest request("AVG_Score[A] <= Prestige[A]?");
  QueryResponse bounded = (*engine)->Answer(request);
  unsetenv("CARL_DEADLINE_MS");
  EXPECT_EQ(bounded.status.code(), StatusCode::kDeadlineExceeded)
      << bounded.status;

  // Engine unharmed: the same query answers normally without the knob.
  QueryResponse answer = (*engine)->Answer(request);
  ASSERT_TRUE(answer.status.ok()) << answer.status;
}

// ---------------------------------------------------------------------------
// Counters account for every stop the harness provokes.
// ---------------------------------------------------------------------------
TEST_F(FaultFuzzTest, CountersAccountForEveryGuardEvent) {
  datagen::Dataset data = ReviewToyDataset();
  Instance& db = *data.instance;
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();

  uint64_t cancelled = CounterValue("guard_cancelled");
  uint64_t deadline = CounterValue("guard_deadline_exceeded");
  uint64_t budget = CounterValue("guard_budget_exceeded");
  uint64_t faults = CounterValue("fault_injected");

  {
    guard::ExecToken token;
    token.Cancel();
    guard::ScopedToken scoped(&token);
    EXPECT_EQ(GroundModel(db, *model).status().code(),
              StatusCode::kCancelled);
  }
  {
    guard::ExecToken token(guard::QueryBudget{/*deadline_ms=*/1e-9, 0, 0});
    guard::ScopedToken scoped(&token);
    EXPECT_EQ(GroundModel(db, *model).status().code(),
              StatusCode::kDeadlineExceeded);
  }
  {
    guard::ExecToken token(guard::QueryBudget{0.0, /*memory_bytes=*/1, 0});
    guard::ScopedToken scoped(&token);
    EXPECT_EQ(GroundModel(db, *model).status().code(),
              StatusCode::kResourceExhausted);
  }
  {
    guard::FaultRegistry::Global().Arm("grounding.enumerate", 1);
    guard::ExecToken token;
    guard::ScopedToken scoped(&token);
    EXPECT_EQ(GroundModel(db, *model).status().code(),
              StatusCode::kResourceExhausted);
    guard::FaultRegistry::Global().Reset();
  }

  EXPECT_EQ(CounterValue("guard_cancelled"), cancelled + 1);
  EXPECT_EQ(CounterValue("guard_deadline_exceeded"), deadline + 1);
  EXPECT_EQ(CounterValue("guard_budget_exceeded"), budget + 1);
  EXPECT_EQ(CounterValue("fault_injected"), faults + 1);
}

}  // namespace
}  // namespace carl
