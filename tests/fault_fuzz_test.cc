// Fault-fuzz differential harness (the carl_guard robustness contract):
// for every fault site and schedule, a pass over REVIEW / MIMIC / NIS
// either succeeds with the unfaulted result (degradation sites: pool
// dispatch, checked on a bootstrap; delta trim, on a grounding)
// or fails with a clean guard Status — and in BOTH cases the session is
// not poisoned: an aborted extend leaves the cached entry for the next
// query to extend, that query matches a from-scratch ground, and the obs
// counters account for every injected fault and guard stop. A fault in
// a unit-row resume must leave no half-appended rows in the session's
// memo. Runs at
// CARL_THREADS 1 and 4; the ASan+UBSan and TSan CI legs execute this
// binary directly (ctest label: robustness).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
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
// Phase faults: every schedule fails cleanly, and the session recovers
// by extending the entry it held before the abort.
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
        // Warm the session so the aborts below have a cached entry to
        // preserve.
        ASSERT_TRUE(session.Ground(*model).ok());

        // Stale the entry with a graph-relevant mutation, so each guarded
        // pass below is an extend that the fault stops.
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

        // A second aborted pass over the same state.
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

        // The next (unguarded) query extends the entry the aborts left,
        // and canonically matches a from-scratch ground of the current
        // state.
        Result<GroundedModel> fresh = GroundModel(db, *model);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        const QuerySession::SessionStats before = session.SnapshotStats();
        const size_t entries = session.num_cached_groundings();
        Result<std::shared_ptr<const GroundedModel>> recovered =
            session.Ground(*model);
        ASSERT_TRUE(recovered.ok()) << recovered.status();
        const QuerySession::SessionStats after = session.SnapshotStats();
        EXPECT_EQ(after.ground_extends, before.ground_extends + 1)
            << "the aborted extends lost the cached entry";
        EXPECT_EQ(after.ground_full, before.ground_full);
        EXPECT_EQ(session.num_cached_groundings(), entries);
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

// Grounding and the unit table run on one thread, so the pool-dispatch
// site is exercised where ParallelFor still runs: the bootstrap of a
// 4-thread answer. The countdown-th answer under an armed site degrades
// its replicates to the calling thread and must still equal the
// unfaulted answer bit for bit.
void ExpectSameBootstrap(const EffectEstimate& got,
                         const EffectEstimate& want) {
  EXPECT_EQ(Bits(got.value), Bits(want.value));
  EXPECT_EQ(Bits(got.std_error), Bits(want.std_error));
  EXPECT_EQ(Bits(got.ci_low), Bits(want.ci_low));
  EXPECT_EQ(Bits(got.ci_high), Bits(want.ci_high));
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(Bits(got.samples[i]), Bits(want.samples[i]))
        << "degraded-dispatch bootstrap diverged at sample " << i;
  }
}

TEST_F(FaultFuzzTest, PoolDispatchFaultYieldsIdenticalBootstrap) {
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

    ScopedThreads scoped_threads(4);
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(workload.dataset.instance.get(), std::move(*model));
    ASSERT_TRUE(engine.ok()) << engine.status();
    QueryRequest request(queries[w]);
    request.options.bootstrap_replicates = 6;  // several chunks: helpers run
    const QueryResponse reference = (*engine)->Answer(request);
    ASSERT_TRUE(reference.status.ok()) << reference.status;
    ASSERT_TRUE(reference.answer.ate.has_value());
    ASSERT_GE(reference.answer.ate->ate.samples.size(), 2u);

    for (uint64_t countdown : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE("countdown=" + std::to_string(countdown));
      guard::FaultRegistry& faults = guard::FaultRegistry::Global();
      const uint64_t fired_before = faults.fired_count();
      faults.Arm("exec.pool_dispatch", countdown);
      for (uint64_t answer = 0; answer < countdown; ++answer) {
        const QueryResponse response = (*engine)->Answer(request);
        ASSERT_TRUE(response.status.ok()) << response.status;
        ASSERT_TRUE(response.answer.ate.has_value());
        ExpectSameBootstrap(response.answer.ate->ate,
                            reference.answer.ate->ate);
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
// ceilings abort a full re-ground with the right Status, install nothing
// in the session, and the next query runs normally.
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

      // Force the full re-ground path: the faulted trim makes the delta
      // incomplete, which voids the extend contract — so the guarded
      // query must enumerate every rule condition (real work for the
      // budget to stop).
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

      // The aborted re-ground installed nothing: it dropped the stale
      // entry, which cannot serve the trimmed state.
      EXPECT_EQ(session.num_cached_groundings(), 0u)
          << "aborted " << c.name << " pass left an entry behind";

      // Session still usable: the unguarded retry grounds from scratch
      // and matches a from-scratch ground.
      const uint64_t full_before = session.SnapshotStats().ground_full;
      Result<std::shared_ptr<const GroundedModel>> retry =
          session.Ground(*model);
      ASSERT_TRUE(retry.ok()) << retry.status();
      EXPECT_EQ(session.SnapshotStats().ground_full, full_before + 1);
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

// ---------------------------------------------------------------------------
// A fault during a unit-row resume: the answer surfaces it, the rows,
// table and sums it took out of the session's memo never go back, and the
// next answer rebuilds every row and equals a fresh engine's bit for bit.
// ---------------------------------------------------------------------------
TEST_F(FaultFuzzTest, ResumeFaultLeavesNoPoisonedMemo) {
  const char* const queries[] = {"AVG_Score[A] <= Prestige[A]?",
                                 "Len[P] <= SelfPay[P]?",
                                 "HighBill[P] <= AdmittedToLarge[P]?"};
  std::vector<NamedDataset> workloads = FuzzWorkloads();
  ASSERT_EQ(workloads.size(), 3u);
  for (size_t w = 0; w < workloads.size(); ++w) {
    SCOPED_TRACE(workloads[w].name);
    Instance& db = *workloads[w].dataset.instance;
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *workloads[w].dataset.schema, workloads[w].dataset.model_text);
    ASSERT_TRUE(model.ok()) << model.status();
    auto session = std::make_shared<QuerySession>(&db);
    const QueryRequest request{std::string(queries[w])};
    auto answer = [&] {
      Result<std::unique_ptr<CarlEngine>> engine =
          CarlEngine::Create(session, *model);
      CARL_CHECK_OK(engine.status());
      return (*engine)->Answer(request);
    };
    ASSERT_TRUE(answer().status.ok());

    // A new unit row that reaches no old unit, so the next answer resumes.
    const Schema& schema = db.schema();
    Result<CausalQuery> query = ParseQuery(queries[w]);
    ASSERT_TRUE(query.ok()) << query.status();
    const PredicateId unit =
        schema.attribute(*schema.FindAttribute(query->treatment.attribute))
            .predicate;
    ASSERT_TRUE(db.AddFact(schema.predicate(unit).name, {"fz_resume"}).ok());

    const uint64_t resumes = session->SnapshotStats().unit_rows_resumes;
    guard::ExecToken token;
    guard::FaultRegistry::Global().Arm("unit_table.resolve", 1);
    const QueryResponse stopped = [&] {
      guard::ScopedToken scoped(&token);
      return answer();
    }();
    EXPECT_EQ(stopped.status.code(), StatusCode::kResourceExhausted)
        << stopped.status;
    EXPECT_NE(stopped.status.message().find("unit_table.resolve"),
              std::string::npos)
        << stopped.status;
    EXPECT_EQ(session->SnapshotStats().unit_rows_resumes, resumes + 1)
        << "the fault must land in a resume";

    const uint64_t rows_before = CounterValue("unit_table.rows_resolved");
    const QueryResponse next = answer();
    EXPECT_EQ(CounterValue("unit_table.rows_resolved") - rows_before,
              db.NumRows(unit))
        << "the stopped resume's rows went back into the memo";
    Result<std::unique_ptr<CarlEngine>> fresh =
        CarlEngine::Create(&db, *model);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(test_fixtures::DescribeResponse(next),
              test_fixtures::DescribeResponse((*fresh)->Answer(request)));
  }
}

}  // namespace
}  // namespace carl
