// carl_guard unit suite: ExecToken stop semantics (first reason wins,
// one counter tick per token), budget charging, ScopedToken TLS
// discipline, QueryBudget env parsing, the FaultRegistry countdown
// protocol, ParallelFor token propagation/chunk skipping, and the
// query-facing CARL_CHECK sites that now surface as Status instead of
// aborting the process.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "carl/carl.h"
#include "fixtures.h"
#include "obs/metrics.h"

namespace carl {
namespace {

using test_fixtures::ReviewToyDataset;
using test_fixtures::ScopedThreads;

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

// Every test must leave the registry disarmed, or a leaked fault fires
// in an unrelated test.
class GuardTest : public ::testing::Test {
 protected:
  void TearDown() override { guard::FaultRegistry::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// ExecToken semantics.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, FreshTokenIsLive) {
  guard::ExecToken token;
  EXPECT_FALSE(token.stopped());
  EXPECT_EQ(token.reason(), guard::StopReason::kNone);
  EXPECT_TRUE(token.ToStatus().ok());
  EXPECT_TRUE(token.budget().unlimited());
}

TEST_F(GuardTest, CancelStopsAndCountsOnce) {
  uint64_t before = CounterValue("guard_cancelled");
  guard::ExecToken token;
  token.Cancel();
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(token.reason(), guard::StopReason::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
  token.Cancel();  // idempotent: no second tick
  EXPECT_EQ(CounterValue("guard_cancelled"), before + 1);
}

TEST_F(GuardTest, FirstStopReasonWins) {
  guard::ExecToken token(guard::QueryBudget{0.0, /*memory_bytes=*/1, 0});
  token.Cancel();
  EXPECT_TRUE(token.ChargeBytes(100));  // over budget, but already stopped
  EXPECT_EQ(token.reason(), guard::StopReason::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, DeadlineTripsOnCheck) {
  uint64_t before = CounterValue("guard_deadline_exceeded");
  guard::ExecToken token(guard::QueryBudget{/*deadline_ms=*/0.01, 0, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.CheckDeadline());
  EXPECT_EQ(token.reason(), guard::StopReason::kDeadline);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("guard_deadline_exceeded"), before + 1);
}

TEST_F(GuardTest, UnexpiredDeadlineStaysLive) {
  guard::ExecToken token(guard::QueryBudget{/*deadline_ms=*/60000.0, 0, 0});
  EXPECT_FALSE(token.CheckDeadline());
  EXPECT_TRUE(token.ToStatus().ok());
}

// A deadline past the clock's range means no deadline, not one that
// already passed.
TEST_F(GuardTest, UnrepresentableDeadlineMeansNoDeadline) {
  for (double ms : {std::numeric_limits<double>::infinity(), 1e300, 1e13}) {
    guard::ExecToken token(guard::QueryBudget{ms, 0, 0});
    EXPECT_FALSE(token.CheckDeadline()) << ms;
    EXPECT_TRUE(token.ToStatus().ok()) << ms;
  }
  // The environment knob takes the same path.
  ASSERT_EQ(setenv("CARL_DEADLINE_MS", "inf", 1), 0);
  guard::ExecToken token(guard::QueryBudget::FromEnv());
  unsetenv("CARL_DEADLINE_MS");
  EXPECT_FALSE(token.CheckDeadline());
}

TEST_F(GuardTest, MemoryBudgetTrips) {
  uint64_t before = CounterValue("guard_budget_exceeded");
  guard::ExecToken token(guard::QueryBudget{0.0, /*memory_bytes=*/100, 0});
  EXPECT_FALSE(token.ChargeBytes(60));
  EXPECT_FALSE(token.stopped());
  EXPECT_TRUE(token.ChargeBytes(60));  // 120 > 100
  EXPECT_EQ(token.reason(), guard::StopReason::kMemory);
  Status s = token.ToStatus();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("memory budget"), std::string::npos);
  EXPECT_EQ(token.charged_bytes(), 120u);
  EXPECT_EQ(CounterValue("guard_budget_exceeded"), before + 1);
}

TEST_F(GuardTest, BindingBudgetTrips) {
  guard::ExecToken token(guard::QueryBudget{0.0, 0, /*max_bindings=*/10});
  EXPECT_FALSE(token.ChargeBindings(10));  // exactly at budget: still live
  EXPECT_TRUE(token.ChargeBindings(1));
  EXPECT_EQ(token.reason(), guard::StopReason::kBindings);
  Status s = token.ToStatus();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("binding budget"), std::string::npos);
}

TEST_F(GuardTest, InjectFaultSurfacesAsResourceExhausted) {
  guard::ExecToken token;
  token.InjectFault("test.site");
  EXPECT_EQ(token.reason(), guard::StopReason::kFault);
  Status s = token.ToStatus();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("injected fault at test.site"),
            std::string::npos);
}

TEST_F(GuardTest, ConcurrentCancelRacesToOneWinner) {
  uint64_t before = CounterValue("guard_cancelled");
  guard::ExecToken token;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&token] { token.Cancel(); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(CounterValue("guard_cancelled"), before + 1);
}

// ---------------------------------------------------------------------------
// QueryBudget::FromEnv.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, BudgetFromEnvParsesBothKnobs) {
  ASSERT_EQ(setenv("CARL_DEADLINE_MS", "1500.5", 1), 0);
  ASSERT_EQ(setenv("CARL_MEM_BUDGET", "1048576", 1), 0);
  guard::QueryBudget budget = guard::QueryBudget::FromEnv();
  EXPECT_DOUBLE_EQ(budget.deadline_ms, 1500.5);
  EXPECT_EQ(budget.memory_bytes, size_t{1048576});
  EXPECT_FALSE(budget.unlimited());
  unsetenv("CARL_DEADLINE_MS");
  unsetenv("CARL_MEM_BUDGET");
}

TEST_F(GuardTest, BudgetFromEnvIgnoresGarbage) {
  ASSERT_EQ(setenv("CARL_DEADLINE_MS", "soon", 1), 0);
  ASSERT_EQ(setenv("CARL_MEM_BUDGET", "-5", 1), 0);
  guard::QueryBudget budget = guard::QueryBudget::FromEnv();
  EXPECT_TRUE(budget.unlimited());
  unsetenv("CARL_DEADLINE_MS");
  unsetenv("CARL_MEM_BUDGET");
}

TEST_F(GuardTest, BudgetFromEnvUnsetIsUnlimited) {
  unsetenv("CARL_DEADLINE_MS");
  unsetenv("CARL_MEM_BUDGET");
  EXPECT_TRUE(guard::QueryBudget::FromEnv().unlimited());
}

// ---------------------------------------------------------------------------
// ScopedToken / CurrentToken TLS discipline.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, ScopedTokenInstallsAndRestores) {
  EXPECT_EQ(guard::CurrentToken(), nullptr);
  guard::ExecToken outer, inner;
  {
    guard::ScopedToken s1(&outer);
    EXPECT_EQ(guard::CurrentToken(), &outer);
    {
      guard::ScopedToken s2(&inner);
      EXPECT_EQ(guard::CurrentToken(), &inner);
    }
    EXPECT_EQ(guard::CurrentToken(), &outer);
    {
      guard::ScopedToken s3(nullptr);  // no-op: outer stays installed
      EXPECT_EQ(guard::CurrentToken(), &outer);
    }
  }
  EXPECT_EQ(guard::CurrentToken(), nullptr);
}

TEST_F(GuardTest, CheckPointWithoutTokenIsOk) {
  EXPECT_EQ(guard::CurrentToken(), nullptr);
  EXPECT_TRUE(guard::CheckPoint().ok());
  EXPECT_FALSE(guard::StopRequested());
}

TEST_F(GuardTest, CheckPointSurfacesStoppedToken) {
  guard::ExecToken token;
  guard::ScopedToken scoped(&token);
  EXPECT_TRUE(guard::CheckPoint().ok());
  token.Cancel();
  EXPECT_TRUE(guard::StopRequested());
  EXPECT_EQ(guard::CheckPoint().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, OnArenaGrowthWithoutTokenIsNoop) {
  EXPECT_EQ(guard::CurrentToken(), nullptr);
  guard::OnArenaGrowth(size_t{1} << 40);  // nothing to charge against
}

// ---------------------------------------------------------------------------
// FaultRegistry countdown protocol.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, FaultCountdownFiresExactlyOnce) {
  uint64_t before = CounterValue("fault_injected");
  guard::FaultRegistry& reg = guard::FaultRegistry::Global();
  reg.Arm("test.site", 3);
  EXPECT_FALSE(guard::FaultFired("test.site"));  // countdown 3 -> 2
  EXPECT_FALSE(guard::FaultFired("other.site"));  // mismatch: no decrement
  EXPECT_FALSE(guard::FaultFired("test.site"));  // 2 -> 1
  EXPECT_TRUE(guard::FaultFired("test.site"));   // 1 -> 0: fires
  EXPECT_FALSE(reg.armed());                     // self-disarmed
  EXPECT_FALSE(guard::FaultFired("test.site"));
  EXPECT_EQ(CounterValue("fault_injected"), before + 1);
}

TEST_F(GuardTest, FaultResetDisarms) {
  guard::FaultRegistry& reg = guard::FaultRegistry::Global();
  reg.Arm("test.site", 1);
  reg.Reset();
  EXPECT_FALSE(reg.armed());
  EXPECT_FALSE(guard::FaultFired("test.site"));
}

TEST_F(GuardTest, InjectedFaultTripsAmbientToken) {
  guard::FaultRegistry::Global().Arm("test.site", 1);
  guard::ExecToken token;
  guard::ScopedToken scoped(&token);
  Status s = guard::InjectedFault("test.site");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(token.reason(), guard::StopReason::kFault);
}

TEST_F(GuardTest, PhaseCheckPassesWhenDisarmedAndLive) {
  guard::ExecToken token;
  guard::ScopedToken scoped(&token);
  EXPECT_TRUE(guard::PhaseCheck("grounding.node_build").ok());
}

// ---------------------------------------------------------------------------
// ParallelFor integration.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, ParallelForPropagatesTokenToHelpers) {
  for (int threads : {1, 4}) {
    ScopedThreads scoped_threads(threads);
    guard::ExecToken token;
    guard::ScopedToken scoped(&token);
    std::atomic<int> mismatches{0};
    std::atomic<size_t> covered{0};
    ParallelFor(ExecContext::Global(), 100000,
                [&](size_t begin, size_t end, size_t) {
                  if (guard::CurrentToken() != &token) ++mismatches;
                  covered += end - begin;
                });
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
    EXPECT_EQ(covered.load(), 100000u) << "threads=" << threads;
  }
}

TEST_F(GuardTest, ParallelForSkipsBodiesOnceStopped) {
  for (int threads : {1, 4}) {
    ScopedThreads scoped_threads(threads);
    guard::ExecToken token;
    token.Cancel();
    guard::ScopedToken scoped(&token);
    std::atomic<size_t> ran{0};
    ParallelFor(ExecContext::Global(), 100000,
                [&](size_t, size_t, size_t) { ++ran; });
    // Pre-stopped: every chunk is skipped but the loop still terminates.
    EXPECT_EQ(ran.load(), 0u) << "threads=" << threads;
  }
}

TEST_F(GuardTest, PoolDispatchFaultDegradesToCallingThread) {
  ScopedThreads scoped_threads(4);
  guard::FaultRegistry::Global().Arm("exec.pool_dispatch", 1);
  std::atomic<size_t> covered{0};
  ParallelFor(ExecContext::Global(), 100000,
              [&](size_t begin, size_t end, size_t) {
                covered += end - begin;
              });
  // The degraded loop still covers every index (serially).
  EXPECT_EQ(covered.load(), 100000u);
  EXPECT_FALSE(guard::FaultRegistry::Global().armed());
}

// ---------------------------------------------------------------------------
// Promoted CARL_CHECK sites: user-reachable misuse returns Status.
// ---------------------------------------------------------------------------

TEST_F(GuardTest, ShortWatermarksAreStatusNotAbort) {
  datagen::Dataset data = ReviewToyDataset();
  QueryEvaluator evaluator(data.instance.get());
  ConjunctiveQuery query;
  query.atoms.push_back({"Person", {Term::Var("A")}});
  std::vector<uint32_t> short_watermarks;  // schema has more predicates
  Result<BindingTable> r =
      evaluator.EvaluateDelta(query, {"A"}, short_watermarks);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GuardTest, ExtendOfEmptyBaseIsStatusNotAbort) {
  GroundedModel empty;
  InstanceDelta delta;
  Result<GroundedModel> r = ExtendGroundedModel(std::move(empty), delta);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// An incremental extend is bounded by the binding budget like a full
// ground: the delta pivots charge every binding they enumerate. Grounded
// with one author and one submission, then grown by 2000 Author facts,
// the extend must stop at max_bindings = 10 — directly and through the
// session — and the session must keep serving unguarded queries after.
TEST_F(GuardTest, ExtendIsBoundedByTheBindingBudget) {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Submission").status());
  CARL_CHECK_OK(
      schema.AddRelationship("Author", {"Person", "Submission"}).status());
  CARL_CHECK_OK(schema.AddAttribute("Prestige", "Person", true,
                                    ValueType::kDouble).status());
  CARL_CHECK_OK(schema.AddAttribute("Quality", "Submission", true,
                                    ValueType::kDouble).status());
  Instance db(&schema);
  auto add_author = [&db](size_t i) {
    const std::string a = "a" + std::to_string(i);
    const std::string s = "s" + std::to_string(i);
    CARL_CHECK_OK(db.AddFact("Person", {a}));
    CARL_CHECK_OK(db.AddFact("Submission", {s}));
    CARL_CHECK_OK(db.AddFact("Author", {a, s}));
  };
  add_author(0);
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      schema, "Quality[S] <= Prestige[A] WHERE Author(A, S)");
  ASSERT_TRUE(model.ok()) << model.status();
  Result<GroundedModel> base = GroundModel(db, *model);
  ASSERT_TRUE(base.ok()) << base.status();
  QuerySession session(&db);
  ASSERT_TRUE(session.Ground(*model).ok());

  const uint64_t generation = db.generation();
  for (size_t i = 1; i <= 2000; ++i) add_author(i);
  InstanceDelta delta = db.DeltaSince(generation);
  ASSERT_TRUE(DeltaSupportsIncrementalExtend(db, *model, delta));

  const guard::QueryBudget budget{0.0, 0, /*max_bindings=*/10};
  {
    guard::ExecToken token(budget);
    guard::ScopedToken scoped(&token);
    Result<GroundedModel> full = GroundModel(db, *model);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  }
  {
    guard::ExecToken token(budget);
    guard::ScopedToken scoped(&token);
    Result<GroundedModel> extended =
        ExtendGroundedModel(std::move(*base), delta);
    ASSERT_FALSE(extended.ok()) << "extend ignored the binding budget";
    EXPECT_EQ(extended.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(token.reason(), guard::StopReason::kBindings);
    EXPECT_GT(token.charged_bindings(), 10u);
  }
  {
    guard::ExecToken token(budget);
    guard::ScopedToken scoped(&token);
    Result<std::shared_ptr<const GroundedModel>> guarded =
        session.Ground(*model);
    ASSERT_FALSE(guarded.ok()) << "session extend ignored the budget";
    EXPECT_EQ(guarded.status().code(), StatusCode::kResourceExhausted);
  }
  Result<std::shared_ptr<const GroundedModel>> after = session.Ground(*model);
  ASSERT_TRUE(after.ok()) << after.status();
  Result<GroundedModel> fresh = GroundModel(db, *model);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(test_fixtures::Canonicalize(**after) ==
              test_fixtures::Canonicalize(*fresh));
}

// A ground the guard stops is a miss but no ground: it ticks
// query_session.ground_misses and leaves ground_full, in the registry
// and in the session's stats, where it was.
TEST_F(GuardTest, StoppedGroundCountsAMissButNoFullGround) {
  datagen::Dataset data = ReviewToyDataset();
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  QuerySession session(data.instance.get());
  const obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
  {
    guard::ExecToken token;
    token.Cancel();
    guard::ScopedToken scoped(&token);
    Result<std::shared_ptr<const GroundedModel>> stopped =
        session.Ground(*model);
    ASSERT_FALSE(stopped.ok());
    EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);
  }
  const obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotDelta delta(before, after);
  EXPECT_EQ(delta.CounterDelta("query_session.ground_misses"), 1u);
  EXPECT_EQ(delta.CounterDelta("query_session.ground_full"), 0u);
  EXPECT_EQ(session.SnapshotStats().ground_full, 0u);
  EXPECT_EQ(session.num_cached_groundings(), 0u);
}

TEST_F(GuardTest, IsGuardStopClassifiesCodes) {
  EXPECT_TRUE(guard::IsGuardStop(StatusCode::kCancelled));
  EXPECT_TRUE(guard::IsGuardStop(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(guard::IsGuardStop(StatusCode::kResourceExhausted));
  EXPECT_FALSE(guard::IsGuardStop(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(guard::IsGuardStop(StatusCode::kInvalidArgument));
  EXPECT_FALSE(guard::IsGuardStop(StatusCode::kOk));
}

}  // namespace
}  // namespace carl
