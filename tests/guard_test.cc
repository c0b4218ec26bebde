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

TEST_F(GuardTest, UnpreparedQueryIsStatusNotAbort) {
  datagen::Dataset data = ReviewToyDataset();
  QueryEvaluator evaluator(data.instance.get());
  PreparedQuery unprepared;
  Result<BindingTable> r = evaluator.Evaluate(unprepared, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  Result<size_t> count = evaluator.CountRootCandidates(unprepared);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kFailedPrecondition);

  Result<BindingTable> shard = evaluator.EvaluateShard(unprepared, {}, 0, 1);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(GuardTest, ShardOutOfRangeIsStatusNotAbort) {
  datagen::Dataset data = ReviewToyDataset();
  QueryEvaluator evaluator(data.instance.get());
  ConjunctiveQuery query;
  query.atoms.push_back({"Person", {Term::Var("A")}});
  Result<PreparedQuery> prepared = evaluator.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<BindingTable> r =
      evaluator.EvaluateShard(*prepared, {"A"}, /*shard=*/3, /*num_shards=*/2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Result<BindingTable> zero =
      evaluator.EvaluateShard(*prepared, {"A"}, 0, /*num_shards=*/0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GuardTest, UnpreparedDeltaQueryIsStatusNotAbort) {
  datagen::Dataset data = ReviewToyDataset();
  QueryEvaluator evaluator(data.instance.get());
  PreparedDeltaQuery unprepared;
  std::vector<uint32_t> watermarks(
      data.instance->schema().num_predicates(), 0);
  Result<BindingTable> r = evaluator.EvaluateDelta(unprepared, {}, watermarks);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(GuardTest, ShortWatermarksAreStatusNotAbort) {
  datagen::Dataset data = ReviewToyDataset();
  QueryEvaluator evaluator(data.instance.get());
  ConjunctiveQuery query;
  query.atoms.push_back({"Person", {Term::Var("A")}});
  Result<PreparedDeltaQuery> prepared = evaluator.PrepareDelta(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  std::vector<uint32_t> short_watermarks;  // schema has more predicates
  Result<BindingTable> r =
      evaluator.EvaluateDelta(*prepared, {"A"}, short_watermarks);
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
