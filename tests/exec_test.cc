// carl_exec determinism suite: chunk-plan invariants, ParallelFor
// semantics, RNG stream derivation, and — the load-bearing
// guarantee — that grounding, unit tables, and the bootstrap produce
// identical results for every thread count (grounding equivalence is
// checked as canonical-form graph equality on the review and MIMIC
// datasets). Also covers QuerySession caching: repeated groundings hit,
// derived-aggregation re-groundings are shared across engines, and
// concurrent callers of one variant ground it once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "carl/carl.h"
#include "datagen/mimic.h"
#include "datagen/review_toy.h"
#include "fixtures.h"

namespace carl {
namespace {

using test_fixtures::Canonicalize;
using test_fixtures::CanonicalGraph;
using test_fixtures::ScopedThreads;

// ---------------------------------------------------------------------------
// Chunk plan + primitives
// ---------------------------------------------------------------------------

TEST(ExecContextTest, ChunkPlanCoversRangeInOrder) {
  ExecContext ctx(4);
  for (size_t n : {0ul, 1ul, 7ul, 64ul, 65ul, 1000ul, 123457ul}) {
    std::vector<std::pair<size_t, size_t>> chunks = ctx.Chunks(n);
    size_t expected_begin = 0;
    for (const auto& [begin, end] : chunks) {
      EXPECT_EQ(begin, expected_begin);
      EXPECT_LT(begin, end);
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, n);
  }
}

TEST(ExecContextTest, ChunkPlanIndependentOfThreadCount) {
  ExecContext serial(1), quad(4), wide(32);
  for (size_t n : {1ul, 100ul, 5000ul, 123457ul}) {
    EXPECT_EQ(serial.Chunks(n), quad.Chunks(n));
    EXPECT_EQ(serial.Chunks(n), wide.Chunks(n));
  }
}

TEST(ExecContextTest, RefreshFromEnvPicksUpLateCarlThreads) {
  // The global context samples CARL_THREADS once at first use; a test
  // that sets the variable afterwards was silently ignored until
  // RefreshFromEnv. Exercise the hook on the global instance and restore
  // everything on the way out.
  ExecContext& global = ExecContext::Global();
  int prev_threads = global.threads();
  const char* prev_env = std::getenv("CARL_THREADS");
  std::string prev_value = prev_env != nullptr ? prev_env : "";

  ::setenv("CARL_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(global.threads(), prev_threads);  // env change alone: ignored
  global.RefreshFromEnv();
  EXPECT_EQ(global.threads(), 3);

  ::setenv("CARL_THREADS", "1", 1);
  global.RefreshFromEnv();
  EXPECT_EQ(global.threads(), 1);
  EXPECT_TRUE(global.serial());

  if (prev_env != nullptr) {
    ::setenv("CARL_THREADS", prev_value.c_str(), 1);
  } else {
    ::unsetenv("CARL_THREADS");
  }
  global.set_threads(prev_threads);
}

TEST(ExecContextTest, StreamSeedsAreStableAndDistinct) {
  uint64_t s0 = ExecContext::StreamSeed(42, 0);
  EXPECT_EQ(s0, ExecContext::StreamSeed(42, 0));
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 100; ++i) {
    seeds.push_back(ExecContext::StreamSeed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(ExecContext::StreamSeed(42, 1), ExecContext::StreamSeed(43, 1));
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ExecContext ctx(4);
  const size_t n = 100000;
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(ctx, n, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ChunkIndexMatchesThePlan) {
  ExecContext ctx(4);
  const size_t n = 12345;
  std::vector<std::pair<size_t, size_t>> plan = ctx.Chunks(n);
  std::vector<std::pair<size_t, size_t>> observed(plan.size());
  ParallelFor(ctx, n, [&](size_t begin, size_t end, size_t chunk) {
    observed[chunk] = {begin, end};
  });
  EXPECT_EQ(observed, plan);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  ExecContext ctx(4);
  std::atomic<int> calls{0};
  ParallelFor(ctx, 0, [&](size_t, size_t, size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

// ---------------------------------------------------------------------------
// ParallelFor under skew and timing jitter
// ---------------------------------------------------------------------------

// Deterministic per-item work: a data-dependent spin whose result feeds
// the output slot, so the optimizer cannot elide it and timing jitter
// cannot change it.
uint64_t SpinWork(size_t i, uint64_t iters) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ i;
  for (uint64_t k = 0; k < iters; ++k) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  return h;
}

// Skewed loop: the first quarter of the items carries ~50x the work of
// the rest, so whichever participant claims those chunks lags while the
// others claim everything after them from the shared counter.
constexpr size_t kSkewedItems = 256;

uint64_t SkewedIters(size_t item, uint64_t heavy_iters) {
  return item < kSkewedItems / 4 ? heavy_iters : heavy_iters / 50;
}

TEST(ParallelForTest, SkewedItemsMatchOneThread) {
  const uint64_t heavy = 60000;
  std::vector<uint64_t> one_thread(kSkewedItems);
  for (size_t i = 0; i < kSkewedItems; ++i) {
    one_thread[i] = SpinWork(i, SkewedIters(i, heavy));
  }
  for (int threads : {2, 4}) {
    ExecContext ctx(threads);
    std::vector<uint64_t> out(kSkewedItems);
    ParallelFor(ctx, kSkewedItems, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = SpinWork(i, SkewedIters(i, heavy));
      }
    });
    EXPECT_EQ(out, one_thread)
        << "threads=" << threads
        << ": the chunk schedule changed WHAT was computed, not just where";
  }
}

TEST(ParallelForTest, ChunkSlotsBitIdenticalUnderRandomizedTiming) {
  // Differential for the determinism contract: per-chunk timing jitter
  // (seeded, different every round) randomizes which thread claims which
  // chunk, while per-chunk partial sums, folded in chunk order, must stay
  // bit-identical to the one-thread run. Runs TSan-clean — the jitter
  // also widens the window the sanitizer watches on the shared counter.
  const size_t n = 300000;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = 0.1 * static_cast<double>(i + 1);
  auto sum_with = [&](int threads, uint64_t jitter_seed) {
    ExecContext ctx(threads);
    std::vector<double> partials(ctx.Chunks(n).size());
    ParallelFor(ctx, n, [&](size_t begin, size_t end, size_t chunk) {
      // Data-independent jitter: perturbs the claim order only.
      SpinWork(begin, (jitter_seed ^ begin) % 4096);
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += data[i];
      partials[chunk] = s;
    });
    double total = 0.0;
    for (double p : partials) total += p;
    return total;
  };
  const double serial = sum_with(1, 0);
  for (uint64_t round = 1; round <= 4; ++round) {
    for (int threads : {2, 4}) {
      EXPECT_EQ(serial, sum_with(threads, round * 0x2545f4914f6cdd1dull))
          << "threads=" << threads << " round=" << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Grounding / unit-table equivalence
// ---------------------------------------------------------------------------

// Canonical-form graph equality and the MIMIC mini instance both live
// in tests/fixtures.{h,cc}, shared with the graph-store and
// incremental-grounding suites.
Result<datagen::Dataset> SmallMimic() {
  return test_fixtures::MiniMimicDataset();
}

void ExpectGroundingEquivalence(const datagen::Dataset& data) {
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();

  Result<GroundedModel> serial = [&] {
    ScopedThreads scoped(1);
    return GroundModel(*data.instance, *model);
  }();
  ASSERT_TRUE(serial.ok()) << serial.status();
  CanonicalGraph serial_canon = Canonicalize(*serial);
  size_t serial_groundings = serial->num_groundings();

  for (int threads : {2, 4}) {
    ScopedThreads scoped(threads);
    Result<GroundedModel> parallel = GroundModel(*data.instance, *model);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel->graph().num_nodes(), serial->graph().num_nodes());
    EXPECT_EQ(parallel->graph().num_edges(), serial->graph().num_edges());
    EXPECT_EQ(parallel->num_groundings(), serial_groundings);
    EXPECT_TRUE(Canonicalize(*parallel) == serial_canon)
        << "grounded graph differs at threads=" << threads;
  }
}

TEST(GroundingEquivalenceTest, ReviewToy) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  ExpectGroundingEquivalence(*data);
}

TEST(GroundingEquivalenceTest, SimulatedMimic) {
  Result<datagen::Dataset> data = SmallMimic();
  ASSERT_TRUE(data.ok());
  ExpectGroundingEquivalence(*data);
}

TEST(GroundingEquivalenceTest, NodeIdsIdenticalNotJustIsomorphic) {
  // Stronger than the canonical check: grounding never reads the thread
  // count, so even raw node ids match.
  Result<datagen::Dataset> data = SmallMimic();
  ASSERT_TRUE(data.ok());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(model.ok());

  Result<GroundedModel> serial = [&] {
    ScopedThreads scoped(1);
    return GroundModel(*data->instance, *model);
  }();
  ASSERT_TRUE(serial.ok());
  ScopedThreads scoped(4);
  Result<GroundedModel> parallel = GroundModel(*data->instance, *model);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->graph().num_nodes(), serial->graph().num_nodes());
  for (NodeId id = 0; id < static_cast<NodeId>(serial->graph().num_nodes());
       ++id) {
    ASSERT_TRUE(serial->graph().node(id) == parallel->graph().node(id))
        << "node " << id;
    ASSERT_EQ(serial->graph().Parents(id), parallel->graph().Parents(id))
        << "parents of node " << id;
  }
}

TEST(UnitTableEquivalenceTest, MimicColumnsBitIdentical) {
  Result<datagen::Dataset> data = SmallMimic();
  ASSERT_TRUE(data.ok());
  Result<CausalQuery> query = ParseQuery("Death[P] <= SelfPay[P]?");
  ASSERT_TRUE(query.ok());

  auto build = [&]() -> Result<UnitTable> {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data->schema, data->model_text);
    CARL_RETURN_IF_ERROR(model.status());
    CARL_ASSIGN_OR_RETURN(
        std::unique_ptr<CarlEngine> engine,
        CarlEngine::Create(data->instance.get(), std::move(*model)));
    return engine->BuildUnitTableForQuery(*query);
  };

  Result<UnitTable> serial = [&] {
    ScopedThreads scoped(1);
    return build();
  }();
  ASSERT_TRUE(serial.ok()) << serial.status();
  ScopedThreads scoped(4);
  Result<UnitTable> parallel = build();
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ(serial->data.column_names(), parallel->data.column_names());
  ASSERT_EQ(serial->data.num_rows(), parallel->data.num_rows());
  EXPECT_EQ(serial->dropped_units, parallel->dropped_units);
  EXPECT_EQ(serial->units, parallel->units);
  for (const std::string& col : serial->data.column_names()) {
    EXPECT_EQ(serial->data.Column(col), parallel->data.Column(col))
        << "column " << col;
  }
}

// ---------------------------------------------------------------------------
// Bootstrap determinism
// ---------------------------------------------------------------------------

TEST(BootstrapParallelTest, DeterministicAcrossParallelThreadCounts) {
  std::vector<double> data(500);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i % 17);
  }
  auto statistic = [&](const std::vector<size_t>& idx) -> Result<double> {
    double s = 0;
    for (size_t i : idx) s += data[i];
    return s / static_cast<double>(idx.size());
  };
  auto run = [&](int threads) {
    ScopedThreads scoped(threads);
    Result<BootstrapResult> b = Bootstrap(data.size(), 100, 7, statistic);
    EXPECT_TRUE(b.ok());
    return b->samples;
  };
  std::vector<double> one = run(1);
  EXPECT_EQ(one.size(), 100u);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(8));
}

// ---------------------------------------------------------------------------
// QuerySession cache
// ---------------------------------------------------------------------------

TEST(QuerySessionTest, RepeatedGroundingHitsTheCache) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(model.ok());

  QuerySession session(data->instance.get());
  Result<std::shared_ptr<const GroundedModel>> first = session.Ground(*model);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<std::shared_ptr<const GroundedModel>> second =
      session.Ground(*model);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same cached object
  EXPECT_EQ(session.SnapshotStats().ground_full, 1u);
  EXPECT_EQ(session.SnapshotStats().cache_hits, 1u);
  EXPECT_EQ(session.num_cached_groundings(), 1u);
}

TEST(QuerySessionTest, DerivedAggregationRegroundSharedAcrossEngines) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  auto session = std::make_shared<QuerySession>(data->instance.get());

  auto answer_with_fresh_engine = [&]() -> Status {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data->schema, data->model_text);
    CARL_RETURN_IF_ERROR(model.status());
    CARL_ASSIGN_OR_RETURN(
        std::unique_ptr<CarlEngine> engine,
        CarlEngine::Create(session, std::move(*model)));
    // MAX_Score is not in the model: the engine derives the unifying
    // aggregate (§4.3) and grounds the extended variant.
    return engine->Answer(QueryRequest("MAX_Score[A] <= Prestige[A]?"))
        .status;
  };

  ASSERT_TRUE(answer_with_fresh_engine().ok());
  // Base + MAX_Score variant.
  EXPECT_EQ(session->SnapshotStats().ground_full, 2u);

  // A second engine repeats the pipeline: base grounding and the derived
  // variant both come from the cache — zero new groundings.
  ASSERT_TRUE(answer_with_fresh_engine().ok());
  EXPECT_EQ(session->SnapshotStats().ground_full, 2u);
  EXPECT_GE(session->SnapshotStats().cache_hits, 2u);
}

// K threads ground one derived variant on a cold session at once: the
// session is single-flight, so it grounds once and every caller shares
// that one grounding.
TEST(QuerySessionTest, ConcurrentGroundsOfOneVariantGroundOnce) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  // The base model plus one aggregate rule, as a derived query's variant.
  Result<RelationalCausalModel> variant = RelationalCausalModel::Parse(
      *data->schema,
      data->model_text + "\nMAX_Score[A] <= Score[S] WHERE Author(A, S)\n");
  ASSERT_TRUE(variant.ok()) << variant.status();

  ScopedThreads threads(4);
  QuerySession session(data->instance.get());
  constexpr size_t kCallers = 8;
  std::vector<std::shared_ptr<const GroundedModel>> grounded(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      Result<std::shared_ptr<const GroundedModel>> g = session.Ground(*variant);
      if (g.ok()) grounded[t] = *g;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::shared_ptr<const GroundedModel>& g : grounded) {
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g.get(), grounded[0].get());
  }
  QuerySession::SessionStats stats = session.SnapshotStats();
  EXPECT_EQ(stats.ground_full, 1u);
  EXPECT_EQ(stats.cache_hits, kCallers - 1);
}

TEST(QuerySessionTest, EvictionBoundsTheCache) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  auto session = std::make_shared<QuerySession>(data->instance.get());
  session->set_max_cached_groundings(1);

  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(model.ok());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(session, std::move(*model));
  ASSERT_TRUE(engine.ok());
  // The derived MAX_Score variant is a second grounding: with capacity 1
  // the base grounding is evicted, the engine keeps its shared_ptr alive.
  ASSERT_TRUE((*engine)
                  ->Answer(QueryRequest("MAX_Score[A] <= Prestige[A]?"))
                  .status.ok());
  EXPECT_EQ(session->num_cached_groundings(), 1u);
  EXPECT_GE(session->SnapshotStats().ground_evictions, 1u);
}

TEST(QuerySessionTest, EngineSurvivesEvictionOfItsGrounding) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  auto session = std::make_shared<QuerySession>(data->instance.get());
  session->set_max_cached_groundings(1);

  auto make_engine = [&]() -> std::unique_ptr<CarlEngine> {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data->schema, data->model_text);
    CARL_CHECK_OK(model.status());
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(session, std::move(*model));
    CARL_CHECK_OK(engine.status());
    return std::move(*engine);
  };

  std::unique_ptr<CarlEngine> holder_engine = make_engine();
  const QueryRequest request("AVG_Score[A] <= Prestige[A]?");
  QueryResponse before = holder_engine->Answer(request);
  ASSERT_TRUE(before.status.ok());

  // A second engine grounds a derived variant, evicting the first
  // engine's grounding from the cache. The first engine's aliased
  // shared_ptr must keep grounding AND model copy alive (the grounding
  // references the model by pointer), so it keeps answering correctly.
  std::unique_ptr<CarlEngine> evictor = make_engine();
  ASSERT_TRUE(evictor->Answer(QueryRequest("MAX_Score[A] <= Prestige[A]?"))
                  .status.ok());
  EXPECT_GE(session->SnapshotStats().ground_evictions, 1u);

  QueryResponse after = holder_engine->Answer(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_DOUBLE_EQ(after.answer.ate->ate.value, before.answer.ate->ate.value);
}

TEST(QuerySessionTest, ValueMutationInvalidatesCachedGroundings) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(model.ok());

  QuerySession session(data->instance.get());
  Result<std::shared_ptr<const GroundedModel>> before =
      session.Ground(*model);
  ASSERT_TRUE(before.ok());

  // Overwrite one existing Score value in place: no cardinality changes,
  // but the value fold in the fingerprint must still notice.
  Result<AttributeId> score =
      model->extended_schema().FindAttribute("Score");
  ASSERT_TRUE(score.ok());
  const auto score_entries = data->instance->AttributeEntries(*score);
  ASSERT_FALSE(score_entries.empty());
  Tuple target = score_entries.front().first;
  ASSERT_TRUE(
      data->instance->SetAttributeIds(*score, target, Value(123.5)).ok());

  Result<std::shared_ptr<const GroundedModel>> after = session.Ground(*model);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());  // re-grounded, not served stale
  QuerySession::SessionStats stats = session.SnapshotStats();
  EXPECT_EQ(stats.ground_full + stats.ground_extends, 2u);
  NodeId changed = after->get()->graph().FindNode(*score, target);
  ASSERT_NE(changed, kInvalidNode);
  EXPECT_EQ(after->get()->NodeValue(changed), std::optional<double>(123.5));
}

TEST(QuerySessionTest, EngineAnswersIdenticalThroughSharedSession) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  auto session = std::make_shared<QuerySession>(data->instance.get());

  auto answer = [&](bool shared) -> Result<double> {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data->schema, data->model_text);
    CARL_RETURN_IF_ERROR(model.status());
    Result<std::unique_ptr<CarlEngine>> engine =
        shared ? CarlEngine::Create(session, std::move(*model))
               : CarlEngine::Create(data->instance.get(), std::move(*model));
    CARL_RETURN_IF_ERROR(engine.status());
    QueryResponse response =
        (*engine)->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
    CARL_RETURN_IF_ERROR(response.status);
    return response.answer.ate->ate.value;
  };

  Result<double> isolated = answer(false);
  Result<double> cached_once = answer(true);
  Result<double> cached_twice = answer(true);
  ASSERT_TRUE(isolated.ok() && cached_once.ok() && cached_twice.ok());
  EXPECT_DOUBLE_EQ(*isolated, *cached_once);
  EXPECT_DOUBLE_EQ(*cached_once, *cached_twice);
}

}  // namespace
}  // namespace carl
