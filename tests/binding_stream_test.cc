// Binding-stream equivalence suite: the columnar BindingTable path
// (evaluator arena -> shard-order InsertDistinct merge -> grounding) must
// reproduce the legacy owned-Tuple path — same bindings, same order, same
// grounded graph — on the REVIEW / MIMIC / NIS workloads at CARL_THREADS
// 1 and 4. Also covers the overflow-attribute round-trip through the
// typed per-attribute value columns and the session-level binding-table
// cache.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "carl/carl.h"
#include "datagen/review_toy.h"
#include "fixtures.h"

namespace carl {
namespace {

using test_fixtures::NamedDataset;
using test_fixtures::ScopedThreads;
using test_fixtures::StreamWorkloads;

// Replays the historical EnumerateBindings: per-shard owned Tuples merged
// first-occurrence through an unordered_set, in shard order.
std::vector<Tuple> LegacyTupleMerge(const QueryEvaluator& evaluator,
                                    const PreparedQuery& prepared,
                                    const std::vector<std::string>& vars,
                                    size_t shards) {
  std::vector<Tuple> merged;
  std::unordered_set<Tuple, TupleHash> seen;
  for (size_t s = 0; s < shards; ++s) {
    Result<BindingTable> shard =
        evaluator.EvaluateShard(prepared, vars, s, shards);
    CARL_CHECK_OK(shard.status());
    for (Tuple& t : shard->ToTuples()) {
      if (seen.insert(t).second) merged.push_back(std::move(t));
    }
  }
  return merged;
}

TEST(BindingStreamTest, StreamingEqualsLegacyTuplePathOnAllWorkloads) {
  for (NamedDataset& wl : StreamWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name << ": " << model.status();
    QueryEvaluator evaluator(wl.dataset.instance.get());

    size_t conditions = 0;
    for (const CausalRule& rule : model->rules()) {
      std::vector<std::string> vars = rule.where.Variables();
      if (vars.empty()) continue;
      ++conditions;
      Result<PreparedQuery> prepared = evaluator.Prepare(rule.where);
      ASSERT_TRUE(prepared.ok()) << wl.name;
      Result<BindingTable> unsharded = evaluator.Evaluate(*prepared, vars);
      ASSERT_TRUE(unsharded.ok()) << wl.name;

      for (int threads : {1, 4}) {
        ScopedThreads scoped(threads);
        Result<size_t> candidates =
            evaluator.CountRootCandidates(*prepared);
        ASSERT_TRUE(candidates.ok());
        size_t shards = PlanBindingShards(*candidates, threads);

        // Legacy path: owned Tuples, unordered_set first-occurrence.
        std::vector<Tuple> legacy =
            LegacyTupleMerge(evaluator, *prepared, vars, shards);
        // Streamed path: columnar shard tables, InsertDistinct merge.
        BindingTable streamed(vars.size());
        for (size_t s = 0; s < shards; ++s) {
          Result<BindingTable> shard =
              evaluator.EvaluateShard(*prepared, vars, s, shards);
          ASSERT_TRUE(shard.ok());
          for (size_t r = 0; r < shard->size(); ++r) {
            streamed.InsertDistinct(shard->row(r));
          }
        }

        // Same bindings, same order — and both equal the unsharded
        // enumeration.
        EXPECT_EQ(streamed.ToTuples(), legacy)
            << wl.name << " threads=" << threads << " shards=" << shards;
        EXPECT_EQ(streamed.ToTuples(), unsharded->ToTuples())
            << wl.name << " threads=" << threads;
      }
    }
    EXPECT_GT(conditions, 0u) << wl.name << ": model has no rule to check";
  }
}

using test_fixtures::GraphFingerprint;

TEST(BindingStreamTest, GraphFingerprintIdenticalAcrossThreadCounts) {
  for (NamedDataset& wl : StreamWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;

    uint64_t serial_fp = 0;
    {
      ScopedThreads scoped(1);
      Result<GroundedModel> serial = GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(serial.ok()) << wl.name << ": " << serial.status();
      serial_fp = GraphFingerprint(*serial);
    }
    for (int threads : {2, 4}) {
      ScopedThreads scoped(threads);
      Result<GroundedModel> parallel =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(parallel.ok()) << wl.name;
      EXPECT_EQ(GraphFingerprint(*parallel), serial_fp)
          << wl.name << " differs at threads=" << threads;
    }
  }
}

TEST(BindingStreamTest, OverflowAttributeValueSurvivesGrounding) {
  // A value set before its fact exists lives in the overflow map; the
  // typed-column value pass must fall back to it instead of reading
  // "absent" off the dense column (regression guard for the column copy).
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(
      schema.AddAttribute("Age", "Person", true, ValueType::kDouble).status());
  CARL_CHECK_OK(schema.AddAttribute("Risk", "Person", true,
                                    ValueType::kDouble).status());
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Person", {"bob"}));
  CARL_CHECK_OK(db.SetAttribute("Age", {"bob"}, Value(41.0)));
  // ghost's Age arrives before the ghost fact -> overflow entry.
  CARL_CHECK_OK(db.SetAttribute("Age", {"ghost"}, Value(7.0)));
  CARL_CHECK_OK(db.AddFact("Person", {"ghost"}));

  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(schema, "Risk[P] <= Age[P]");
  ASSERT_TRUE(model.ok()) << model.status();
  for (int threads : {1, 4}) {
    ScopedThreads scoped(threads);
    Result<GroundedModel> grounded = GroundModel(db, *model);
    ASSERT_TRUE(grounded.ok()) << grounded.status();
    Result<AttributeId> age = schema.FindAttribute("Age");
    ASSERT_TRUE(age.ok());
    NodeId bob = grounded->graph().FindNode(
        *age, Tuple{db.LookupConstant("bob")});
    NodeId ghost = grounded->graph().FindNode(
        *age, Tuple{db.LookupConstant("ghost")});
    ASSERT_NE(bob, kInvalidNode);
    ASSERT_NE(ghost, kInvalidNode);
    EXPECT_EQ(grounded->NodeValue(bob), std::optional<double>(41.0));
    EXPECT_EQ(grounded->NodeValue(ghost), std::optional<double>(7.0))
        << "overflow-stored value lost by the typed-column pass";
  }
}

TEST(BindingStreamTest, InternedKeyInvalidationKeepsScopedSemantics) {
  // Regression for the key-interning refactor: BindingCache now compares
  // dense BindingKeyIds everywhere, and scoped invalidation must behave
  // exactly as the string-keyed cache did — drop only entries whose deps
  // intersect the delta, keep the rest pointer-identical, and keep serving
  // survivors under their original interned ids.
  BindingCache cache;
  auto make_table = [] {
    auto t = std::make_shared<BindingTable>(1);
    SymbolId v = 7;
    t->InsertDistinct(&v);
    return std::shared_ptr<const BindingTable>(std::move(t));
  };

  const BindingKeyId touched_key = cache.InternKey("rule:touched");
  const BindingKeyId disjoint_key = cache.InternKey("rule:disjoint");
  ASSERT_NE(touched_key, disjoint_key);
  // Re-interning the same string yields the same id — the one-hash-per-
  // rule-per-pass contract.
  EXPECT_EQ(cache.InternKey("rule:touched"), touched_key);

  auto touched_table = make_table();
  auto disjoint_table = make_table();
  cache.Insert(touched_key, touched_table, BindingDeps{{PredicateId{3}}, {}});
  cache.Insert(disjoint_key, disjoint_table,
               BindingDeps{{PredicateId{8}}, {AttributeId{2}}});
  ASSERT_EQ(cache.size(), 2u);

  // Complete delta touching predicate 3 only: the touched entry drops,
  // the disjoint entry survives with its table un-reallocated.
  InstanceDelta delta;
  delta.complete = true;
  delta.facts.push_back({PredicateId{3}, 0});
  cache.Invalidate(delta);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find(touched_key), nullptr);
  EXPECT_EQ(cache.Find(disjoint_key).get(), disjoint_table.get())
      << "scoped invalidation dropped (or re-keyed) a disjoint entry";

  // The snapshot reports surviving (id, table) pairs — the hook the fuzz
  // suites use for pointer-identity across aborted passes.
  auto snapshot = cache.SnapshotEntries();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, disjoint_key);
  EXPECT_EQ(snapshot[0].second, disjoint_table.get());

  // An invalidated id stays stable and is reusable for the re-insert.
  EXPECT_EQ(cache.InternKey("rule:touched"), touched_key);
  cache.Insert(touched_key, make_table(), BindingDeps{{PredicateId{3}}, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Find(touched_key), nullptr);

  // An attribute-intersecting delta scopes the same way.
  InstanceDelta attr_delta;
  attr_delta.complete = true;
  attr_delta.attributes.push_back({AttributeId{2}, {0}, false});
  cache.Invalidate(attr_delta);
  EXPECT_EQ(cache.Find(disjoint_key), nullptr);
  EXPECT_NE(cache.Find(touched_key), nullptr);

  // An incomplete delta still clears wholesale.
  InstanceDelta trimmed;
  trimmed.complete = false;
  cache.Invalidate(trimmed);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BindingStreamTest, SessionReusesBindingTablesAcrossModelVariants) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  auto session = std::make_shared<QuerySession>(data->instance.get());

  auto answer = [&](const std::string& query) -> Result<double> {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data->schema, data->model_text);
    CARL_RETURN_IF_ERROR(model.status());
    CARL_ASSIGN_OR_RETURN(
        std::unique_ptr<CarlEngine> engine,
        CarlEngine::Create(session, std::move(*model)));
    QueryResponse response = engine->Answer(QueryRequest(query));
    CARL_RETURN_IF_ERROR(response.status);
    return response.answer.ate->ate.value;
  };

  // The first grounding fills the binding cache; the derived MAX_Score
  // variant re-grounds but shares every base rule condition, so its
  // enumeration comes from the cache.
  Result<double> derived = answer("MAX_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(session->SnapshotStats().ground_full, 2u);  // base + variant
  EXPECT_GT(session->binding_cache().size(), 0u);
  EXPECT_GT(session->binding_cache().hits(), 0u)
      << "variant re-grounding re-enumerated shared rule conditions";

  // Cached-binding answers match a cache-free engine bit-for-bit.
  Result<RelationalCausalModel> fresh_model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(fresh_model.ok());
  Result<std::unique_ptr<CarlEngine>> isolated =
      CarlEngine::Create(data->instance.get(), std::move(*fresh_model));
  ASSERT_TRUE(isolated.ok());
  QueryResponse isolated_answer =
      (*isolated)->Answer(QueryRequest("MAX_Score[A] <= Prestige[A]?"));
  ASSERT_TRUE(isolated_answer.status.ok());
  EXPECT_DOUBLE_EQ(*derived, isolated_answer.answer.ate->ate.value);

  // Instance mutation drops the binding cache with the groundings.
  const auto entries = data->instance->AttributeEntries(
      *data->schema->FindAttribute("Score"));
  ASSERT_FALSE(entries.empty());
  ASSERT_TRUE(data->instance
                  ->SetAttributeIds(*data->schema->FindAttribute("Score"),
                                    entries.front().first, Value(99.0))
                  .ok());
  Result<double> after = answer("MAX_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(after.ok());
  // Both variants were rebuilt (re-grounded or extended).
  QuerySession::SessionStats stats = session->SnapshotStats();
  EXPECT_EQ(stats.ground_full + stats.ground_extends, 4u);
}

}  // namespace
}  // namespace carl
