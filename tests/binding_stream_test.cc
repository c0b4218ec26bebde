// Binding-stream suite: the columnar BindingTable path (evaluator arena
// -> grounding) gives the same grounded graph on the REVIEW / MIMIC /
// NIS workloads at every CARL_THREADS. Also covers the overflow-attribute
// round-trip through the typed per-attribute value columns and a derived
// variant grounded through a session against an isolated engine.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "carl/carl.h"
#include "datagen/review_toy.h"
#include "fixtures.h"

namespace carl {
namespace {

using test_fixtures::GraphFingerprint;
using test_fixtures::NamedDataset;
using test_fixtures::ScopedThreads;
using test_fixtures::StreamWorkloads;

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

TEST(BindingStreamTest, SessionVariantMatchesIsolatedEngine) {
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

  // The derived MAX_Score variant grounds as a model of its own.
  Result<double> derived = answer("MAX_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(session->SnapshotStats().ground_full, 2u);  // base + variant

  // The session's answer matches an isolated engine's bit for bit.
  Result<RelationalCausalModel> fresh_model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(fresh_model.ok());
  Result<std::unique_ptr<CarlEngine>> isolated =
      CarlEngine::Create(data->instance.get(), std::move(*fresh_model));
  ASSERT_TRUE(isolated.ok());
  QueryResponse isolated_answer =
      (*isolated)->Answer(QueryRequest("MAX_Score[A] <= Prestige[A]?"));
  ASSERT_TRUE(isolated_answer.status.ok());
  EXPECT_EQ(*derived, isolated_answer.answer.ate->ate.value);

  // An instance mutation rebuilds both groundings.
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
