// Tests for the columnar relation storage: arena-backed Rows views, the
// row-id fact set, row-keyed attribute columns, and the CSR Match
// indexes. Covers exact-semantics equivalence with the historical
// per-row-vector layout (insertion order, dedupe, attribute lookup) on
// the real generators, plus a property test hammering Match with random
// position masks against a naive scan oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "datagen/mimic.h"
#include "datagen/review_toy.h"
#include "fixtures.h"
#include "relational/evaluator.h"
#include "relational/instance.h"
#include "relational/schema.h"

namespace carl {
namespace {

using test_fixtures::MakePersonItemSchema;

// Reference implementation: linear scan over the arena rows.
std::vector<uint32_t> NaiveMatch(const Instance& db, PredicateId pid,
                                 const std::vector<int>& positions,
                                 const Tuple& key) {
  std::vector<uint32_t> out;
  RelationView rows = db.Rows(pid);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    bool ok = true;
    for (size_t i = 0; i < positions.size(); ++i) {
      if (rows[r][positions[i]] != key[i]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(r);
  }
  return out;
}

TEST(StorageTest, RowsPreserveInsertionOrderAndDedupe) {
  Schema schema = MakePersonItemSchema();
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Owns", {"bob", "car"}));
  CARL_CHECK_OK(db.AddFact("Owns", {"eva", "car"}));
  CARL_CHECK_OK(db.AddFact("Owns", {"bob", "car"}));  // duplicate
  CARL_CHECK_OK(db.AddFact("Owns", {"bob", "bike"}));

  PredicateId owns = *schema.FindPredicate("Owns");
  RelationView rows = db.Rows(owns);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.arity(), 2u);
  SymbolId bob = db.LookupConstant("bob");
  SymbolId eva = db.LookupConstant("eva");
  SymbolId car = db.LookupConstant("car");
  SymbolId bike = db.LookupConstant("bike");
  EXPECT_EQ(rows[0].ToTuple(), (Tuple{bob, car}));
  EXPECT_EQ(rows[1].ToTuple(), (Tuple{eva, car}));
  EXPECT_EQ(rows[2].ToTuple(), (Tuple{bob, bike}));
  EXPECT_EQ(db.TotalFacts(), 3u);

  // Row lookup agrees with insertion order; misses report kNoRow.
  SymbolId probe[2] = {eva, car};
  EXPECT_EQ(db.FindRow(owns, probe, 2), 1u);
  SymbolId miss[2] = {eva, bike};
  EXPECT_EQ(db.FindRow(owns, miss, 2), Instance::kNoRow);
}

TEST(StorageTest, AttributeColumnsMatchMapSemantics) {
  Schema schema = MakePersonItemSchema();
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Person", {"bob"}));
  CARL_CHECK_OK(db.AddFact("Person", {"eva"}));
  AttributeId age = *schema.FindAttribute("Age");
  Tuple bob{db.LookupConstant("bob")};
  Tuple eva{db.LookupConstant("eva")};

  EXPECT_FALSE(db.GetAttribute(age, bob).has_value());
  CARL_CHECK_OK(db.SetAttributeIds(age, bob, Value(41.0)));
  CARL_CHECK_OK(db.SetAttributeIds(age, eva, Value(39.0)));
  EXPECT_EQ(db.NumAttributeValues(age), 2u);
  EXPECT_DOUBLE_EQ(db.GetAttribute(age, bob)->AsDouble(), 41.0);

  // In-place overwrite keeps one entry and bumps the generation.
  uint64_t gen = db.generation();
  CARL_CHECK_OK(db.SetAttributeIds(age, bob, Value(42.0)));
  EXPECT_GT(db.generation(), gen);
  EXPECT_EQ(db.NumAttributeValues(age), 2u);
  EXPECT_DOUBLE_EQ(db.GetAttribute(age, bob)->AsDouble(), 42.0);

  // Entries come back in insertion order.
  auto entries = db.AttributeEntries(age);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, bob);
  EXPECT_DOUBLE_EQ(entries[0].second.AsDouble(), 42.0);
  EXPECT_EQ(entries[1].first, eva);

  // Wrong arity probes miss instead of dying.
  EXPECT_FALSE(db.GetAttribute(age, {bob[0], eva[0]}).has_value());
}

TEST(StorageTest, AttributeSetBeforeFactSurvivesViaOverflow) {
  Schema schema = MakePersonItemSchema();
  Instance db(&schema);
  AttributeId age = *schema.FindAttribute("Age");
  // Value written before the fact exists: stored, readable, counted once.
  CARL_CHECK_OK(db.SetAttribute("Age", {"ghost"}, Value(7.0)));
  Tuple ghost{db.LookupConstant("ghost")};
  EXPECT_DOUBLE_EQ(db.GetAttribute(age, ghost)->AsDouble(), 7.0);
  EXPECT_EQ(db.NumAttributeValues(age), 1u);

  // The fact arrives later; the value is still visible, and a row-keyed
  // overwrite supersedes the early entry without double-counting.
  CARL_CHECK_OK(db.AddFact("Person", {"ghost"}));
  EXPECT_DOUBLE_EQ(db.GetAttribute(age, ghost)->AsDouble(), 7.0);
  CARL_CHECK_OK(db.SetAttributeIds(age, ghost, Value(8.0)));
  EXPECT_DOUBLE_EQ(db.GetAttribute(age, ghost)->AsDouble(), 8.0);
  EXPECT_EQ(db.NumAttributeValues(age), 1u);
}

TEST(StorageTest, NumericColumnMirrorsAttributeWrites) {
  Schema schema = MakePersonItemSchema();
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Person", {"bob"}));
  CARL_CHECK_OK(db.AddFact("Person", {"eva"}));
  CARL_CHECK_OK(db.AddFact("Person", {"ann"}));
  AttributeId age = *schema.FindAttribute("Age");

  // Untouched attribute: an empty, overflow-free column.
  Instance::NumericColumn col = db.NumericColumnOf(age);
  EXPECT_EQ(col.num_rows, 0u);
  EXPECT_FALSE(col.may_overflow);

  // Row-keyed writes land in the typed column at their row id; the gap
  // (eva, row 1) stays absent.
  CARL_CHECK_OK(db.SetAttribute("Age", {"bob"}, Value(41.0)));
  CARL_CHECK_OK(db.SetAttribute("Age", {"ann"}, Value(29.0)));
  col = db.NumericColumnOf(age);
  ASSERT_EQ(col.num_rows, 3u);
  EXPECT_EQ(col.present[0], 1);
  EXPECT_EQ(col.present[1], 0);
  EXPECT_EQ(col.present[2], 1);
  EXPECT_DOUBLE_EQ(col.values[0], 41.0);
  EXPECT_DOUBLE_EQ(col.values[2], 29.0);

  // In-place overwrite updates the typed shadow too.
  CARL_CHECK_OK(db.SetAttribute("Age", {"bob"}, Value(42.0)));
  col = db.NumericColumnOf(age);
  EXPECT_DOUBLE_EQ(col.values[0], 42.0);

  // A non-numeric value is "set" in the Value column but absent from the
  // typed one (NodeValue semantics: non-numeric reads as missing).
  CARL_CHECK_OK(db.SetAttribute("Age", {"eva"}, Value("unknown")));
  col = db.NumericColumnOf(age);
  EXPECT_EQ(col.present[1], 0);
}

TEST(StorageTest, OverflowAttributeRoundTripsThroughTypedColumns) {
  // A value set before its fact exists lives in the overflow map, not the
  // row-keyed column — even after the fact arrives. The typed column must
  // advertise that (may_overflow), and the grounding value pass must fall
  // back to FindAttributeValue for such rows instead of reading "absent"
  // off the column.
  Schema schema = MakePersonItemSchema();
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Person", {"bob"}));
  AttributeId age = *schema.FindAttribute("Age");
  CARL_CHECK_OK(db.SetAttribute("Age", {"ghost"}, Value(7.0)));  // no fact yet
  CARL_CHECK_OK(db.AddFact("Person", {"ghost"}));  // fact arrives later

  Instance::NumericColumn col = db.NumericColumnOf(age);
  EXPECT_TRUE(col.may_overflow);
  uint32_t ghost_row = db.FindRow(
      *schema.FindPredicate("Person"),
      Tuple{db.LookupConstant("ghost")}.data(), 1);
  ASSERT_NE(ghost_row, Instance::kNoRow);
  // The column itself has no row-keyed entry for ghost...
  EXPECT_TRUE(col.num_rows <= ghost_row || col.present[ghost_row] == 0);
  // ...but the full lookup still finds the overflow value.
  Tuple ghost{db.LookupConstant("ghost")};
  const Value* v = db.FindAttributeValue(age, ghost.data(), 1);
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->AsDouble(), 7.0);

  // A row-keyed overwrite supersedes the overflow entry and the column
  // becomes authoritative again.
  CARL_CHECK_OK(db.SetAttribute("Age", {"ghost"}, Value(8.0)));
  col = db.NumericColumnOf(age);
  EXPECT_FALSE(col.may_overflow);
  ASSERT_GT(col.num_rows, ghost_row);
  EXPECT_EQ(col.present[ghost_row], 1);
  EXPECT_DOUBLE_EQ(col.values[ghost_row], 8.0);
}

TEST(StorageTest, MatchMatchesNaiveScanUnderRandomMasks) {
  Schema schema = MakePersonItemSchema();
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Instance db(&schema);
    PredicateId owns = *schema.FindPredicate("Owns");
    // Small constant domain so keys collide and duplicates occur.
    std::vector<std::string> people{"a", "b", "c", "d"};
    std::vector<std::string> items{"x", "y", "z"};
    size_t facts = 5 + static_cast<size_t>(rng.UniformInt(0, 40));
    for (size_t f = 0; f < facts; ++f) {
      const std::string& p =
          people[static_cast<size_t>(rng.UniformInt(0, 3))];
      const std::string& i = items[static_cast<size_t>(rng.UniformInt(0, 2))];
      CARL_CHECK_OK(db.AddFact("Owns", {p, i}));
    }

    // Every mask over a 2-ary predicate, probed with seen and unseen keys.
    std::vector<std::vector<int>> masks{{}, {0}, {1}, {0, 1}, {1, 0}};
    for (const std::vector<int>& mask : masks) {
      for (int probe = 0; probe < 12; ++probe) {
        Tuple key;
        for (size_t i = 0; i < mask.size(); ++i) {
          // Mostly in-domain ids, sometimes unseen ones.
          key.push_back(rng.Bernoulli(0.85)
                            ? db.LookupConstant(
                                  people[static_cast<size_t>(
                                      rng.UniformInt(0, 3))])
                            : static_cast<SymbolId>(9999 + probe));
        }
        RowIdSpan got = db.Match(owns, mask, key);
        std::vector<uint32_t> expected = NaiveMatch(db, owns, mask, key);
        ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
            << "trial " << trial;
      }
    }

    // Inserting more facts invalidates and rebuilds the index correctly.
    CARL_CHECK_OK(db.AddFact("Owns", {"d", "z"}));
    Tuple key{db.LookupConstant("d")};
    RowIdSpan got = db.Match(owns, {0}, key);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
              NaiveMatch(db, owns, {0}, key));
  }
}

// The generators exercise the storage at scale: every row must be
// findable, dense, and dedupe-consistent; attribute entries must agree
// with point lookups.
void CheckStorageInvariants(const Instance& db) {
  const Schema& schema = db.schema();
  for (size_t p = 0; p < schema.num_predicates(); ++p) {
    PredicateId pid = static_cast<PredicateId>(p);
    RelationView rows = db.Rows(pid);
    for (uint32_t r = 0; r < rows.size(); ++r) {
      TupleView row = rows[r];
      ASSERT_EQ(db.FindRow(pid, row.data(), row.size()), r);
      // The full-positions index maps each row to exactly itself.
      std::vector<int> all_positions;
      for (size_t i = 0; i < rows.arity(); ++i) {
        all_positions.push_back(static_cast<int>(i));
      }
      RowIdSpan self = db.Match(pid, all_positions, row.ToTuple());
      ASSERT_EQ(self.size(), 1u);
      ASSERT_EQ(self[0], r);
    }
  }
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    AttributeId aid = static_cast<AttributeId>(a);
    for (const auto& [tuple, value] : db.AttributeEntries(aid)) {
      std::optional<Value> got = db.GetAttribute(aid, tuple);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, value);
    }
  }
}

TEST(StorageTest, ReviewToyGeneratorInvariants) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  CheckStorageInvariants(*data->instance);
}

TEST(StorageTest, MimicGeneratorInvariants) {
  datagen::MimicConfig config;
  config.num_patients = 400;
  config.num_caregivers = 20;
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  ASSERT_TRUE(data.ok());
  CheckStorageInvariants(*data->instance);
}

TEST(StorageTest, PreparedQueryReuse) {
  datagen::MimicConfig config;
  config.num_patients = 300;
  config.num_caregivers = 15;
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  ASSERT_TRUE(data.ok());
  const Instance& db = *data->instance;
  QueryEvaluator evaluator(&db);

  ConjunctiveQuery q;
  q.atoms.push_back({"Care", {Term::Var("C"), Term::Var("P")}});
  q.atoms.push_back({"Given", {Term::Var("D"), Term::Var("P")}});
  std::vector<std::string> out_vars{"P", "D"};

  Result<PreparedQuery> prepared = evaluator.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  Result<BindingTable> full = evaluator.Evaluate(*prepared, out_vars);
  ASSERT_TRUE(full.ok());
  Result<BindingTable> again = evaluator.Evaluate(q, out_vars);
  ASSERT_TRUE(again.ok());
  // The plan is reusable and deterministic.
  EXPECT_EQ(full->ToTuples(), again->ToTuples());
}

}  // namespace
}  // namespace carl
