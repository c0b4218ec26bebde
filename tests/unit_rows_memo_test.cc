// The session's unit-row memo (query_session.h): what an answer resolves
// on a hit, after an append-only extend, after a write into an old unit's
// cone, after a full re-ground and for a WHERE-filtered query — counted
// exactly by unit_table.rows_resolved — plus the per-grounding cap, the
// memo's memory accounting, and several threads answering on one session
// while one answer resumes past an extend (a TSan CI leg target). Every
// answer is bit-compared with a fresh engine's over a private session.
// The memo's tables: what an answer embeds (unit_table.rows_embedded)
// when its table appends and on each trigger that re-embeds every row,
// and a table held across a mutation, which an append must never change
// (also read by several threads while one answer appends, for TSan).
// The session's stats and the registry's query_session.* counts agree.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"

namespace carl {
namespace {

using test_fixtures::AppendMimicAdmission;
using test_fixtures::DescribeResponse;

constexpr char kQuery[] = "Len[P] <= SelfPay[P]?";

uint64_t RowsResolved() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("unit_table.rows_resolved");
  return counter.value();
}

uint64_t RowsEmbedded() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("unit_table.rows_embedded");
  return counter.value();
}

QueryRequest Request(const char* query, EmbeddingKind embedding) {
  QueryRequest request{std::string(query)};
  request.options.embedding = embedding;
  return request;
}

class UnitRowsMemoTest : public ::testing::Test {
 protected:
  explicit UnitRowsMemoTest(size_t patients = 1500)
      : data_(test_fixtures::MiniMimicDataset(patients, 60)),
        db_(data_.instance.get()),
        session_(std::make_shared<QuerySession>(db_)) {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data_.schema, data_.model_text);
    CARL_CHECK_OK(model.status());
    model_ = std::make_unique<RelationalCausalModel>(std::move(*model));
  }

  // A fresh engine over the shared session, as after every mutation.
  std::unique_ptr<CarlEngine> Engine() {
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(session_, *model_);
    CARL_CHECK_OK(engine.status());
    return std::move(*engine);
  }

  // The answer of a fresh engine over a private session: the reference.
  std::string FreshAnswer(const QueryRequest& request) {
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(db_, *model_);
    CARL_CHECK_OK(engine.status());
    return DescribeResponse((*engine)->Answer(request));
  }

  // Answers `query` on a fresh engine over the shared session, checks it
  // against the reference, and returns the unit rows the answer resolved.
  uint64_t AnswerAndCount(const char* query) {
    const QueryRequest request = Request(query, EmbeddingKind::kMean);
    std::unique_ptr<CarlEngine> engine = Engine();
    const uint64_t before = RowsResolved();
    const QueryResponse response = engine->Answer(request);
    const uint64_t resolved = RowsResolved() - before;
    EXPECT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(DescribeResponse(response), FreshAnswer(request)) << query;
    return resolved;
  }

  size_t Patients() const {
    return db_->NumRows(*data_.schema->FindPredicate("Pa"));
  }

  datagen::Dataset data_;
  Instance* db_;
  std::shared_ptr<QuerySession> session_;
  std::unique_ptr<RelationalCausalModel> model_;
};

class UnitRowsCountTest : public UnitRowsMemoTest {
 protected:
  UnitRowsCountTest() : UnitRowsMemoTest(5000) {}
};

TEST_F(UnitRowsCountTest, RowsResolvedCountsOnlyWhatAnExtendCanChange) {
  EXPECT_EQ(AnswerAndCount(kQuery), Patients()) << "the first answer";
  EXPECT_EQ(AnswerAndCount(kQuery), 0u) << "a repeat on the same grounding";

  // Eight admissions reach no existing patient: only their rows resolve.
  for (int i = 0; i < 8; ++i) AppendMimicAdmission(db_, i);
  EXPECT_EQ(AnswerAndCount(kQuery), 8u) << "after 8 admissions";
  EXPECT_EQ(AnswerAndCount(kQuery), 0u);
  EXPECT_EQ(session_->SnapshotStats().unit_rows_resumes, 1u);

  // A write to an old patient's treatment or response puts that unit in
  // the cone.
  const RelationView patients =
      db_->Rows(*data_.schema->FindPredicate("Pa"));
  for (const char* attribute : {"SelfPay", "Len"}) {
    const TupleView old_patient = patients[7];
    CARL_CHECK_OK(db_->SetAttributeIds(
        *data_.schema->FindAttribute(attribute),
        Tuple(old_patient.begin(), old_patient.end()), Value(true)));
    EXPECT_EQ(AnswerAndCount(kQuery), Patients())
        << "after a write to an old " << attribute;
  }

  // A value set before its fact exists lands in the overflow map, which
  // the extend contract excludes: the session re-grounds.
  const uint64_t full_before = session_->SnapshotStats().ground_full;
  CARL_CHECK_OK(db_->SetAttribute("Age", {"not_admitted"}, Value(40.0)));
  EXPECT_EQ(AnswerAndCount(kQuery), Patients()) << "after a re-ground";
  EXPECT_EQ(session_->SnapshotStats().ground_full, full_before + 1);

  // Two admissions after the re-ground resume again.
  for (int i = 8; i < 10; ++i) AppendMimicAdmission(db_, i);
  EXPECT_EQ(AnswerAndCount(kQuery), 2u);

  // A WHERE filter bypasses the memo, however often it repeats.
  const char* filtered = "Len[P] <= SelfPay[P]? WHERE Given(D, P)";
  EXPECT_EQ(AnswerAndCount(filtered), Patients());
  EXPECT_EQ(AnswerAndCount(filtered), Patients());
}

// Two extends without an answer in between leave the rows two extends
// behind: the answer rebuilds them.
TEST_F(UnitRowsMemoTest, RowsTwoExtendsBehindRebuild) {
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  AppendMimicAdmission(db_, 0);
  Engine();  // extends
  AppendMimicAdmission(db_, 1);
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  const QuerySession::SessionStats stats = session_->SnapshotStats();
  EXPECT_EQ(stats.unit_rows_resumes, 0u);
  EXPECT_EQ(stats.unit_rows_rebuilds, 2u);
}

// What a session's own views count, by the registry name of each count.
std::vector<std::pair<const char*, uint64_t>> SessionCounts(
    const QuerySession& session) {
  const QuerySession::SessionStats stats = session.SnapshotStats();
  return {
      {"query_session.ground_hits", stats.cache_hits},
      {"query_session.ground_misses", stats.ground_full + stats.ground_extends},
      {"query_session.ground_full", stats.ground_full},
      {"query_session.ground_extends", stats.ground_extends},
      {"query_session.ground_evictions", stats.ground_evictions},
      {"query_session.unit_rows_hits", stats.unit_rows_hits},
      {"query_session.unit_rows_resumes", stats.unit_rows_resumes},
      {"query_session.unit_rows_rebuilds", stats.unit_rows_rebuilds},
  };
}

// The session counts each event once, in its counter block, and the
// registry sums the blocks: while the fixture's session is the only one
// that counts, each step moves SnapshotStats() as it moves
// query_session.*. No two counters of the block move in the same steps,
// so a count filed under another name of the block shows, and every
// counter moves in some step.
TEST_F(UnitRowsMemoTest, SessionStatsAreTheRegistryCounts) {
  Result<RelationalCausalModel> variant = RelationalCausalModel::Parse(
      *data_.schema,
      data_.model_text + "\nAVG_Dose[P] <= Dose[D] WHERE Given(D, P)\n");
  ASSERT_TRUE(variant.ok()) << variant.status();
  session_->set_max_cached_groundings(1);
  std::unique_ptr<CarlEngine> engine;
  const QueryRequest request = Request(kQuery, EmbeddingKind::kMean);
  auto answer = [&] { ASSERT_TRUE(engine->Answer(request).status.ok()); };
  auto step = [&](const char* what, auto run) {
    const auto counts_before = SessionCounts(*session_);
    const obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
    run();
    const obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
    const obs::SnapshotDelta delta(before, after);
    const auto counts_after = SessionCounts(*session_);
    for (size_t i = 0; i < counts_after.size(); ++i) {
      const char* name = counts_after[i].first;
      EXPECT_EQ(delta.CounterDelta(name),
                counts_after[i].second - counts_before[i].second)
          << name << " when " << what;
    }
  };
  step("an engine grounds", [&] { engine = Engine(); });
  step("the first answer rebuilds its rows", answer);
  step("a repeat hits", answer);
  step("an answer extends and resumes", [&] {
    AppendMimicAdmission(db_, 0);
    answer();
  });
  step("an engine extends", [&] {
    AppendMimicAdmission(db_, 1);
    Engine();
  });
  step("a variant evicts the base",
       [&] { ASSERT_TRUE(session_->Ground(*variant).ok()); });
  step("an answer re-grounds the base", answer);
  for (const auto& [name, count] : SessionCounts(*session_)) {
    EXPECT_GT(count, 0u) << name;
  }
}

// A grounding holds at most kMaxUnitRowsPerGrounding memos, oldest out
// first, and they go with their grounding; a failing request evicts none.
TEST_F(UnitRowsMemoTest, MemosAreCappedAndFreedWithTheirGrounding) {
  const char* queries[] = {"Len[P] <= SelfPay[P]?", "Death[P] <= SelfPay[P]?",
                           "Len[P] <= Severe[P]?", "Death[P] <= Severe[P]?",
                           "Len[P] <= Sex[P]?"};
  static_assert(sizeof(queries) / sizeof(queries[0]) ==
                    QuerySession::kMaxUnitRowsPerGrounding + 1,
                "one query more than the cap");
  for (const char* query : queries) {
    EXPECT_EQ(AnswerAndCount(query), Patients()) << query;
  }
  EXPECT_EQ(AnswerAndCount(queries[4]), 0u) << "the newest memo stays";
  EXPECT_EQ(AnswerAndCount(queries[1]), 0u);
  EXPECT_EQ(AnswerAndCount(queries[0]), Patients()) << "the oldest went";
  EXPECT_GT(session_->unit_rows_bytes(), 0u);

  // A request that fails to resolve keeps no memo and evicts none.
  const QueryResponse failed =
      Engine()->Answer(Request("Len[P] <= Age[P]?", EmbeddingKind::kMean));
  EXPECT_EQ(failed.status.code(), StatusCode::kInvalidArgument)
      << failed.status;
  EXPECT_EQ(AnswerAndCount(queries[2]), 0u) << "the oldest stayed";

  // Evicting the grounding frees its memos.
  session_->set_max_cached_groundings(1);
  Result<RelationalCausalModel> other = RelationalCausalModel::Parse(
      *data_.schema, "Len[P] <= SelfPay[P] WHERE Pa(P)");
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_TRUE(session_->Ground(*other).ok());
  EXPECT_EQ(session_->unit_rows_bytes(), 0u);
}

// Several threads answer on one session right after an extend. The first
// to take the memo resumes its rows; the others wait and hit, appending
// to their embedding's table or reading it. Every answer equals a fresh
// engine's.
TEST_F(UnitRowsMemoTest, ConcurrentAnswersWhileOneResumes) {
  const EmbeddingKind embeddings[] = {
      EmbeddingKind::kMean, EmbeddingKind::kMedian, EmbeddingKind::kMoments,
      EmbeddingKind::kPadding};
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  for (int i = 0; i < 8; ++i) AppendMimicAdmission(db_, i);
  std::vector<std::string> want;
  for (EmbeddingKind kind : embeddings) {
    want.push_back(FreshAnswer(Request(kQuery, kind)));
  }
  const QuerySession::SessionStats before = session_->SnapshotStats();
  std::unique_ptr<CarlEngine> engine = Engine();  // extends

  constexpr int kThreads = 4;
  constexpr int kAnswers = 3;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int a = 0; a < kAnswers; ++a) {
        got[t].push_back(DescribeResponse(
            engine->Answer(Request(kQuery, embeddings[(t + a) % 4]))));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int a = 0; a < kAnswers; ++a) {
      EXPECT_EQ(got[t][a], want[(t + a) % 4])
          << "thread " << t << " answer " << a;
    }
  }
  const QuerySession::SessionStats after = session_->SnapshotStats();
  EXPECT_EQ(after.unit_rows_resumes - before.unit_rows_resumes, 1u);
  EXPECT_EQ(after.unit_rows_rebuilds - before.unit_rows_rebuilds, 0u);
  EXPECT_EQ(after.unit_rows_hits - before.unit_rows_hits,
            static_cast<uint64_t>(kThreads * kAnswers - 1));
}

// A table an answer holds across a mutation stays as it was: the resume
// after the extend appends to a copy, never to the held table.
TEST_F(UnitRowsMemoTest, TableHeldAcrossAMutationNeverChanges) {
  Result<CausalQuery> query = ParseQuery(kQuery);
  ASSERT_TRUE(query.ok()) << query.status();
  Result<CarlEngine::ResolvedQuery> resolved =
      Engine()->Resolve(*query, EngineOptions());
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  Result<std::shared_ptr<const UnitTable>> held = session_->BuildUnitTable(
      *resolved->grounded, resolved->request, resolved->unit_options);
  ASSERT_TRUE(held.ok()) << held.status();
  const UnitTable snapshot = **held;
  ASSERT_EQ(snapshot.sums.rows, Patients());

  for (int i = 0; i < 8; ++i) AppendMimicAdmission(db_, i);
  EXPECT_EQ(AnswerAndCount(kQuery), 8u) << "the answer resumed";
  EXPECT_EQ(test_fixtures::UnitTableDiff(snapshot, **held), "");
  EXPECT_EQ((*held)->sums.rows, snapshot.sums.rows);
  EXPECT_EQ((*held)->sums.xtx, snapshot.sums.xtx);
  EXPECT_EQ((*held)->sums.xty, snapshot.sums.xty);
}

// Four threads hit the memo at once, all handed its one table, and keep
// reading it while the main thread appends admissions, extends and
// answers, which appends to the table's copy. A TSan CI leg target: the
// hits share the table, and the append must not write what they read.
TEST_F(UnitRowsMemoTest, ReadersHoldTheSharedTableWhileOneAppends) {
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  Result<CausalQuery> query = ParseQuery(kQuery);
  ASSERT_TRUE(query.ok()) << query.status();
  std::unique_ptr<CarlEngine> engine = Engine();
  Result<CarlEngine::ResolvedQuery> resolved =
      engine->Resolve(*query, EngineOptions());
  ASSERT_TRUE(resolved.ok()) << resolved.status();

  // Every column's bits and the sums folded into one number.
  auto checksum = [](const UnitTable& table) {
    uint64_t h = table.sums.rows;
    auto fold = [&h](double v) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = h * 0x100000001b3ull ^ bits;
    };
    for (size_t c = 0; c < table.data.num_cols(); ++c) {
      for (double v : table.data.Column(c)) fold(v);
    }
    for (double v : table.sums.xtx) fold(v);
    return h;
  };
  constexpr int kReaders = 4;
  constexpr int kHits = 3;
  std::vector<std::shared_ptr<const UnitTable>> held(kReaders);
  std::vector<uint64_t> want(kReaders, 0);
  std::vector<int> mismatches(kReaders, 0);
  std::atomic<int> holding{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int h = 0; h < kHits; ++h) {
        Result<std::shared_ptr<const UnitTable>> hit =
            session_->BuildUnitTable(*resolved->grounded, resolved->request,
                                     resolved->unit_options);
        CARL_CHECK_OK(hit.status());
        held[r] = std::move(*hit);
      }
      want[r] = checksum(*held[r]);
      holding.fetch_add(1, std::memory_order_release);
      do {
        if (checksum(*held[r]) != want[r]) ++mismatches[r];
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (holding.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 8; ++i) AppendMimicAdmission(db_, i);
  const uint64_t resumes = session_->SnapshotStats().unit_rows_resumes;
  EXPECT_EQ(AnswerAndCount(kQuery), 8u);
  EXPECT_EQ(session_->SnapshotStats().unit_rows_resumes, resumes + 1);
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(held[r].get(), held[0].get()) << "reader " << r;
    EXPECT_EQ(want[r], want[0]) << "reader " << r;
    EXPECT_EQ(mismatches[r], 0) << "reader " << r;
  }
}

// A toy model in which one appended unit can trigger each re-embed: a
// unit's treatment T has the parents A and B of the unit and C of every
// source feeding it, and its response Y has T of the unit and of every
// unit linked to it (its peers).
class ReembedTriggerTest : public ::testing::Test {
 protected:
  static constexpr int kUnits = 10;

  ReembedTriggerTest() {
    CARL_CHECK_OK(schema_.AddEntity("Unit").status());
    CARL_CHECK_OK(schema_.AddEntity("Source").status());
    CARL_CHECK_OK(
        schema_.AddRelationship("Feeds", {"Source", "Unit"}).status());
    CARL_CHECK_OK(schema_.AddRelationship("Link", {"Unit", "Unit"}).status());
    for (const char* name : {"A", "B", "Y"}) {
      CARL_CHECK_OK(
          schema_.AddAttribute(name, "Unit", true, ValueType::kDouble)
              .status());
    }
    CARL_CHECK_OK(
        schema_.AddAttribute("T", "Unit", true, ValueType::kBool).status());
    CARL_CHECK_OK(
        schema_.AddAttribute("C", "Source", true, ValueType::kDouble)
            .status());
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(schema_, R"(
      T[X] <= A[X], B[X] WHERE Unit(X)
      T[X] <= C[S] WHERE Feeds(S, X)
      Y[X] <= T[X] WHERE Unit(X)
      Y[X] <= T[Z] WHERE Link(Z, X)
    )");
    CARL_CHECK_OK(model.status());
    model_ = std::make_unique<RelationalCausalModel>(std::move(*model));
    db_ = std::make_unique<Instance>(&schema_);
    for (int i = 0; i < kUnits; ++i) AddUnit(i, /*sources=*/1);
    session_ = std::make_shared<QuerySession>(db_.get());
  }

  // Unit u<id> with A, T and Y, fed by `sources` new sources.
  void AddUnit(int id, int sources) {
    const std::string unit = "u" + std::to_string(id);
    CARL_CHECK_OK(db_->AddFact("Unit", {unit}));
    CARL_CHECK_OK(db_->SetAttribute("A", {unit}, Value(0.5 * id)));
    CARL_CHECK_OK(db_->SetAttribute("T", {unit}, Value(id % 2 == 0)));
    CARL_CHECK_OK(db_->SetAttribute(
        "Y", {unit}, Value(10.0 + id + (id % 2 == 0 ? 3.0 : 0.0) +
                           0.25 * (id % 3))));
    for (int k = 0; k < sources; ++k) {
      const std::string source = unit + "_s" + std::to_string(k);
      CARL_CHECK_OK(db_->AddFact("Source", {source}));
      CARL_CHECK_OK(db_->SetAttribute("C", {source}, Value(id + 0.1 * k)));
      CARL_CHECK_OK(db_->AddFact("Feeds", {source, unit}));
    }
  }

  // Answers `Y[X] <= T[X]?` under `kind` through the shared session and
  // returns the rows its table embedded; the table must equal the memo-
  // free one and the answer a fresh engine's.
  uint64_t RowsEmbeddedBy(EmbeddingKind kind) {
    SCOPED_TRACE(EmbeddingKindToString(kind));
    Result<CausalQuery> query = ParseQuery("Y[X] <= T[X]?");
    CARL_CHECK_OK(query.status());
    EngineOptions options;
    options.embedding = kind;
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(session_, *model_);
    CARL_CHECK_OK(engine.status());
    Result<CarlEngine::ResolvedQuery> resolved =
        (*engine)->Resolve(*query, options);
    CARL_CHECK_OK(resolved.status());
    const uint64_t before = RowsEmbedded();
    Result<std::shared_ptr<const UnitTable>> got = session_->BuildUnitTable(
        *resolved->grounded, resolved->request, resolved->unit_options);
    const uint64_t embedded = RowsEmbedded() - before;
    Result<UnitTable> want = BuildUnitTable(
        *resolved->grounded, resolved->request, resolved->unit_options);
    EXPECT_TRUE(got.ok() && want.ok()) << got.status() << want.status();
    if (got.ok() && want.ok()) {
      EXPECT_EQ(test_fixtures::UnitTableDiff(*want, **got), "");
    }
    QueryRequest request(*query);
    request.options = options;
    Result<std::unique_ptr<CarlEngine>> fresh =
        CarlEngine::Create(db_.get(), *model_);
    CARL_CHECK_OK(fresh.status());
    EXPECT_EQ(DescribeResponse((*engine)->Answer(request)),
              DescribeResponse((*fresh)->Answer(request)));
    return embedded;
  }

  // Rows each embedding's table embeds: {mean, padding}.
  std::pair<uint64_t, uint64_t> RowsEmbeddedByBoth() {
    const uint64_t mean = RowsEmbeddedBy(EmbeddingKind::kMean);
    return {mean, RowsEmbeddedBy(EmbeddingKind::kPadding)};
  }

  Schema schema_;
  std::unique_ptr<RelationalCausalModel> model_;
  std::unique_ptr<Instance> db_;
  std::shared_ptr<QuerySession> session_;
};

TEST_F(ReembedTriggerTest, AnAppendReembedsOnlyWhenTheColumnsChange) {
  using Rows = std::pair<uint64_t, uint64_t>;
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(10, 10)) << "fresh tables";
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(0, 0)) << "a repeat";

  AddUnit(10, 1);
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(1, 1)) << "a plain new unit appends";

  AddUnit(11, 1);
  CARL_CHECK_OK(db_->SetAttribute("B", {"u11"}, Value(2.0)));
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(12, 12))
      << "own_B is first seen in a resumed row";

  AddUnit(12, 1);
  CARL_CHECK_OK(db_->AddFact("Link", {"u0", "u12"}));
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(13, 13))
      << "the table turns relational";

  AddUnit(13, 2);
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(1, 14))
      << "two sources widen own_C: padding re-embeds, the mean appends";
  EXPECT_EQ(RowsEmbeddedByBoth(), Rows(0, 0));
  EXPECT_EQ(session_->SnapshotStats().unit_rows_rebuilds, 1u)
      << "the rows resolved from row 0 once; every later answer resumed "
         "them or hit";
}

}  // namespace
}  // namespace carl
