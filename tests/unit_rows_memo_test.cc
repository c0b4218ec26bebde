// The session's unit-row memo (query_session.h): what an answer resolves
// on a hit, after an append-only extend, after a write into an old unit's
// cone, after a full re-ground and for a WHERE-filtered query — counted
// exactly by unit_table.rows_resolved — plus the per-grounding cap, the
// memo's memory accounting, and several threads answering on one session
// while one answer resumes past an extend (a TSan CI leg target). Every
// answer is bit-compared with a fresh engine's over a private session.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"

namespace carl {
namespace {

using test_fixtures::DescribeResponse;

constexpr char kQuery[] = "Len[P] <= SelfPay[P]?";

uint64_t RowsResolved() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("unit_table.rows_resolved");
  return counter.value();
}

// One admission in the MIMIC generator's shape: a patient with every
// attribute, one prescription, and the Care/Drug/Given facts tying both
// to caregiver c0. It adds one unit row and reaches no other patient.
void AppendAdmission(Instance* db, int id) {
  const std::string pat = "mp" + std::to_string(id);
  const std::string rx = pat + "_rx";
  CARL_CHECK_OK(db->AddFact("Pa", {pat}));
  CARL_CHECK_OK(db->SetAttribute("Eth", {pat}, Value(2.0)));
  CARL_CHECK_OK(db->SetAttribute("Religion", {pat}, Value(1.0)));
  CARL_CHECK_OK(db->SetAttribute("Sex", {pat}, Value(id % 2 == 0)));
  CARL_CHECK_OK(db->SetAttribute("Age", {pat}, Value(50.0 + id)));
  CARL_CHECK_OK(db->SetAttribute("Diag", {pat}, Value(0.5)));
  CARL_CHECK_OK(db->SetAttribute("SelfPay", {pat}, Value(id % 3 == 0)));
  CARL_CHECK_OK(db->SetAttribute("Severe", {pat}, Value(id % 2 == 1)));
  CARL_CHECK_OK(db->SetAttribute("Len", {pat}, Value(150.0 + 7.0 * id)));
  CARL_CHECK_OK(db->SetAttribute("Death", {pat}, Value(false)));
  CARL_CHECK_OK(db->AddFact("Prescription", {rx}));
  CARL_CHECK_OK(db->SetAttribute("Dose", {rx}, Value(1.25)));
  CARL_CHECK_OK(db->AddFact("Care", {"c0", pat}));
  CARL_CHECK_OK(db->AddFact("Drug", {"c0", rx}));
  CARL_CHECK_OK(db->AddFact("Given", {rx, pat}));
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
  for (int i = 0; i < 8; ++i) AppendAdmission(db_, i);
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
  for (int i = 8; i < 10; ++i) AppendAdmission(db_, i);
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
  AppendAdmission(db_, 0);
  Engine();  // extends
  AppendAdmission(db_, 1);
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  const QuerySession::SessionStats stats = session_->SnapshotStats();
  EXPECT_EQ(stats.unit_rows_resumes, 0u);
  EXPECT_EQ(stats.unit_rows_rebuilds, 2u);
}

// A grounding holds at most kMaxUnitRowsPerGrounding memos, oldest out
// first, and they go with their grounding.
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

  // Evicting the grounding frees its memos.
  session_->set_max_cached_groundings(1);
  Result<RelationalCausalModel> other = RelationalCausalModel::Parse(
      *data_.schema, "Len[P] <= SelfPay[P] WHERE Pa(P)");
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_TRUE(session_->Ground(*other).ok());
  EXPECT_EQ(session_->unit_rows_bytes(), 0u);
}

// Several threads answer on one session right after an extend. The first
// to look takes the rows and resumes them; the others rebuild while the
// rows are out or hit once they are back. Every answer equals a fresh
// engine's.
TEST_F(UnitRowsMemoTest, ConcurrentAnswersWhileOneResumes) {
  const EmbeddingKind embeddings[] = {
      EmbeddingKind::kMean, EmbeddingKind::kMedian, EmbeddingKind::kMoments,
      EmbeddingKind::kPadding};
  EXPECT_EQ(AnswerAndCount(kQuery), Patients());
  for (int i = 0; i < 8; ++i) AppendAdmission(db_, i);
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
  EXPECT_EQ((after.unit_rows_hits - before.unit_rows_hits) +
                (after.unit_rows_rebuilds - before.unit_rows_rebuilds),
            static_cast<uint64_t>(kThreads * kAnswers - 1));
}

}  // namespace
}  // namespace carl
