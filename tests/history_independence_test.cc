// History independence: an answer depends only on the instance, program,
// query and options — never on which queries the same engine answered
// before. Queries that derive a §4.3 aggregate are the risk: the derived
// rule belongs to its query, so two queries that unify the same response
// along different relational paths (Score over Author vs over Submitted)
// must not see each other's rule.
//
// The differential: one engine answers every ordered pair of the query
// pool and seeded random sequences of it; a fresh engine over a private
// session answers each query alone. The two must agree bit for bit —
// estimates, bootstrap samples, naive contrast, unit counts, response
// attribute, criterion_ok — or fail with the same status code and
// message. Runs at one and four threads. A concurrent leg has four
// threads answer their own seeded sequences on one shared engine and
// session at the same time, against the same fresh-engine answers.
//
// An answer also depends only on the instance as it is when asked, not as
// it was when the engine was created: an engine that answered before
// admissions were appended answers afterwards like a fresh engine, after
// another engine extended the shared session's grounding or without
// that, for a plain, a derived, a WHERE-filtered and a PEERS query.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "fixtures.h"

namespace carl {
namespace {

using test_fixtures::DescribeResponse;
using test_fixtures::ScopedThreads;

const std::vector<std::string>& QueryPool() {
  static const std::vector<std::string> pool = {
      "AVG_Score[A] <= Prestige[A]?",
      // The same response unified along two relational paths.
      "Score[S] <= Prestige[A]?",
      "Score[S] <= Blind[C]?",
      // The same AGG_<base> shorthand name along two paths.
      "MAX_Score[A] <= Prestige[A]?",
      "MAX_Score[C] <= Blind[C]?",
      "Score[S] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED",
      "Quality[S] <= Blind[C]?",
      "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = FALSE",
      "Ghost[A] <= Prestige[A]?",
      "Score[S] <= Prestige[A",
  };
  return pool;
}

EngineOptions PoolOptions() {
  EngineOptions options;
  options.bootstrap_replicates = 4;
  options.check_criterion = true;
  return options;
}

struct Pool {
  const char* name;
  datagen::Dataset dataset;
};

class HistoryIndependenceTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    pools_ = new std::vector<Pool>();
    pools_->push_back({"toy", test_fixtures::ReviewToyDataset()});
    pools_->push_back({"review", test_fixtures::RealisticReviewDataset()});
  }
  static void TearDownTestSuite() {
    delete pools_;
    pools_ = nullptr;
  }

  static std::unique_ptr<CarlEngine> MakeEngine(
      const datagen::Dataset& data, std::shared_ptr<QuerySession> session) {
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data.schema, data.model_text);
    CARL_CHECK_OK(model.status());
    Result<std::unique_ptr<CarlEngine>> engine =
        session == nullptr
            ? CarlEngine::Create(data.instance.get(), std::move(*model))
            : CarlEngine::Create(std::move(session), std::move(*model));
    CARL_CHECK_OK(engine.status());
    return std::move(*engine);
  }

  static QueryResponse Ask(const CarlEngine& engine, const std::string& text) {
    QueryRequest request(text);
    request.options = PoolOptions();
    return engine.Answer(request);
  }

  // Each pool query answered alone by a fresh engine over a private
  // session. The differential is only as strong as these answers: on
  // REVIEW every path-sharing query (the first six) must answer.
  static std::vector<std::string> FreshAnswers(const Pool& pool) {
    std::vector<std::string> fresh;
    for (const std::string& query : QueryPool()) {
      std::unique_ptr<CarlEngine> engine = MakeEngine(pool.dataset, nullptr);
      fresh.push_back(DescribeResponse(Ask(*engine, query)));
      if (std::string(pool.name) == "review" && fresh.size() <= 6) {
        EXPECT_NE(fresh.back().rfind("error", 0), 0u)
            << query << ": " << fresh.back();
      }
    }
    return fresh;
  }

  static std::vector<Pool>* pools_;
};

std::vector<Pool>* HistoryIndependenceTest::pools_ = nullptr;

TEST_P(HistoryIndependenceTest, EveryOrderedPairMatchesFreshEngines) {
  ScopedThreads threads(GetParam());
  const std::vector<std::string>& queries = QueryPool();
  for (const Pool& pool : *pools_) {
    std::vector<std::string> fresh = FreshAnswers(pool);
    // One session for every pair engine: the engines share groundings,
    // never derived rules.
    auto session =
        std::make_shared<QuerySession>(pool.dataset.instance.get());
    for (size_t first = 0; first < queries.size(); ++first) {
      for (size_t second = 0; second < queries.size(); ++second) {
        if (first == second) continue;
        std::unique_ptr<CarlEngine> engine =
            MakeEngine(pool.dataset, session);
        EXPECT_EQ(DescribeResponse(Ask(*engine, queries[first])), fresh[first])
            << pool.name << ": " << queries[first] << " (first)";
        EXPECT_EQ(DescribeResponse(Ask(*engine, queries[second])),
                  fresh[second])
            << pool.name << ": " << queries[second] << " after "
            << queries[first];
      }
    }
  }
}

TEST_P(HistoryIndependenceTest, RandomSequencesMatchFreshEngines) {
  ScopedThreads threads(GetParam());
  constexpr int kSequences = 6;
  constexpr int kLength = 16;
  const std::vector<std::string>& queries = QueryPool();
  for (const Pool& pool : *pools_) {
    std::vector<std::string> fresh = FreshAnswers(pool);
    for (int seq = 0; seq < kSequences; ++seq) {
      Rng rng(0x415e0000u + static_cast<uint64_t>(seq));
      std::unique_ptr<CarlEngine> engine = MakeEngine(pool.dataset, nullptr);
      std::string history;
      for (int step = 0; step < kLength; ++step) {
        size_t q = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
        EXPECT_EQ(DescribeResponse(Ask(*engine, queries[q])), fresh[q])
            << pool.name << " sequence " << seq << ": " << queries[q]
            << " after [" << history << "]";
        history += queries[q] + "; ";
      }
    }
  }
}

TEST_P(HistoryIndependenceTest, ConcurrentSequencesOnOneEngineMatchFresh) {
  ScopedThreads threads(GetParam());
  constexpr int kCallers = 4;
  constexpr int kLength = 12;
  const std::vector<std::string>& queries = QueryPool();
  for (const Pool& pool : *pools_) {
    const std::vector<std::string> fresh = FreshAnswers(pool);
    auto session =
        std::make_shared<QuerySession>(pool.dataset.instance.get());
    const std::unique_ptr<CarlEngine> engine =
        MakeEngine(pool.dataset, session);
    // Each caller collects its mismatches; they are reported after join.
    std::vector<std::vector<std::string>> mismatches(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Rng rng(0x5e550000u + static_cast<uint64_t>(c));
        for (int step = 0; step < kLength; ++step) {
          size_t q = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
          std::string got = DescribeResponse(Ask(*engine, queries[q]));
          if (got != fresh[q]) {
            mismatches[c].push_back(queries[q] + " at step " +
                                    std::to_string(step) + ": " + got +
                                    "\n  fresh: " + fresh[q]);
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (int c = 0; c < kCallers; ++c) {
      for (const std::string& m : mismatches[c]) {
        ADD_FAILURE() << pool.name << " caller " << c << ": " << m;
      }
    }
  }
}

// Appends one co-authored paper to a REVIEW instance: two new authors,
// one prestigious, and their scored paper at conf0. The two are each
// other's peers, so a peer-effect query keeps both.
void AppendCoauthoredPaper(Instance* db, int id) {
  const std::string paper = "hp" + std::to_string(id);
  CARL_CHECK_OK(db->AddFact("Submission", {paper}));
  CARL_CHECK_OK(db->SetAttribute("Score", {paper}, Value(3.0 + id)));
  CARL_CHECK_OK(db->AddFact("Submitted", {paper, "conf0"}));
  for (int k = 0; k < 2; ++k) {
    const std::string author = "ha" + std::to_string(2 * id + k);
    CARL_CHECK_OK(db->AddFact("Person", {author}));
    CARL_CHECK_OK(db->SetAttribute("Qualification", {author}, Value(0.5 * k)));
    CARL_CHECK_OK(db->SetAttribute("Prestige", {author}, Value(k == 1)));
    CARL_CHECK_OK(db->AddFact("Author", {author, paper}));
  }
}

// Engine A answers; eight admissions (MIMIC) or co-authored papers
// (REVIEW, whose co-authors are peers) are appended; engine B is created
// over the same session, which extends the grounding and carries the
// unit-row memos onto it, or not; A answers again. Each of A's answers
// must equal a fresh engine's over a private session, for a plain, a
// derived, a WHERE-filtered and a PEERS query.
TEST_P(HistoryIndependenceTest, EngineAnswersTheInstanceAsItIsNow) {
  ScopedThreads threads(GetParam());
  struct Case {
    const char* query;
    bool review;
  };
  const Case cases[] = {
      {"Len[P] <= SelfPay[P]?", false},
      {"Dose[D] <= SelfPay[P]?", false},
      {"Len[P] <= SelfPay[P]? WHERE Given(D, P)", false},
      {"Score[S] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED", true},
  };
  for (const Case& c : cases) {
    for (bool second_engine : {true, false}) {
      SCOPED_TRACE(std::string(c.query) +
                   (second_engine ? " with" : " without") +
                   " a second engine");
      datagen::Dataset data = c.review
                                  ? test_fixtures::RealisticReviewDataset()
                                  : test_fixtures::MiniMimicDataset(1500, 60);
      Instance* db = data.instance.get();
      auto session = std::make_shared<QuerySession>(db);
      const std::unique_ptr<CarlEngine> a = MakeEngine(data, session);
      const std::string before = DescribeResponse(Ask(*a, c.query));
      EXPECT_EQ(before,
                DescribeResponse(Ask(*MakeEngine(data, nullptr), c.query)));
      EXPECT_NE(before.rfind("error", 0), 0u) << before;
      for (int i = 0; i < 8; ++i) {
        if (c.review) {
          AppendCoauthoredPaper(db, i);
        } else {
          test_fixtures::AppendMimicAdmission(db, i);
        }
      }
      if (second_engine) MakeEngine(data, session);
      const std::string after = DescribeResponse(Ask(*a, c.query));
      EXPECT_EQ(after,
                DescribeResponse(Ask(*MakeEngine(data, nullptr), c.query)));
      EXPECT_NE(after, before) << "the appends changed no answer";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, HistoryIndependenceTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace carl
