// Differential delta-fuzz harness for incremental grounding: seeded
// random mutation sequences (fact inserts with a mix of existing and
// fresh constants, attribute set/overwrite, interleaved QuerySession
// queries) run against the REVIEW / MIMIC / NIS mini-instances, and
// after EVERY step the incrementally-extended graph must equal a
// from-scratch ground of the current instance state — canonically (node,
// edge, and value sets; raw ids and edge order are not part of the
// extend contract) — at CARL_THREADS 1 and 4, with the two extend chains
// bit-identical to each other. After every step the session's unit-row
// memo must also give the memo-free unit table of the same grounding bit
// for bit, through hits, resumes, rebuilds and table appends under every
// embedding, and the estimates read from its sums must equal those summed
// from row 0. Also pins down the QuerySession delta policy (hit /
// extend / full re-ground counters), that a ground or an extend
// enumerates each distinct rule condition once, and every documented
// fallback out of the extend contract: overflow writes,
// constraint-attribute writes, rule-named constants interned inside the
// window, and a trimmed delta log. A second seeded differential appends
// facts until an extend closes a cycle, which the extend's cone-local
// check must report exactly when a from-scratch ground does; a session
// test pins down that such a failure never leaves a consumed grounding in
// the session cache. The concurrent-reader test races plain adjacency
// reads after a post-build AddEdges and is a TSan CI leg target.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "carl/carl.h"
#include "fixtures.h"
#include "obs/metrics.h"

namespace carl {
namespace {

using test_fixtures::Canonicalize;
using test_fixtures::CanonicalGraph;
using test_fixtures::GraphFingerprint;
using test_fixtures::MiniMimicDataset;
using test_fixtures::MiniNisDataset;
using test_fixtures::ReviewToyDataset;
using test_fixtures::ScopedThreads;

// ---------------------------------------------------------------------------
// Seeded mutation driver. Schema-generic: samples predicates and
// attributes from the instance's schema, reusing existing constants most
// of the time and interning fresh ones ("fz<N>", never rule-named) for
// the rest, so the same driver fuzzes REVIEW, MIMIC, and NIS. Attributes
// referenced by rule-condition constraints are written rarely — such
// writes are outside the extend contract and only exercise the fallback.
// ---------------------------------------------------------------------------
class DeltaFuzzer {
 public:
  DeltaFuzzer(Instance* db, const RelationalCausalModel& model, uint64_t seed)
      : db_(db), rng_(seed) {
    const Schema& schema = db->schema();
    for (const Predicate& pred : schema.predicates()) {
      by_name_[pred.name] = pred.id;
    }
    for (const CausalRule& rule : model.rules()) {
      for (const AttributeConstraint& c : rule.where.constraints) {
        constraint_attrs_.insert(c.attribute);
      }
    }
    for (const AggregateRule& rule : model.aggregate_rules()) {
      for (const AttributeConstraint& c : rule.where.constraints) {
        constraint_attrs_.insert(c.attribute);
      }
    }
  }

  // Appends one fresh row to each entity predicate, every attribute but
  // the constraint-referenced ones valued 0 or 1, and no relationship
  // fact: new unit rows whose extend cone holds only their own nodes.
  // Draws nothing from the seeded stream, so Step() stays as it was.
  void AppendFreshEntities() {
    const Schema& schema = db_->schema();
    for (const Predicate& pred : schema.predicates()) {
      if (pred.kind != PredicateKind::kEntity) continue;
      const std::string name = "fu" + std::to_string(fresh_entities_++);
      CARL_CHECK_OK(db_->AddFact(pred.name, {name}));
      for (const AttributeDef& attr : schema.attributes()) {
        if (attr.predicate != pred.id || constraint_attrs_.count(attr.name)) {
          continue;
        }
        const bool bit = fresh_entities_ % 2 == 0;
        Value value(bit ? 1.0 : 0.0);
        if (attr.type == ValueType::kBool) value = Value(bit);
        if (attr.type == ValueType::kString) value = Value("sv0");
        CARL_CHECK_OK(db_->SetAttribute(attr.name, {name}, value));
      }
    }
  }

  // Applies one batch of 1-4 random mutations.
  void Step() {
    size_t n = 1 + rng_() % 4;
    for (size_t i = 0; i < n; ++i) {
      if (rng_() % 10 < 6) {
        AddRandomFact();
      } else {
        WriteRandomAttribute();
      }
    }
  }

 private:
  // A constant for an argument position ranging over `entity`: mostly an
  // existing row of that entity, sometimes a fresh interned name.
  std::string PickConstant(const std::string& entity) {
    auto it = by_name_.find(entity);
    const RelationView rows =
        it == by_name_.end() ? RelationView() : db_->Rows(it->second);
    if (rows.empty() || rng_() % 4 == 0) {
      return "fz" + std::to_string(fresh_counter_++);
    }
    return db_->ConstantName(rows[rng_() % rows.size()][0]);
  }

  void AddRandomFact() {
    const Schema& schema = db_->schema();
    const Predicate& pred =
        schema.predicates()[rng_() % schema.predicates().size()];
    std::vector<std::string> args;
    for (const std::string& entity : pred.arg_entities) {
      args.push_back(PickConstant(entity));
    }
    CARL_CHECK_OK(db_->AddFact(pred.name, args));
    // Usually give the new fact its attribute values (fresh entity rows
    // referenced by relationship args keep missing values — the value
    // pass must handle both).
    for (const AttributeDef& attr : schema.attributes()) {
      if (attr.predicate != pred.id || rng_() % 10 >= 7) continue;
      if (constraint_attrs_.count(attr.name) && rng_() % 10 != 0) continue;
      CARL_CHECK_OK(db_->SetAttribute(attr.name, args, RandomValue(attr)));
    }
  }

  void WriteRandomAttribute() {
    const Schema& schema = db_->schema();
    const AttributeDef& attr =
        schema.attributes()[rng_() % schema.attributes().size()];
    if (constraint_attrs_.count(attr.name) && rng_() % 10 != 0) return;
    const RelationView rows = db_->Rows(attr.predicate);
    if (rows.empty()) return;
    TupleView row = rows[rng_() % rows.size()];
    CARL_CHECK_OK(db_->SetAttributeIds(
        attr.id, Tuple(row.begin(), row.end()), RandomValue(attr)));
  }

  Value RandomValue(const AttributeDef& attr) {
    switch (attr.type) {
      case ValueType::kBool:
        return Value(rng_() % 2 == 0);
      case ValueType::kInt:
        return Value(static_cast<int>(rng_() % 100));
      case ValueType::kString:
        return Value("sv" + std::to_string(rng_() % 16));
      default:
        return Value(static_cast<double>(rng_() % 1000) / 8.0);
    }
  }

  Instance* db_;
  std::mt19937_64 rng_;
  std::unordered_map<std::string, PredicateId> by_name_;
  std::unordered_set<std::string> constraint_attrs_;
  size_t fresh_counter_ = 0;
  size_t fresh_entities_ = 0;
};

const EmbeddingKind kEmbeddings[] = {EmbeddingKind::kMean,
                                     EmbeddingKind::kMedian,
                                     EmbeddingKind::kMoments,
                                     EmbeddingKind::kPadding};

// What an answer reads off a unit table, as bits: the naive contrast and
// the regression point estimate — the ATE, or AIE/ARE/AOE/AIE-ψ under
// `condition` — read from `sums` when set, else summed from row 0; or the
// status that failed.
std::string EstimatesOf(const UnitTable& table,
                        const std::optional<PeerCondition>& condition,
                        const OlsSums* sums) {
  std::string out;
  auto bits = [&out](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    out += std::to_string(b) + " ";
  };
  Result<NaiveContrast> naive = ComputeNaiveContrast(table, table.data);
  if (!naive.ok()) return naive.status().ToString();
  for (double v : {naive->treated_mean, naive->control_mean,
                   naive->difference, naive->correlation}) {
    bits(v);
  }
  out += std::to_string(naive->n_treated) + "/" +
         std::to_string(naive->n_control) + " ";
  if (condition.has_value()) {
    Result<RelationalEffects> e = EstimateRelationalEffects(
        table, table.data, *condition, EstimatorKind::kRegression, sums);
    if (!e.ok()) return out + e.status().ToString();
    for (double v : {e->aie, e->are, e->aoe, e->aie_psi}) bits(v);
  } else {
    Result<double> ate =
        EstimateAte(table, table.data, EstimatorKind::kRegression, sums);
    if (!ate.ok()) return out + ate.status().ToString();
    bits(*ate);
  }
  return out;
}

uint64_t RowsEmbedded() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("unit_table.rows_embedded");
  return counter.value();
}

// Every unit table the session's memo gives for `queries` — each with
// include_isolated_units off and on, under every embedding — must equal
// the memo-free BuildUnitTable on the same grounding bit for bit, or
// fail with the same status, and so must what an answer reads off it:
// the estimates from the memo's sums against those summed from row 0 on
// the memo-free table. Per request, the first table resumes or rebuilds
// the memo and appends to or embeds the first kind's table; the other
// kinds append the rows that table lacks, and the rest hit. `appends`
// counts, per embedding kind, the tables that appended rows to a
// non-empty table.
void ExpectMemoTablesMatchFresh(const std::shared_ptr<QuerySession>& session,
                                const RelationalCausalModel& model,
                                const std::vector<const char*>& queries,
                                size_t appends[4]) {
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(session, model);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const char* text : queries) {
    Result<CausalQuery> query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status();
    for (bool isolated : {false, true}) {
      EngineOptions options;
      options.include_isolated_units = isolated;
      Result<CarlEngine::ResolvedQuery> resolved =
          (*engine)->Resolve(*query, options);
      ASSERT_TRUE(resolved.ok()) << resolved.status();
      for (EmbeddingKind kind : kEmbeddings) {
        SCOPED_TRACE(std::string(text) + " isolated=" +
                     std::to_string(isolated) + " embedding=" +
                     EmbeddingKindToString(kind));
        UnitTableOptions unit_options = resolved->unit_options;
        unit_options.embedding = kind;
        const uint64_t embedded_before = RowsEmbedded();
        Result<std::shared_ptr<const UnitTable>> got = session->BuildUnitTable(
            *resolved->grounded, resolved->request, unit_options);
        const uint64_t embedded = RowsEmbedded() - embedded_before;
        Result<UnitTable> want = BuildUnitTable(
            *resolved->grounded, resolved->request, unit_options);
        ASSERT_EQ(got.ok(), want.ok())
            << got.status() << " vs " << want.status();
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          continue;
        }
        const UnitTable& table = **got;
        EXPECT_EQ(test_fixtures::UnitTableDiff(*want, table), "");
        ASSERT_EQ(table.sums.rows, table.data.num_rows());
        EXPECT_EQ(EstimatesOf(table, query->peer_condition, &table.sums),
                  EstimatesOf(*want, query->peer_condition, nullptr));
        if (embedded > 0 && embedded < table.data.num_rows()) {
          ++appends[static_cast<size_t>(kind)];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The differential harness: two extend chains (one per thread count) and
// an interleaved QuerySession, all checked against a from-scratch ground
// after every mutation batch. After every batch the session also answers
// `queries` through its unit-row memo (ExpectMemoTablesMatchFresh), and
// the stream must reach a memo hit, a resume and a rebuild and, with
// `expect_appends`, a table append under every embedding. `steps` counts
// the random mutation batches; a batch of fresh entities follows each.
// ---------------------------------------------------------------------------
void RunDeltaFuzz(datagen::Dataset dataset, const char* name, uint64_t seed,
                  int steps, const std::vector<const char*>& queries,
                  bool expect_appends) {
  SCOPED_TRACE(name);
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*dataset.schema, dataset.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  Instance& db = *dataset.instance;

  std::optional<GroundedModel> inc1, inc4;
  {
    ScopedThreads scoped(1);
    Result<GroundedModel> g = GroundModel(db, *model);
    ASSERT_TRUE(g.ok()) << g.status();
    inc1.emplace(std::move(*g));
  }
  {
    ScopedThreads scoped(4);
    Result<GroundedModel> g = GroundModel(db, *model);
    ASSERT_TRUE(g.ok()) << g.status();
    inc4.emplace(std::move(*g));
  }
  auto session = std::make_shared<QuerySession>(&db);

  uint64_t base_gen = db.generation();
  DeltaFuzzer fuzzer(&db, *model, seed);
  size_t extends = 0;
  size_t appends[4] = {0, 0, 0, 0};
  // Odd steps append fresh entities, which the memo resumes past.
  for (int step = 0; step < 2 * steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const bool random_step = step % 2 == 0;
    if (random_step) {
      fuzzer.Step();
    } else {
      fuzzer.AppendFreshEntities();
    }
    InstanceDelta delta = db.DeltaSince(base_gen);
    ASSERT_TRUE(delta.complete);
    ASSERT_EQ(delta.to_generation, db.generation());
    const bool supported =
        DeltaSupportsIncrementalExtend(db, *model, delta);
    for (auto* chain : {&inc1, &inc4}) {
      ScopedThreads scoped(chain == &inc1 ? 1 : 4);
      if (supported) {
        Result<GroundedModel> ext =
            ExtendGroundedModel(std::move(**chain), delta);
        ASSERT_TRUE(ext.ok()) << ext.status();
        chain->emplace(std::move(*ext));
      } else {
        Result<GroundedModel> g = GroundModel(db, *model);
        ASSERT_TRUE(g.ok()) << g.status();
        chain->emplace(std::move(*g));
      }
    }
    if (supported && random_step) ++extends;
    base_gen = db.generation();

    // From-scratch reference at both thread counts; everything must
    // agree canonically, and the two extend chains — which applied the
    // identical delta sequence — must agree bit-for-bit.
    CanonicalGraph want;
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      Result<GroundedModel> fresh = GroundModel(db, *model);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      if (threads == 1) {
        want = Canonicalize(*fresh);
      } else {
        ASSERT_TRUE(want == Canonicalize(*fresh));
      }
    }
    ASSERT_TRUE(Canonicalize(*inc1) == want)
        << "threads=1 extend chain diverged from scratch";
    ASSERT_TRUE(Canonicalize(*inc4) == want)
        << "threads=4 extend chain diverged from scratch";
    EXPECT_EQ(GraphFingerprint(*inc1), GraphFingerprint(*inc4))
        << "extend is not deterministic across thread counts";

    // Interleaved query through the session's cached grounding.
    Result<std::shared_ptr<const GroundedModel>> cached =
        session->Ground(*model);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_TRUE(Canonicalize(**cached) == want)
        << "session-cached grounding went stale";
    ExpectMemoTablesMatchFresh(session, *model, queries, appends);
  }
  // The fuzz must actually exercise the incremental path, not live in
  // the fallback.
  EXPECT_GT(extends, static_cast<size_t>(steps) / 2)
      << "mutation mix mostly fell outside the extend contract";
  const QuerySession::SessionStats stats = session->SnapshotStats();
  EXPECT_GT(stats.ground_extends, 0u);
  EXPECT_GT(stats.unit_rows_hits, 0u);
  EXPECT_GT(stats.unit_rows_resumes, 0u);
  EXPECT_GT(stats.unit_rows_rebuilds, 0u);
  for (EmbeddingKind kind : kEmbeddings) {
    if (!expect_appends) break;
    EXPECT_GT(appends[static_cast<size_t>(kind)], 0u)
        << EmbeddingKindToString(kind) << " tables never appended";
  }
}

TEST(IncrementalGroundingFuzz, ReviewToyMatchesFromScratch) {
  RunDeltaFuzz(ReviewToyDataset(), "REVIEW", /*seed=*/0x5eed0001, 16,
               {"AVG_Score[A] <= Prestige[A]?",
                "AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED"},
               // A fresh author has no submission, so no resumed row is
               // kept and no table appends.
               /*expect_appends=*/false);
}

TEST(IncrementalGroundingFuzz, MiniMimicMatchesFromScratch) {
  RunDeltaFuzz(MiniMimicDataset(400, 40), "MIMIC", /*seed=*/0x5eed0002, 10,
               {"Len[P] <= SelfPay[P]?",
                "Death[P] <= SelfPay[P]? WHEN ALL PEERS TREATED"},
               /*expect_appends=*/true);
}

TEST(IncrementalGroundingFuzz, MiniNisMatchesFromScratch) {
  RunDeltaFuzz(MiniNisDataset(800, 30), "NIS", /*seed=*/0x5eed0003, 10,
               {"HighBill[P] <= AdmittedToLarge[P]?",
                "HighBill[P] <= AdmittedToLarge[P]? WHEN ALL PEERS TREATED"},
               /*expect_appends=*/true);
}

// ---------------------------------------------------------------------------
// Cycles closed by an extend.
// ---------------------------------------------------------------------------

// Person and Submission entities, Author and Reviews relationships, and a
// numeric attribute per name in `person_attrs` / `submission_attrs`.
Schema MakeAuthorReviewsSchema(const std::vector<std::string>& person_attrs,
                               const std::vector<std::string>& submission_attrs) {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Submission").status());
  CARL_CHECK_OK(
      schema.AddRelationship("Author", {"Person", "Submission"}).status());
  CARL_CHECK_OK(
      schema.AddRelationship("Reviews", {"Person", "Submission"}).status());
  for (const std::string& name : person_attrs) {
    CARL_CHECK_OK(
        schema.AddAttribute(name, "Person", true, ValueType::kDouble).status());
  }
  for (const std::string& name : submission_attrs) {
    CARL_CHECK_OK(schema.AddAttribute(name, "Submission", true,
                                      ValueType::kDouble).status());
  }
  return schema;
}

// Seeded episodes of random Author/Reviews appends. Every cycle runs
// Prestige[A] -> Score[S] -> Quality[S] -> Prestige[B] and back, so most
// are closed by one new fact over edges that already exist (Reviews(Bob,
// s1) closes Prestige[Bob] -> Score[s1] -> Quality[s1] -> Prestige[Bob]
// when Author(Bob, s1) is old). At every step the extend of the previous
// grounding must fail exactly when a from-scratch ground fails, with the
// same status, and otherwise match it canonically. Once the state is
// cyclic it stays cyclic (facts only append), so the episode ends there.
TEST(IncrementalGroundingFuzz, CycleCheckMatchesFromScratch) {
  Schema schema = MakeAuthorReviewsSchema({"Prestige"}, {"Score", "Quality"});
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(schema, R"(
    Score[S] <= Prestige[A] WHERE Author(A, S)
    Quality[S] <= Score[S] WHERE Submission(S)
    Prestige[A] <= Quality[S] WHERE Reviews(A, S)
  )");
  ASSERT_TRUE(model.ok()) << model.status();
  constexpr int kPeople = 6;
  constexpr int kSubmissions = 6;
  size_t cycles = 0;
  size_t extends = 0;
  for (uint64_t episode = 0; episode < 40; ++episode) {
    SCOPED_TRACE("episode " + std::to_string(episode));
    std::mt19937_64 rng(0x5eed0100 + episode);
    Instance db(&schema);
    for (int p = 0; p < kPeople; ++p) {
      const std::string name = "p" + std::to_string(p);
      CARL_CHECK_OK(db.AddFact("Person", {name}));
      CARL_CHECK_OK(db.SetAttribute(
          "Prestige", {name}, Value(static_cast<double>(rng() % 100))));
    }
    for (int s = 0; s < kSubmissions; ++s) {
      CARL_CHECK_OK(db.AddFact("Submission", {"s" + std::to_string(s)}));
    }
    Result<GroundedModel> base = GroundModel(db, *model);
    ASSERT_TRUE(base.ok()) << base.status();
    for (int step = 0; step < 30; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t gen = db.generation();
      const size_t facts = 1 + rng() % 3;
      for (size_t f = 0; f < facts; ++f) {
        const std::string person = "p" + std::to_string(rng() % kPeople);
        const std::string submission =
            "s" + std::to_string(rng() % kSubmissions);
        CARL_CHECK_OK(db.AddFact(rng() % 2 == 0 ? "Author" : "Reviews",
                                 {person, submission}));
      }
      InstanceDelta delta = db.DeltaSince(gen);
      ASSERT_TRUE(DeltaSupportsIncrementalExtend(db, *model, delta));
      Result<GroundedModel> ext = ExtendGroundedModel(std::move(*base), delta);
      Result<GroundedModel> fresh = GroundModel(db, *model);
      ASSERT_EQ(ext.ok(), fresh.ok())
          << "extend: " << ext.status() << " / ground: " << fresh.status();
      if (!ext.ok()) {
        EXPECT_EQ(ext.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(ext.status().message(), fresh.status().message());
        ++cycles;
        break;
      }
      ++extends;
      ASSERT_TRUE(Canonicalize(*ext) == Canonicalize(*fresh));
      base = std::move(ext);
    }
  }
  EXPECT_GT(cycles, 10u) << "too few episodes closed a cycle";
  EXPECT_GT(extends, 40u) << "too few acyclic extends";
}

// ---------------------------------------------------------------------------
// QuerySession delta policy.
// ---------------------------------------------------------------------------

// An extend that closes a cycle fails, and so does the fallback ground.
// The session moved its cached grounding into that extend (no consumer
// held it), so the entry must go: every later Ground grounds from
// scratch and fails the same way, instead of serving or extending a
// consumed graph.
TEST(IncrementalSessionTest, FailedExtendDropsTheCachedGrounding) {
  Schema schema = MakeAuthorReviewsSchema({"Prestige"}, {"Score"});
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(schema, R"(
    Score[S] <= Prestige[A] WHERE Author(A, S)
    Prestige[A] <= Score[S] WHERE Reviews(A, S)
  )");
  ASSERT_TRUE(model.ok()) << model.status();
  Instance db(&schema);
  for (const char* person : {"Bob", "Eva"}) {
    CARL_CHECK_OK(db.AddFact("Person", {person}));
  }
  for (const char* submission : {"s1", "s2"}) {
    CARL_CHECK_OK(db.AddFact("Submission", {submission}));
  }
  CARL_CHECK_OK(db.AddFact("Author", {"Bob", "s1"}));
  CARL_CHECK_OK(db.AddFact("Reviews", {"Eva", "s2"}));
  QuerySession session(&db);
  ASSERT_TRUE(session.Ground(*model).ok());  // the handle is dropped here

  // Prestige[Bob] -> Score[s1] -> Prestige[Bob].
  CARL_CHECK_OK(db.AddFact("Reviews", {"Bob", "s1"}));
  ASSERT_FALSE(GroundModel(db, *model).ok());
  for (int call = 0; call < 2; ++call) {
    Result<std::shared_ptr<const GroundedModel>> g = session.Ground(*model);
    EXPECT_EQ(g.status().code(), StatusCode::kFailedPrecondition)
        << "call " << call << ": " << g.status();
  }
  CARL_CHECK_OK(db.AddFact("Person", {"Cy"}));
  Result<std::shared_ptr<const GroundedModel>> g = session.Ground(*model);
  EXPECT_EQ(g.status().code(), StatusCode::kFailedPrecondition) << g.status();
  EXPECT_EQ(session.SnapshotStats().ground_extends, 0u);
}

TEST(IncrementalSessionTest, RelevantMutationExtendsCachedGrounding) {
  datagen::Dataset data = ReviewToyDataset();
  Instance& db = *data.instance;
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  QuerySession session(&db);

  Result<std::shared_ptr<const GroundedModel>> g1 = session.Ground(*model);
  ASSERT_TRUE(g1.ok()) << g1.status();
  EXPECT_EQ(session.SnapshotStats().ground_full, 1u);
  EXPECT_EQ(session.SnapshotStats().ground_extends, 0u);

  // Unchanged instance: cache hit, same object.
  Result<std::shared_ptr<const GroundedModel>> g2 = session.Ground(*model);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->get(), g2->get());
  EXPECT_EQ(session.SnapshotStats().cache_hits, 1u);

  // A new author with a qualification: inside the extend contract, so
  // the miss is served by extending the cached graph, and the returned
  // grounding is a new object reflecting the new nodes.
  CARL_CHECK_OK(db.AddFact("Person", {"Dana"}));
  CARL_CHECK_OK(db.SetAttribute("Qualification", {"Dana"}, Value(33.0)));
  CARL_CHECK_OK(db.AddFact("Author", {"Dana", "s2"}));
  Result<std::shared_ptr<const GroundedModel>> g3 = session.Ground(*model);
  ASSERT_TRUE(g3.ok()) << g3.status();
  EXPECT_NE(g3->get(), g2->get());
  EXPECT_EQ(session.SnapshotStats().ground_full, 1u);
  EXPECT_EQ(session.SnapshotStats().ground_extends, 1u);

  // In-place overwrite of a non-constraint attribute also extends.
  CARL_CHECK_OK(db.SetAttribute("Score", {"s1"}, Value(0.9)));
  Result<std::shared_ptr<const GroundedModel>> g4 = session.Ground(*model);
  ASSERT_TRUE(g4.ok());
  EXPECT_EQ(session.SnapshotStats().ground_extends, 2u);

  // An overflow write (no matching fact) is outside the contract: the
  // session falls back to a full re-ground, extends stays put.
  CARL_CHECK_OK(db.SetAttribute("Qualification", {"ghost"}, Value(1.0)));
  Result<std::shared_ptr<const GroundedModel>> g5 = session.Ground(*model);
  ASSERT_TRUE(g5.ok());
  EXPECT_EQ(session.SnapshotStats().ground_full, 2u);
  EXPECT_EQ(session.SnapshotStats().ground_extends, 2u);

  // Whatever the path, the served grounding matches a from-scratch one.
  Result<GroundedModel> fresh = GroundModel(db, *model);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(Canonicalize(**g5) == Canonicalize(*fresh));
}

// Satellite regression: mutating a relation that bears no attribute and
// appears in no rule must not disturb the session's cache — the same
// grounding object is served.
TEST(IncrementalSessionTest, UnrelatedMutationKeepsCachesWarm) {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Item").status());
  CARL_CHECK_OK(schema.AddRelationship("Owns", {"Person", "Item"}).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Age", "Person", true, ValueType::kDouble).status());
  CARL_CHECK_OK(schema.AddAttribute("Income", "Person", true,
                                    ValueType::kDouble).status());
  Instance db(&schema);
  for (const char* name : {"ada", "bo", "cy"}) {
    CARL_CHECK_OK(db.AddFact("Person", {name}));
    CARL_CHECK_OK(db.SetAttribute("Age", {name}, Value(30.0)));
  }
  CARL_CHECK_OK(db.AddFact("Item", {"mug"}));
  CARL_CHECK_OK(db.AddFact("Owns", {"ada", "mug"}));

  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      schema, "Income[P] <= Age[P] WHERE Person(P)");
  ASSERT_TRUE(model.ok()) << model.status();
  QuerySession session(&db);

  Result<std::shared_ptr<const GroundedModel>> g1 = session.Ground(*model);
  ASSERT_TRUE(g1.ok()) << g1.status();

  // Owns bears no attribute and no rule mentions it: adding such facts
  // cannot change the grounded graph, so this is the irrelevant-delta
  // fast path.
  CARL_CHECK_OK(db.AddFact("Owns", {"bo", "mug"}));
  CARL_CHECK_OK(db.AddFact("Owns", {"cy", "mug"}));
  Result<std::shared_ptr<const GroundedModel>> g2 = session.Ground(*model);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->get(), g2->get())
      << "irrelevant mutation invalidated the cached grounding";
  EXPECT_EQ(session.SnapshotStats().cache_hits, 1u);
  EXPECT_EQ(session.SnapshotStats().ground_full, 1u);

  // A write to Age IS relevant: the extend serves the miss, and the new
  // grounding carries the written value (a stale one would be silently
  // wrong).
  CARL_CHECK_OK(db.SetAttribute("Age", {"bo"}, Value(55.0)));
  Result<std::shared_ptr<const GroundedModel>> g3 = session.Ground(*model);
  ASSERT_TRUE(g3.ok());
  EXPECT_EQ(session.SnapshotStats().ground_extends, 1u);
  Result<AttributeId> age = schema.FindAttribute("Age");
  ASSERT_TRUE(age.ok());
  const CausalGraph& graph = (*g3)->graph();
  NodeId bo = graph.FindNode(*age, Tuple{db.LookupConstant("bo")});
  ASSERT_NE(bo, kInvalidNode);
  EXPECT_EQ((*g3)->NodeValue(bo), std::optional<double>(55.0));
}

// ---------------------------------------------------------------------------
// Fallbacks out of the extend contract.
// ---------------------------------------------------------------------------

TEST(IncrementalGroundingTest, ConstraintAttributeWriteFallsBack) {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(
      schema.AddAttribute("Age", "Person", true, ValueType::kDouble).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Risk", "Person", true, ValueType::kDouble)
          .status());
  Instance db(&schema);
  for (const char* name : {"a", "b"}) {
    CARL_CHECK_OK(db.AddFact("Person", {name}));
    CARL_CHECK_OK(db.SetAttribute("Age", {name}, Value(40.0)));
  }
  // Age appears in a rule-condition constraint: a write can flip an OLD
  // row across the threshold, adding or removing old-binding edges —
  // non-monotone, so such deltas must refuse to extend.
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      schema, "Risk[P] <= Age[P] WHERE Person(P), Age[P] > 30");
  ASSERT_TRUE(model.ok()) << model.status();

  Result<GroundedModel> base = GroundModel(db, *model);
  ASSERT_TRUE(base.ok());
  uint64_t gen = db.generation();
  CARL_CHECK_OK(db.SetAttribute("Age", {"a"}, Value(10.0)));  // drops binding
  InstanceDelta delta = db.DeltaSince(gen);
  EXPECT_FALSE(DeltaSupportsIncrementalExtend(db, *model, delta));
  Result<GroundedModel> ext = ExtendGroundedModel(std::move(*base), delta);
  EXPECT_FALSE(ext.ok());

  // The full re-ground reflects the dropped binding: a's Risk node lost
  // its Age parent.
  Result<GroundedModel> fresh = GroundModel(db, *model);
  ASSERT_TRUE(fresh.ok());
  Result<AttributeId> risk = schema.FindAttribute("Risk");
  ASSERT_TRUE(risk.ok());
  NodeId a_risk =
      fresh->graph().FindNode(*risk, Tuple{db.LookupConstant("a")});
  ASSERT_NE(a_risk, kInvalidNode);
  EXPECT_TRUE(fresh->graph().Parents(a_risk).empty());
}

TEST(IncrementalGroundingTest, RuleConstantInternedInWindowFallsBack) {
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
  CARL_CHECK_OK(db.AddFact("Submission", {"s1"}));
  // The rule names the constant "bob", which does not exist yet: the
  // grounding has no bob bindings.
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      schema, R"(Quality[S] <= Prestige["bob"] WHERE Author("bob", S))");
  ASSERT_TRUE(model.ok()) << model.status();
  Result<GroundedModel> base = GroundModel(db, *model);
  ASSERT_TRUE(base.ok());
  uint64_t gen = db.generation();

  // Interning a constant the rule names, inside the window, is outside
  // the contract (the planner's constant pre-resolution went stale).
  CARL_CHECK_OK(db.AddFact("Person", {"bob"}));
  CARL_CHECK_OK(db.SetAttribute("Prestige", {"bob"}, Value(5.0)));
  CARL_CHECK_OK(db.AddFact("Author", {"bob", "s1"}));
  InstanceDelta delta = db.DeltaSince(gen);
  EXPECT_FALSE(DeltaSupportsIncrementalExtend(db, *model, delta));

  // The re-ground picks up the new binding.
  Result<GroundedModel> fresh = GroundModel(db, *model);
  ASSERT_TRUE(fresh.ok());
  Result<AttributeId> quality = schema.FindAttribute("Quality");
  ASSERT_TRUE(quality.ok());
  NodeId s1 =
      fresh->graph().FindNode(*quality, Tuple{db.LookupConstant("s1")});
  ASSERT_NE(s1, kInvalidNode);
  EXPECT_EQ(fresh->graph().Parents(s1).size(), 1u);

  // A fresh constant NOT named by any rule stays inside the contract.
  gen = db.generation();
  CARL_CHECK_OK(db.AddFact("Person", {"carol"}));
  CARL_CHECK_OK(db.SetAttribute("Prestige", {"carol"}, Value(2.0)));
  delta = db.DeltaSince(gen);
  EXPECT_TRUE(DeltaSupportsIncrementalExtend(db, *model, delta));
  Result<GroundedModel> ext = ExtendGroundedModel(std::move(*fresh), delta);
  ASSERT_TRUE(ext.ok()) << ext.status();
  Result<GroundedModel> refreshed = GroundModel(db, *model);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(Canonicalize(*ext) == Canonicalize(*refreshed));
}

TEST(IncrementalGroundingTest, TrimmedDeltaLogFallsBack) {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(
      schema.AddAttribute("Age", "Person", true, ValueType::kDouble).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Risk", "Person", true, ValueType::kDouble)
          .status());
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Person", {"p"}));
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      schema, "Risk[P] <= Age[P] WHERE Person(P)");
  ASSERT_TRUE(model.ok()) << model.status();
  QuerySession session(&db);
  Result<std::shared_ptr<const GroundedModel>> g1 = session.Ground(*model);
  ASSERT_TRUE(g1.ok());

  // Push the bounded mutation log past capacity with in-place
  // overwrites; the window back to `gen` is then trimmed and the delta
  // must report incomplete.
  uint64_t gen = db.generation();
  Result<AttributeId> age = schema.FindAttribute("Age");
  ASSERT_TRUE(age.ok());
  const Tuple row{db.LookupConstant("p")};
  for (size_t i = 0; i < Instance::kDeltaLogCapacity + 16; ++i) {
    CARL_CHECK_OK(db.SetAttributeIds(
        *age, row, Value(static_cast<double>(i % 7))));
  }
  InstanceDelta delta = db.DeltaSince(gen);
  EXPECT_FALSE(delta.complete);
  EXPECT_FALSE(DeltaSupportsIncrementalExtend(db, *model, delta));

  // The session survives the trim with a full re-ground, never a stale
  // answer.
  Result<std::shared_ptr<const GroundedModel>> g2 = session.Ground(*model);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(session.SnapshotStats().ground_extends, 0u);
  EXPECT_EQ(session.SnapshotStats().ground_full, 2u);
  Result<GroundedModel> fresh = GroundModel(db, *model);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(Canonicalize(**g2) == Canonicalize(*fresh));
}

// ---------------------------------------------------------------------------
// One enumeration per distinct rule condition per pass. The NIS program's
// 16 rules share two conditions, Patient(P) and Admitted(P, H), so a
// ground charges an unlimited guard token exactly the bindings of a
// program holding one rule per condition, and so does an extend after one
// new admission.
// ---------------------------------------------------------------------------
TEST(IncrementalGroundingTest, EachDistinctConditionEnumeratesOncePerPass) {
  datagen::Dataset data = MiniNisDataset(600, 20);
  Instance& db = *data.instance;
  Result<RelationalCausalModel> nis =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(nis.ok()) << nis.status();
  ASSERT_EQ(nis->rules().size(), 16u);
  Result<RelationalCausalModel> distinct = RelationalCausalModel::Parse(
      *data.schema,
      "Severity[P] <= Age[P] WHERE Patient(P)\n"
      "Bill[P] <= Private[H] WHERE Admitted(P, H)\n");
  ASSERT_TRUE(distinct.ok()) << distinct.status();

  auto ground = [&](const RelationalCausalModel& model) {
    guard::ExecToken token;
    guard::ScopedToken scoped(&token);
    Result<GroundedModel> grounded = GroundModel(db, model);
    return std::make_pair(std::move(grounded), token.charged_bindings());
  };
  auto [nis_grounded, nis_charged] = ground(*nis);
  auto [distinct_grounded, distinct_charged] = ground(*distinct);
  ASSERT_TRUE(nis_grounded.ok()) << nis_grounded.status();
  ASSERT_TRUE(distinct_grounded.ok()) << distinct_grounded.status();
  const size_t patients = db.NumRows(*data.schema->FindPredicate("Patient"));
  const size_t admissions =
      db.NumRows(*data.schema->FindPredicate("Admitted"));
  EXPECT_EQ(distinct_charged, patients + admissions);
  EXPECT_EQ(nis_charged, distinct_charged)
      << "a ground enumerated a repeated rule condition again";

  const uint64_t generation = db.generation();
  CARL_CHECK_OK(db.AddFact("Patient", {"np0"}));
  CARL_CHECK_OK(db.AddFact("Admitted", {"np0", "h0"}));
  const InstanceDelta delta = db.DeltaSince(generation);
  auto extend = [&](GroundedModel base) {
    guard::ExecToken token;
    guard::ScopedToken scoped(&token);
    Result<GroundedModel> extended =
        ExtendGroundedModel(std::move(base), delta);
    EXPECT_TRUE(extended.ok()) << extended.status();
    return token.charged_bindings();
  };
  const size_t distinct_delta = extend(std::move(*distinct_grounded));
  EXPECT_EQ(distinct_delta, 2u);  // one new row per condition
  EXPECT_EQ(extend(std::move(*nis_grounded)), distinct_delta)
      << "an extend enumerated a repeated rule condition again";
}

// ---------------------------------------------------------------------------
// Concurrent readers after a post-build AddEdges (a TSan target).
// Adjacency reads are plain const reads of the list stores; after an
// incremental extend and a further post-build batch, racing readers must
// all see the same adjacency, with every new edge in place.
// ---------------------------------------------------------------------------
TEST(IncrementalGroundingTest, ConcurrentReadersAfterPostBuildAddEdges) {
  datagen::Dataset data = MiniMimicDataset(400, 40);
  Instance& db = *data.instance;
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  ScopedThreads scoped(4);
  Result<GroundedModel> base = GroundModel(db, *model);
  ASSERT_TRUE(base.ok()) << base.status();

  uint64_t gen = db.generation();
  CARL_CHECK_OK(db.AddFact("Pa", {"fzpatient"}));
  CARL_CHECK_OK(db.SetAttribute("Age", {"fzpatient"}, Value(61.0)));
  CARL_CHECK_OK(db.SetAttribute("Severe", {"fzpatient"}, Value(true)));
  InstanceDelta delta = db.DeltaSince(gen);
  ASSERT_TRUE(DeltaSupportsIncrementalExtend(db, *model, delta));
  Result<GroundedModel> ext = ExtendGroundedModel(std::move(*base), delta);
  ASSERT_TRUE(ext.ok()) << ext.status();

  // On a copy, commit a batch of genuinely new edges, then let the
  // reader threads race over the whole adjacency.
  CausalGraph graph = ext->graph();
  const size_t n = graph.num_nodes();
  ASSERT_GT(n, 8u);
  std::vector<CausalGraph::Edge> batch;
  for (NodeId from = 0; batch.size() < 8 && from < static_cast<NodeId>(n);
       ++from) {
    NodeId to = static_cast<NodeId>(n - 1 - from);
    if (from == to) continue;
    bool present = false;
    for (NodeId c : graph.Children(from)) present |= (c == to);
    if (!present) batch.push_back({from, to});
  }
  ASSERT_FALSE(batch.empty());
  const size_t edges_before = graph.num_edges();
  graph.AddEdges(batch);
  ASSERT_EQ(graph.num_edges(), edges_before + batch.size());

  std::vector<std::thread> readers;
  std::vector<size_t> sums(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&graph, &sums, n, t] {
      size_t sum = 0;
      for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        sum += graph.Parents(id).size();
        sum += graph.Children(id).size();
      }
      sums[t] = sum;
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(sums[t], sums[0]) << "reader " << t << " saw torn adjacency";
  }
  EXPECT_EQ(sums[0], 2 * graph.num_edges());
  for (const CausalGraph::Edge& e : batch) {
    bool found = false;
    for (NodeId c : graph.Children(e.from)) found |= (c == e.to);
    EXPECT_TRUE(found) << "post-build edge missing from its child list";
  }
}

}  // namespace
}  // namespace carl
