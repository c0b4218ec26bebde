// Quickstart: the paper's running example (Figure 2) end to end.
//
// Builds the REVIEWDATA toy instance in code, declares the causal model of
// Example 3.4 with CaRL rules, and answers the paper's headline question:
// does an author's institutional prestige causally affect review scores?
//
//   build/quickstart

#include <cstdio>

#include "carl/carl.h"

using namespace carl;

int main() {
  // --- 1. Declare the relational causal schema (paper §3.1) --------------
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Submission").status());
  CARL_CHECK_OK(schema.AddEntity("Conference").status());
  CARL_CHECK_OK(
      schema.AddRelationship("Author", {"Person", "Submission"}).status());
  CARL_CHECK_OK(
      schema.AddRelationship("Submitted", {"Submission", "Conference"})
          .status());
  CARL_CHECK_OK(
      schema.AddAttribute("Prestige", "Person", true, ValueType::kBool)
          .status());
  CARL_CHECK_OK(schema.AddAttribute("Qualification", "Person").status());
  CARL_CHECK_OK(schema.AddAttribute("Score", "Submission").status());
  // Quality is latent: declared, never observed (paper Example 3.1).
  CARL_CHECK_OK(
      schema.AddAttribute("Quality", "Submission", /*observed=*/false)
          .status());
  CARL_CHECK_OK(
      schema.AddAttribute("Blind", "Conference", true, ValueType::kBool)
          .status());

  // --- 2. Load the instance (Figure 2) ------------------------------------
  Instance db(&schema);
  struct AuthorRow { const char* name; bool prestige; double hindex; };
  for (AuthorRow a : {AuthorRow{"Bob", true, 50},
                      AuthorRow{"Carlos", false, 20},
                      AuthorRow{"Eva", true, 2}}) {
    CARL_CHECK_OK(db.AddFact("Person", {a.name}));
    CARL_CHECK_OK(db.SetAttribute("Prestige", {a.name}, Value(a.prestige)));
    CARL_CHECK_OK(
        db.SetAttribute("Qualification", {a.name}, Value(a.hindex)));
  }
  struct SubRow { const char* name; double score; const char* venue; };
  for (SubRow s : {SubRow{"s1", 0.75, "ConfDB"}, SubRow{"s2", 0.4, "ConfAI"},
                   SubRow{"s3", 0.1, "ConfAI"}}) {
    CARL_CHECK_OK(db.AddFact("Submission", {s.name}));
    CARL_CHECK_OK(db.SetAttribute("Score", {s.name}, Value(s.score)));
    CARL_CHECK_OK(db.AddFact("Submitted", {s.name, s.venue}));
  }
  CARL_CHECK_OK(db.AddFact("Conference", {"ConfDB"}));
  CARL_CHECK_OK(db.AddFact("Conference", {"ConfAI"}));
  CARL_CHECK_OK(db.SetAttribute("Blind", {"ConfDB"}, Value(true)));
  CARL_CHECK_OK(db.SetAttribute("Blind", {"ConfAI"}, Value(false)));
  for (auto [person, sub] :
       {std::pair{"Bob", "s1"}, {"Eva", "s1"}, {"Eva", "s2"}, {"Eva", "s3"},
        {"Carlos", "s3"}}) {
    CARL_CHECK_OK(db.AddFact("Author", {person, sub}));
  }

  // --- 3. The causal model: Example 3.4, rules (5)-(8) + rule (12) --------
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(schema, R"(
        Prestige[A]  <= Qualification[A]               WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A]  WHERE Author(A, S)
        Score[S]     <= Prestige[A]                    WHERE Author(A, S)
        Score[S]     <= Quality[S]                     WHERE Submission(S)
        AVG_Score[A] <= Score[S]                       WHERE Author(A, S)
      )");
  CARL_CHECK_OK(model.status());

  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(&db, std::move(*model));
  CARL_CHECK_OK(engine.status());

  // The grounded causal graph (Figures 4-5).
  const GroundedModel& grounded = (*engine)->grounded();
  std::printf("Grounded causal graph: %zu nodes, %zu edges\n",
              grounded.graph().num_nodes(), grounded.graph().num_edges());

  // --- 4. Ask causal queries (paper §3.3) ---------------------------------
  // ATE of prestige on an author's average review score (query 36).
  // Every query goes through Answer(QueryRequest); errors come back in
  // response.status.
  QueryResponse response =
      (*engine)->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
  CARL_CHECK_OK(response.status);
  const AteAnswer& ate = *response.answer.ate;
  std::printf("\nQuery: AVG_Score[A] <= Prestige[A]?\n");
  std::printf("  units (authors):        %zu\n", ate.num_units);
  std::printf("  naive diff of averages: %+.3f\n", ate.naive.difference);
  std::printf("  ATE (adjusted):         %+.3f\n", ate.ate.value);

  // Isolated vs relational effects (query 37).
  QueryResponse peers = (*engine)->Answer(
      QueryRequest("AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED"));
  CARL_CHECK_OK(peers.status);
  const RelationalEffectsAnswer& effects = *peers.answer.effects;
  std::printf("\nQuery: ... WHEN ALL PEERS TREATED\n");
  std::printf("  AIE (own prestige):     %+.3f\n", effects.aie.value);
  std::printf("  ARE (peers' prestige):  %+.3f\n", effects.are.value);
  std::printf("  AOE (= AIE + ARE):      %+.3f\n", effects.aoe.value);

  // Auto-unification: ask about Score (a submission attribute) directly;
  // the engine derives the aggregation along the relational path (§4.3)
  // for this query only — the engine's own model stays as created.
  QueryResponse unified =
      (*engine)->Answer(QueryRequest("Score[S] <= Prestige[A]?"));
  CARL_CHECK_OK(unified.status);
  std::printf("\nQuery: Score[S] <= Prestige[A]?  (auto-unified)\n");
  std::printf("  derived response:       %s\n",
              unified.answer.ate->response_attribute.c_str());
  std::printf("  ATE:                    %+.3f\n",
              unified.answer.ate->ate.value);

  std::printf("\nNote: with 3 authors these numbers are illustrative; see\n"
              "examples/peer_review_bias.cpp for a full-scale analysis.\n");
  return 0;
}
