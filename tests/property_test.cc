// Property-based tests:
//  * DSeparation agrees with a brute-force path-blocking oracle on random
//    DAGs over thousands of (X, Y | Z) triples, and one reused
//    DSeparation scratch does over a long sequence of set queries;
//  * the conjunctive-query evaluator agrees with naive enumeration on
//    random instances;
//  * the full pipeline recovers generative effects for every
//    (embedding x estimator) combination on confounded relational data.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "core/engine.h"
#include "datagen/review.h"
#include "graph/causal_graph.h"
#include "relational/evaluator.h"

namespace carl {
namespace {

// ---------------------------------------------------------------------------
// d-separation oracle: enumerate all undirected paths between x and y and
// test the classic blocking rules (Pearl): a path is blocked by Z iff it
// contains a chain/fork node in Z, or a collider whose descendants
// (including itself) are all outside Z.
class DSepOracle {
 public:
  explicit DSepOracle(const CausalGraph& graph) : graph_(graph) {}

  bool Separated(NodeId x, NodeId y, const std::vector<NodeId>& z) {
    std::vector<bool> in_z(graph_.num_nodes(), false);
    for (NodeId n : z) in_z[n] = true;
    if (in_z[x] || in_z[y]) return true;

    // A collider is open iff it (or a descendant) is in Z — equivalently,
    // iff it is an ancestor of Z.
    std::vector<bool> anc_z(graph_.num_nodes(), false);
    for (NodeId n : graph_.Ancestors(z)) anc_z[n] = true;

    // DFS over simple undirected paths. `arrived_into_cur` records whether
    // the edge used to reach `cur` points into it (prev -> cur).
    std::vector<bool> on_path(graph_.num_nodes(), false);
    bool active_found = false;
    std::function<void(NodeId, bool)> dfs = [&](NodeId cur,
                                                bool arrived_into_cur) {
      if (active_found) return;
      if (cur == y) {
        active_found = true;
        return;
      }
      on_path[cur] = true;
      auto try_next = [&](NodeId next, bool leaves_via_child) {
        if (on_path[next] || active_found) return;
        // cur is a collider on the path iff both edges point into it:
        // we arrived along an inbound edge AND leave against an inbound
        // edge (toward a parent).
        bool collider = arrived_into_cur && !leaves_via_child;
        bool open = collider ? anc_z[cur] : !in_z[cur];
        // Leaving toward a child means the next node is entered along an
        // inbound edge.
        if (open) dfs(next, leaves_via_child);
      };
      for (NodeId child : graph_.Children(cur)) try_next(child, true);
      for (NodeId parent : graph_.Parents(cur)) try_next(parent, false);
      on_path[cur] = false;
    };
    on_path[x] = true;
    for (NodeId child : graph_.Children(x)) {
      if (!active_found) dfs(child, true);
    }
    for (NodeId parent : graph_.Parents(x)) {
      if (!active_found) dfs(parent, false);
    }
    return !active_found;
  }

 private:
  const CausalGraph& graph_;
};

CausalGraph RandomDag(size_t num_nodes, double edge_prob, Rng* rng) {
  CausalGraph graph;
  for (size_t i = 0; i < num_nodes; ++i) {
    graph.AddNode(0, {static_cast<SymbolId>(i)});
  }
  // Edges only from lower to higher index: acyclic by construction.
  for (size_t i = 0; i < num_nodes; ++i) {
    for (size_t j = i + 1; j < num_nodes; ++j) {
      if (rng->Bernoulli(edge_prob)) {
        graph.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return graph;
}

TEST(DSeparationPropertyTest, AgreesWithPathEnumerationOracle) {
  Rng rng(2024);
  int checked = 0;
  for (int g = 0; g < 40; ++g) {
    size_t n = static_cast<size_t>(rng.UniformInt(3, 8));
    CausalGraph graph = RandomDag(n, 0.35, &rng);
    DSepOracle oracle(graph);
    for (int trial = 0; trial < 40; ++trial) {
      NodeId x = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      NodeId y = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (x == y) continue;
      std::vector<NodeId> z;
      for (size_t c = 0; c < n; ++c) {
        if (static_cast<NodeId>(c) != x && static_cast<NodeId>(c) != y &&
            rng.Bernoulli(0.3)) {
          z.push_back(static_cast<NodeId>(c));
        }
      }
      bool fast = DSeparation(graph).Separated({x}, {y}, z);
      bool slow = oracle.Separated(x, y, z);
      ASSERT_EQ(fast, slow)
          << "graph " << g << " x=" << x << " y=" << y << " |Z|=" << z.size();
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);
}

// One DSeparation answers a long random sequence of set queries on one
// DAG, each a fresh (X, Y, Z) asked as Separated or as ConnectedNodes at
// random, exactly as the oracle does: a stamp or a pending trail left
// over from an earlier query must never change a later answer. X and Y
// are disjoint; sets are separated iff every pair is, and a node is
// connected iff it is outside Z and in X \ Z or not separated from some
// node of X \ Z.
TEST(DSeparationPropertyTest, ReusedScratchAgreesWithOracle) {
  Rng rng(77);
  const size_t n = 10;
  CausalGraph graph = RandomDag(n, 0.3, &rng);
  DSepOracle oracle(graph);
  DSeparation scratch(graph);
  auto draw = [&](double p, const std::vector<bool>& taken) {
    std::vector<NodeId> set;
    for (size_t c = 0; c < n; ++c) {
      if (!taken[c] && rng.Bernoulli(p)) set.push_back(static_cast<NodeId>(c));
    }
    return set;
  };
  int separated[2] = {0, 0};  // answers false / true
  int connected = 0;
  for (int query = 0; query < 3000; ++query) {
    std::vector<bool> taken(n, false);
    std::vector<NodeId> x = draw(0.2, taken);
    for (NodeId id : x) taken[id] = true;
    std::vector<NodeId> y = draw(0.2, taken);
    std::vector<NodeId> z = draw(0.3, std::vector<bool>(n, false));
    std::vector<bool> in_z(n, false);
    for (NodeId id : z) in_z[id] = true;

    if (rng.Bernoulli(0.5)) {
      bool want = true;
      for (NodeId a : x) {
        for (NodeId b : y) want = want && oracle.Separated(a, b, z);
      }
      ASSERT_EQ(scratch.Separated(x, y, z), want) << "query " << query;
      ++separated[want ? 1 : 0];
      continue;
    }
    std::vector<NodeId> reach;
    for (size_t v = 0; v < n; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      if (in_z[v]) continue;
      bool reached = false;
      for (NodeId a : x) {
        if (in_z[a]) continue;
        reached = reached || a == node || !oracle.Separated(a, node, z);
      }
      if (reached) reach.push_back(node);
    }
    ASSERT_EQ(scratch.ConnectedNodes(x, z), reach) << "query " << query;
    connected += reach.empty() ? 0 : 1;
  }
  // Both answers occur often enough for the sequence to mean something.
  EXPECT_GT(separated[0], 200);
  EXPECT_GT(separated[1], 200);
  EXPECT_GT(connected, 300);
}

// ---------------------------------------------------------------------------
// Conjunctive-query evaluator vs naive enumeration.
TEST(EvaluatorPropertyTest, AgreesWithNaiveEnumeration) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    Schema schema;
    CARL_CHECK_OK(schema.AddEntity("E").status());
    CARL_CHECK_OK(schema.AddRelationship("R", {"E", "E"}).status());
    CARL_CHECK_OK(schema.AddRelationship("Q", {"E", "E"}).status());
    Instance db(&schema);

    size_t num_constants = static_cast<size_t>(rng.UniformInt(3, 6));
    std::vector<std::string> names;
    for (size_t i = 0; i < num_constants; ++i) {
      names.push_back("c" + std::to_string(i));
      CARL_CHECK_OK(db.AddFact("E", {names.back()}));
    }
    for (const char* pred : {"R", "Q"}) {
      for (const std::string& a : names) {
        for (const std::string& b : names) {
          if (rng.Bernoulli(0.3)) CARL_CHECK_OK(db.AddFact(pred, {a, b}));
        }
      }
    }

    // Query: R(X, Y), Q(Y, Z) with outputs {X, Z}.
    ConjunctiveQuery query;
    query.atoms.push_back({"R", {Term::Var("X"), Term::Var("Y")}});
    query.atoms.push_back({"Q", {Term::Var("Y"), Term::Var("Z")}});
    QueryEvaluator evaluator(&db);
    Result<BindingTable> fast = evaluator.Evaluate(query, {"X", "Z"});
    ASSERT_TRUE(fast.ok());

    // Brute force over all (x, y, z) constant triples.
    std::set<std::pair<SymbolId, SymbolId>> slow;
    PredicateId r = *schema.FindPredicate("R");
    PredicateId q = *schema.FindPredicate("Q");
    auto has = [&db](PredicateId p, SymbolId a, SymbolId b) {
      for (TupleView row : db.Rows(p)) {
        if (row[0] == a && row[1] == b) return true;
      }
      return false;
    };
    for (const std::string& xs : names) {
      for (const std::string& ys : names) {
        for (const std::string& zs : names) {
          SymbolId x = db.LookupConstant(xs), y = db.LookupConstant(ys),
                   z = db.LookupConstant(zs);
          if (has(r, x, y) && has(q, y, z)) slow.insert({x, z});
        }
      }
    }
    std::set<std::pair<SymbolId, SymbolId>> fast_set;
    for (size_t r = 0; r < fast->size(); ++r) {
      fast_set.insert({fast->row(r)[0], fast->row(r)[1]});
    }
    ASSERT_EQ(fast_set, slow) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// End-to-end recovery sweep: every embedding recovers the isolated effect
// on confounded relational data (single-blind synthetic review).
struct SweepCase {
  EmbeddingKind embedding;
  uint64_t seed;
};

class RecoverySweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RecoverySweepTest, IsolatedEffectWithinTolerance) {
  datagen::ReviewConfig config;
  config.num_authors = 500;
  config.num_institutions = 25;
  config.num_papers = 3000;
  config.num_venues = 5;
  config.single_blind_fraction = 1.0;
  config.tau_iso_single = 1.0;
  config.tau_rel = 0.5;
  config.seed = GetParam().seed;
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data->dataset.schema, data->dataset.model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->dataset.instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  QueryRequest request(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED");
  request.options.embedding = GetParam().embedding;
  QueryResponse response = (*engine)->Answer(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_NEAR(response.answer.effects->aie.value, 1.0, 0.25)
      << EmbeddingKindToString(GetParam().embedding);
  EXPECT_NEAR(response.answer.effects->are.value, 0.5, 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Embeddings, RecoverySweepTest,
    ::testing::Values(SweepCase{EmbeddingKind::kMean, 51},
                      SweepCase{EmbeddingKind::kMedian, 52},
                      SweepCase{EmbeddingKind::kMoments, 53},
                      SweepCase{EmbeddingKind::kPadding, 54}),
    [](const auto& info) {
      return EmbeddingKindToString(info.param.embedding);
    });

}  // namespace
}  // namespace carl
