// Unit tests for src/graph: grounded causal graph structure, DAG
// algorithms, d-separation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/causal_graph.h"

namespace carl {
namespace {

// Small helper: nodes are (attribute 0, {i}).
NodeId N(CausalGraph* g, int i) { return g->AddNode(0, {i}); }

TEST(CausalGraphTest, AddNodeIsIdempotent) {
  CausalGraph g;
  NodeId a = g.AddNode(1, {10, 20});
  NodeId b = g.AddNode(1, {10, 20});
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.FindNode(1, {10, 20}), a);
  EXPECT_EQ(g.FindNode(1, {10, 21}), kInvalidNode);
  EXPECT_EQ(g.FindNode(2, {10, 20}), kInvalidNode);
}

TEST(CausalGraphTest, EdgesDeduplicated) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Parents(b).size(), 1u);
  EXPECT_EQ(g.Children(a).size(), 1u);
}

TEST(CausalGraphTest, AddEdgesBatchMatchesSerialFirstOccurrence) {
  // The batched commit must reproduce a serial AddEdge loop exactly:
  // duplicates dropped (within the batch and against edges already
  // committed), survivors appended in call order.
  CausalGraph serial, batched;
  for (int i = 0; i < 6; ++i) {
    N(&serial, i);
    N(&batched, i);
  }
  serial.AddEdge(2, 0);
  batched.AddEdge(2, 0);
  std::vector<CausalGraph::Edge> batch{
      {4, 0}, {1, 0}, {4, 0}, {2, 0}, {3, 5}, {1, 0}, {5, 3}, {0, 1}};
  for (const CausalGraph::Edge& e : batch) serial.AddEdge(e.from, e.to);
  batched.AddEdges(batch);
  ASSERT_EQ(batched.num_edges(), serial.num_edges());
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(batched.Parents(n), serial.Parents(n)) << "parents of " << n;
    EXPECT_EQ(batched.Children(n), serial.Children(n)) << "children of " << n;
  }
  // A second batch still dedupes against the first.
  batched.AddEdges({{4, 0}, {0, 2}});
  serial.AddEdge(4, 0);
  serial.AddEdge(0, 2);
  EXPECT_EQ(batched.num_edges(), serial.num_edges());
  EXPECT_EQ(batched.Children(0), serial.Children(0));
}

TEST(CausalGraphTest, NodeArgsLiveInArena) {
  CausalGraph g;
  NodeId a = g.AddNode(1, {10, 20});
  NodeId b = g.AddNode(2, {30});
  EXPECT_EQ(g.node(a).attribute, 1);
  EXPECT_EQ(g.node(a).args, TupleView(Tuple{10, 20}));
  EXPECT_EQ(g.node(b).args, TupleView(Tuple{30}));
  // Views are re-derived per call, so they stay correct across arena
  // growth from later insertions.
  for (int i = 0; i < 100; ++i) g.AddNode(3, {100 + i});
  EXPECT_EQ(g.node(a).args, TupleView(Tuple{10, 20}));
  EXPECT_EQ(g.node(b).args, TupleView(Tuple{30}));
}

// The appended adjacency lists must read byte-identical to per-node
// push_back vectors at every point of an interleaved write/read/write
// sequence: after each AddEdges batch (whose random edges repeat, so the
// dedupe against committed parents and within the batch is exercised),
// after single AddEdge calls that relocate lists within the arena, and
// after CompactAdjacency rewrites the layout.
TEST(CausalGraphTest, AdjacencyMatchesReferenceAcrossInterleavedWrites) {
  constexpr int kNodes = 40;
  CausalGraph g;
  for (int i = 0; i < kNodes; ++i) N(&g, i);
  std::vector<std::vector<NodeId>> ref_parents(kNodes), ref_children(kNodes);

  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<NodeId>((state >> 33) % kNodes);
  };
  auto ref_add = [&](NodeId from, NodeId to) {
    std::vector<NodeId>& c = ref_children[from];
    if (std::find(c.begin(), c.end(), to) != c.end()) return;
    c.push_back(to);
    ref_parents[to].push_back(from);
  };
  auto check_all = [&](const char* when) {
    for (NodeId n = 0; n < kNodes; ++n) {
      ASSERT_EQ(g.Parents(n),
                NodeIdSpan(ref_parents[n].data(), ref_parents[n].size()))
          << when << ": parents of " << n;
      ASSERT_EQ(g.Children(n),
                NodeIdSpan(ref_children[n].data(), ref_children[n].size()))
          << when << ": children of " << n;
    }
  };

  // Batch writes, read, then single-edge writes, read again.
  for (int round = 0; round < 4; ++round) {
    std::vector<CausalGraph::Edge> batch;
    for (int i = 0; i < 50; ++i) {
      NodeId from = next(), to = next();
      batch.push_back({from, to});
      ref_add(from, to);
    }
    g.AddEdges(batch);
    check_all("after batch");
    check_all("re-read (reads do not mutate)");
    for (int i = 0; i < 5; ++i) {
      NodeId from = next(), to = next();
      g.AddEdge(from, to);
      ref_add(from, to);
    }
    check_all("after AddEdge");
    if (round % 2 == 1) {
      g.CompactAdjacency();
      check_all("after CompactAdjacency");
    }
  }
  size_t ref_edges = 0;
  for (const auto& p : ref_parents) ref_edges += p.size();
  EXPECT_EQ(g.num_edges(), ref_edges);
}

TEST(CausalGraphTest, AdjacencyCoversNodesAddedAfterCompaction) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1);
  g.AddEdge(a, b);
  g.CompactAdjacency();
  EXPECT_EQ(g.Parents(b).size(), 1u);
  // A node interned after the compaction gets its own empty lists, and
  // an edge into it appends to them.
  NodeId c = N(&g, 2);
  EXPECT_TRUE(g.Parents(c).empty());
  EXPECT_TRUE(g.Children(c).empty());
  g.AddEdge(b, c);
  EXPECT_EQ(g.Parents(c).size(), 1u);
  EXPECT_EQ(g.Parents(c)[0], b);
}

TEST(CausalGraphTest, NodesOfAttribute) {
  CausalGraph g;
  g.AddNode(3, {1});
  g.AddNode(3, {2});
  g.AddNode(4, {1});
  EXPECT_EQ(g.NodesOfAttribute(3).size(), 2u);
  EXPECT_EQ(g.NodesOfAttribute(4).size(), 1u);
  EXPECT_TRUE(g.NodesOfAttribute(9).empty());
}

TEST(CausalGraphTest, TopologicalOrderRespectsEdges) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(a, c);
  Result<std::vector<NodeId>> order = g.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  std::vector<size_t> position(3);
  for (size_t i = 0; i < order->size(); ++i) {
    position[static_cast<size_t>((*order)[i])] = i;
  }
  EXPECT_LT(position[a], position[b]);
  EXPECT_LT(position[b], position[c]);
}

TEST(CausalGraphTest, CycleDetected) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_FALSE(g.TopologicalOrder().ok());
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(CausalGraphTest, DirectedPathAndClosures) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2), d = N(&g, 3);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  EXPECT_TRUE(g.HasDirectedPath(a, c));
  EXPECT_TRUE(g.HasDirectedPath(a, a));
  EXPECT_FALSE(g.HasDirectedPath(c, a));
  EXPECT_FALSE(g.HasDirectedPath(a, d));

  std::vector<NodeId> anc = g.Ancestors({c});
  EXPECT_EQ(anc.size(), 3u);  // c, b, a
  std::vector<NodeId> desc = g.Descendants({a});
  EXPECT_EQ(desc.size(), 3u);
  EXPECT_EQ(g.Ancestors({d}).size(), 1u);
}

// Classic d-separation cases on the three canonical triples.
TEST(DSeparationTest, Chain) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  EXPECT_FALSE(DSeparation(g).Separated({a}, {c}, {}));
  EXPECT_TRUE(DSeparation(g).Separated({a}, {c}, {b}));
}

TEST(DSeparationTest, Fork) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2);
  g.AddEdge(b, a);
  g.AddEdge(b, c);
  EXPECT_FALSE(DSeparation(g).Separated({a}, {c}, {}));
  EXPECT_TRUE(DSeparation(g).Separated({a}, {c}, {b}));
}

TEST(DSeparationTest, ColliderBlocksUntilConditioned) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2);
  g.AddEdge(a, b);
  g.AddEdge(c, b);
  EXPECT_TRUE(DSeparation(g).Separated({a}, {c}, {}));
  EXPECT_FALSE(DSeparation(g).Separated({a}, {c}, {b}));
}

TEST(DSeparationTest, ColliderDescendantAlsoActivates) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2), d = N(&g, 3);
  g.AddEdge(a, b);
  g.AddEdge(c, b);
  g.AddEdge(b, d);  // d descends from the collider
  EXPECT_TRUE(DSeparation(g).Separated({a}, {c}, {}));
  EXPECT_FALSE(DSeparation(g).Separated({a}, {c}, {d}));
}

TEST(DSeparationTest, ConfounderAdjustment) {
  // The paper's running example shape (Fig 3): Qualification -> Prestige,
  // Qualification -> Quality -> Score, Prestige -> Score.
  CausalGraph g;
  NodeId qual = N(&g, 0), prestige = N(&g, 1), quality = N(&g, 2),
         score = N(&g, 3);
  g.AddEdge(qual, prestige);
  g.AddEdge(qual, quality);
  g.AddEdge(quality, score);
  g.AddEdge(prestige, score);
  // Score depends on Qualification even given Prestige (via Quality).
  EXPECT_FALSE(DSeparation(g).Separated({score}, {qual}, {prestige}));
  // Conditioning on Prestige + Quality separates Score from Qualification.
  EXPECT_TRUE(DSeparation(g).Separated({score}, {qual}, {prestige, quality}));
}

TEST(DSeparationTest, NodesInsideZAreIgnored) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1);
  g.AddEdge(a, b);
  // X or Y intersecting Z is separated by convention.
  EXPECT_TRUE(DSeparation(g).Separated({a}, {b}, {b}));
  EXPECT_TRUE(DSeparation(g).Separated({a}, {b}, {a}));
}

TEST(DSeparationTest, ConnectedNodesFromSource) {
  CausalGraph g;
  NodeId a = N(&g, 0), b = N(&g, 1), c = N(&g, 2);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  std::vector<NodeId> reach = DSeparation(g).ConnectedNodes({a}, {});
  EXPECT_EQ(reach.size(), 3u);
  reach = DSeparation(g).ConnectedNodes({a}, {b});
  EXPECT_EQ(reach.size(), 1u);  // only a itself
}

}  // namespace
}  // namespace carl
