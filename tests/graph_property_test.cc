// Structural invariants of CausalGraph on random DAGs: closure duality,
// topological-order validity, reachability consistency.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/causal_graph.h"

namespace carl {
namespace {

CausalGraph RandomDag(size_t num_nodes, double edge_prob, Rng* rng) {
  CausalGraph graph;
  for (size_t i = 0; i < num_nodes; ++i) {
    graph.AddNode(0, {static_cast<SymbolId>(i)});
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    for (size_t j = i + 1; j < num_nodes; ++j) {
      if (rng->Bernoulli(edge_prob)) {
        graph.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return graph;
}

class DagInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(DagInvariantTest, AncestorDescendantDuality) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  CausalGraph graph = RandomDag(20, 0.15, &rng);
  for (NodeId x = 0; x < static_cast<NodeId>(graph.num_nodes()); ++x) {
    std::vector<NodeId> anc = graph.Ancestors({x});
    for (NodeId a : anc) {
      std::vector<NodeId> desc = graph.Descendants({a});
      EXPECT_NE(std::find(desc.begin(), desc.end(), x), desc.end())
          << "x=" << x << " a=" << a;
    }
  }
}

TEST_P(DagInvariantTest, TopologicalOrderRespectsAllEdges) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  CausalGraph graph = RandomDag(30, 0.12, &rng);
  Result<std::vector<NodeId>> order = graph.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), graph.num_nodes());
  std::vector<size_t> position(graph.num_nodes());
  for (size_t i = 0; i < order->size(); ++i) {
    position[static_cast<size_t>((*order)[i])] = i;
  }
  for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
    for (NodeId c : graph.Children(n)) {
      EXPECT_LT(position[n], position[c]);
    }
  }
}

TEST_P(DagInvariantTest, DirectedPathMatchesAncestry) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  CausalGraph graph = RandomDag(15, 0.2, &rng);
  for (NodeId x = 0; x < static_cast<NodeId>(graph.num_nodes()); ++x) {
    std::vector<NodeId> anc = graph.Ancestors({x});
    for (NodeId y = 0; y < static_cast<NodeId>(graph.num_nodes()); ++y) {
      bool is_ancestor =
          std::find(anc.begin(), anc.end(), y) != anc.end();
      EXPECT_EQ(graph.HasDirectedPath(y, x), is_ancestor)
          << "y=" << y << " x=" << x;
    }
  }
}

TEST_P(DagInvariantTest, ParentChildListsConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  CausalGraph graph = RandomDag(25, 0.15, &rng);
  size_t total_parent_links = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
    total_parent_links += graph.Parents(n).size();
    for (NodeId p : graph.Parents(n)) {
      const NodeIdSpan children = graph.Children(p);
      EXPECT_NE(std::find(children.begin(), children.end(), n),
                children.end());
    }
  }
  EXPECT_EQ(total_parent_links, graph.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// d-separation global properties on random DAGs.
TEST(DSeparationInvariantTest, SymmetryAndMonotoneBehaviour) {
  Rng rng(777);
  for (int g = 0; g < 10; ++g) {
    CausalGraph graph = RandomDag(10, 0.25, &rng);
    for (int trial = 0; trial < 30; ++trial) {
      NodeId x = static_cast<NodeId>(rng.UniformInt(0, 9));
      NodeId y = static_cast<NodeId>(rng.UniformInt(0, 9));
      if (x == y) continue;
      std::vector<NodeId> z;
      for (NodeId c = 0; c < 10; ++c) {
        if (c != x && c != y && rng.Bernoulli(0.25)) z.push_back(c);
      }
      // Symmetry: X ⫫ Y | Z iff Y ⫫ X | Z.
      EXPECT_EQ(DSeparation(graph).Separated({x}, {y}, z),
                DSeparation(graph).Separated({y}, {x}, z));
      // Adjacent nodes are never d-separated (no Z can block the edge).
      const NodeIdSpan children = graph.Children(x);
      if (std::find(children.begin(), children.end(), y) != children.end()) {
        EXPECT_FALSE(DSeparation(graph).Separated({x}, {y}, z));
      }
    }
  }
}

}  // namespace
}  // namespace carl
