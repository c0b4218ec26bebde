// Graph-store suite: the arena-backed CausalGraph node store and the
// per-rule grounding merge must be invisible to consumers — node-id
// columns stay row-aligned with the instance's fact rows, node args read
// back exactly, and at every thread count the grounded graph equals an
// independent per-binding reference grounding (raw ids, edge log,
// adjacency order, num_groundings) on MIMIC, SYNTH-REVIEW and a model
// whose refs name constants, with values identical across thread counts.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "carl/carl.h"
#include "fixtures.h"
#include "relational/storage_stats.h"

namespace carl {
namespace {

using test_fixtures::GraphFingerprint;
using test_fixtures::GraphWorkloads;
using test_fixtures::GroundByBinding;
using test_fixtures::NamedDataset;
using test_fixtures::ReferenceGrounding;
using test_fixtures::ScopedThreads;

// The invariant the node-id columns rely on: for every schema attribute,
// the first NumRows(predicate) entries of NodesOfAttribute are the
// per-row node ids, in row order.
TEST(GraphStoreTest, NodeIdColumnsAreRowAligned) {
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name << ": " << model.status();
    Result<GroundedModel> grounded = GroundModel(*wl.dataset.instance, *model);
    ASSERT_TRUE(grounded.ok()) << wl.name << ": " << grounded.status();
    const CausalGraph& graph = grounded->graph();
    const Schema& schema = grounded->schema();

    for (const AttributeDef& attr : schema.attributes()) {
      const RelationView rows = wl.dataset.instance->Rows(attr.predicate);
      const std::vector<NodeId>& col = graph.NodesOfAttribute(attr.id);
      ASSERT_GE(col.size(), rows.size()) << wl.name << " " << attr.name;
      for (size_t r = 0; r < rows.size(); ++r) {
        GroundedAttribute node = graph.node(col[r]);
        ASSERT_EQ(node.attribute, attr.id) << wl.name << " " << attr.name;
        ASSERT_EQ(node.args, rows[r])
            << wl.name << " " << attr.name << " row " << r;
      }
    }
  }
}

// Raw equality with the per-binding reference: node ids and args, the
// edge log in commit order, every node's parent and child lists, and
// num_groundings.
void ExpectMatchesReference(const ReferenceGrounding& reference,
                            const GroundedModel& grounded,
                            const std::string& label) {
  const CausalGraph& want = reference.graph;
  const CausalGraph& got = grounded.graph();
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << label;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << label;
  EXPECT_EQ(grounded.num_groundings(), reference.num_groundings) << label;
  for (NodeId id = 0; id < static_cast<NodeId>(want.num_nodes()); ++id) {
    ASSERT_TRUE(got.node(id) == want.node(id)) << label << " node " << id;
    ASSERT_EQ(got.Parents(id), want.Parents(id)) << label << " node " << id;
    ASSERT_EQ(got.Children(id), want.Children(id))
        << label << " node " << id;
  }
  for (size_t e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(got.edge_log()[e].from, want.edge_log()[e].from)
        << label << " edge " << e;
    ASSERT_EQ(got.edge_log()[e].to, want.edge_log()[e].to)
        << label << " edge " << e;
  }
}

// The review toy under a model whose refs name one interned constant
// ("Bob") and one never-interned constant ("nobody"). The latter sits in
// a causal rule's head, in one body of a two-body causal rule, and in an
// aggregate rule's source. GroundByBinding decides resolvability per
// binding; GroundModel decides it once per rule.
NamedDataset ConstantRefsDataset() {
  datagen::Dataset data = test_fixtures::ReviewToyDataset();
  CARL_CHECK(data.instance->LookupConstant("Bob") != kInvalidSymbol);
  CARL_CHECK(data.instance->LookupConstant("nobody") == kInvalidSymbol);
  data.model_text = R"(
    Prestige[A] <= Qualification[A] WHERE Person(A)
    Quality[S] <= Prestige["Bob"] WHERE Submission(S)
    Quality["nobody"] <= Prestige[A] WHERE Author(A, S)
    Score[S] <= Quality[S], Prestige["nobody"] WHERE Author(A, S)
    Score[S] <= Prestige[A], Prestige["Bob"] WHERE Author(A, S)
    MAX_Qualification[S] <= Qualification["nobody"] WHERE Submission(S)
    AVG_Qualification[S] <= Qualification[A] WHERE Author(A, S)
  )";
  return NamedDataset{"constant-refs", std::move(data)};
}

// The per-rule merge against the plain per-binding loop, at threads
// {1, 2, 4}; the fingerprint (which also folds values) must not move
// with the thread count either.
TEST(GraphStoreTest, GroundingMatchesPerBindingReference) {
  std::vector<NamedDataset> workloads = GraphWorkloads();
  workloads.push_back(ConstantRefsDataset());
  for (NamedDataset& wl : workloads) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;
    ReferenceGrounding reference =
        GroundByBinding(*wl.dataset.instance, *model);
    uint64_t one_thread_fp = 0;
    for (int threads : {1, 2, 4}) {
      ScopedThreads scoped(threads);
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(grounded.ok()) << wl.name << ": " << grounded.status();
      std::string label =
          std::string(wl.name) + " threads=" + std::to_string(threads);
      ExpectMatchesReference(reference, *grounded, label);
      uint64_t fp = GraphFingerprint(*grounded);
      if (threads == 1) one_thread_fp = fp;
      EXPECT_EQ(fp, one_thread_fp) << label;
    }
  }
}

// The grounding hot path must intern every node through span fast paths:
// zero owned per-node Tuples, at every thread count.
TEST(GraphStoreTest, GroundingBuildsZeroOwnedNodeTuples) {
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      storage_stats::ScopedAllocCounter allocs;
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(grounded.ok()) << wl.name;
      EXPECT_EQ(allocs.graph_node_delta(), 0u)
          << wl.name << " threads=" << threads
          << ": per-node Tuple path crept back into grounding";
      EXPECT_EQ(allocs.eval_result_delta(), 0u)
          << wl.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace carl
