// Graph-store suite: the arena-backed CausalGraph node store and the
// per-rule grounding merge must be invisible to consumers — node-id
// columns stay row-aligned with the instance's fact rows, node args read
// back exactly, and at every thread count the grounded graph equals an
// independent per-binding reference grounding (raw ids, adjacency order,
// num_edges, num_groundings) on MIMIC, SYNTH-REVIEW and a model
// whose refs name constants, with values identical across thread counts.
// A warm grounding pass makes a bounded number of heap allocations,
// counted by the heap hook this binary installs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "carl/carl.h"
#include "fixtures.h"
#include "heap_hook.h"

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

// Raw equality with the per-binding reference: node ids and args, every
// node's parent and child lists in commit order, num_edges, and
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

// The review toy under a model whose rules repeat conditions: a pass
// shares one binding table between rules whose condition and projection
// are equal (the first two constrained Author rules, projecting [S, A]),
// and none between rules that differ only in a constraint's constant
// (> 10 / > 30), its operator (> 20 / >= 20; Carlos has 20) or the
// projection order (the aggregate rule's [A, S]).
NamedDataset SharedConditionsDataset() {
  datagen::Dataset data = test_fixtures::ReviewToyDataset();
  data.model_text = R"(
    Prestige[A] <= Qualification[A] WHERE Person(A)
    Quality[S] <= Qualification[A] WHERE Author(A, S), Qualification[A] > 10
    Score[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] > 10
    Quality[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] > 30
    Score[S] <= Qualification[A] WHERE Author(A, S), Qualification[A] > 20
    Quality[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] >= 20
    AVG_Score[A] <= Score[S] WHERE Author(A, S), Qualification[A] > 10
  )";
  return NamedDataset{"shared-conditions", std::move(data)};
}

// The per-rule merge against the plain per-binding loop, at threads
// {1, 2, 4}; the fingerprint (which also folds values) must not move
// with the thread count either.
TEST(GraphStoreTest, GroundingMatchesPerBindingReference) {
  std::vector<NamedDataset> workloads = GraphWorkloads();
  workloads.push_back(ConstantRefsDataset());
  workloads.push_back(SharedConditionsDataset());
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

// The grounding hot path reads bindings off columnar tables and interns
// nodes through span fast paths, so a warm pass allocates per-pass
// bookkeeping only, at every thread count. An owned Tuple per binding or
// per node adds one allocation per grounding (thousands here) and trips
// the bound, which bench_table2_runtime also CHECKs at full size.
TEST(GraphStoreTest, WarmGroundingHeapAllocationsAreBounded) {
  constexpr uint64_t kMaxGroundingAllocs = 1024;
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      // The first pass builds the match indexes; the second is warm.
      ASSERT_TRUE(GroundModel(*wl.dataset.instance, *model).ok()) << wl.name;
      const uint64_t before = heap_hook::Allocs();
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset.instance, *model);
      const uint64_t allocs = heap_hook::Allocs() - before;
      ASSERT_TRUE(grounded.ok()) << wl.name;
      EXPECT_LT(allocs, kMaxGroundingAllocs)
          << wl.name << " threads=" << threads << ": " << allocs
          << " heap allocations for " << grounded->num_groundings()
          << " groundings";
    }
  }
}

}  // namespace
}  // namespace carl
