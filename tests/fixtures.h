// Shared test fixtures: the thread-count guard, the mini-instance
// builders (REVIEW toy, MIMIC, NIS, SYNTH-REVIEW), and the two grounded
// graph comparison forms used across the suite —
//
//  * GraphFingerprint: an id-order fold of names, adjacency, values, and
//    num_groundings. Bit-strict: it distinguishes graphs that differ only
//    in node ids or edge order, so it is the right check for "identical
//    across thread counts" (same construction path).
//  * CanonicalGraph/Canonicalize: sorted name-based node/edge/value sets.
//    Id- and order-insensitive: the right check for "same graph" across
//    different construction paths (incremental extend vs from-scratch,
//    whose raw ids and edge commit order legitimately differ).
//
// Keep builders deterministic (fixed seeds) — several suites assert
// bit-identical results across thread counts on the same dataset.

#ifndef CARL_TESTS_FIXTURES_H_
#define CARL_TESTS_FIXTURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "carl/carl.h"
#include "datagen/dataset.h"

namespace carl {
namespace test_fixtures {

// Restores the previous global thread count on scope exit so tests
// cannot leak a thread configuration into each other (the TSan CI job
// runs test binaries with CARL_THREADS=4 and must stay parallel).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads)
      : prev_(ExecContext::Global().threads()) {
    ExecContext::Global().set_threads(threads);
  }
  ~ScopedThreads() { ExecContext::Global().set_threads(prev_); }

 private:
  int prev_;
};

struct NamedDataset {
  const char* name;
  datagen::Dataset dataset;
};

/// The hand-built review toy (datagen::MakeReviewToy), CHECK-ok.
datagen::Dataset ReviewToyDataset();

/// MIMIC-III(sim) mini instance. The 3000/120 default gives the unit
/// table many chunks, so its threads=N legs really run in parallel.
datagen::Dataset MiniMimicDataset(size_t num_patients = 3000,
                                  size_t num_caregivers = 120);

/// NIS(sim) mini instance.
datagen::Dataset MiniNisDataset(size_t num_admissions = 6000,
                                size_t num_hospitals = 100);

/// SYNTH-REVIEW mini instance (SCM-simulated review data).
datagen::Dataset SynthReviewDataset(size_t num_authors = 800,
                                    size_t num_institutions = 40,
                                    size_t num_papers = 6000,
                                    size_t num_venues = 20);

/// Realistic REVIEW (datagen::RealisticReviewConfig) at 600 authors, 300
/// papers and 30 institutions: small enough for the sanitizer legs, and
/// every §4.3 path query of the history-independence pool answers on it.
datagen::Dataset RealisticReviewDataset();

/// REVIEW toy + MIMIC + NIS: the binding-stream equivalence workloads.
std::vector<NamedDataset> StreamWorkloads();

/// MIMIC + SYNTH-REVIEW: large rules with many bindings per rule.
std::vector<NamedDataset> GraphWorkloads();

/// Two entities (Person, Item), one relationship (Owns), two numeric
/// attributes (Age on Person, Price on Item) — the storage suite's
/// minimal schema. Owns deliberately bears no attribute, which also
/// makes it the canonical "irrelevant relation" for cache-invalidation
/// scoping tests.
Schema MakePersonItemSchema();

/// A grounded graph built by the plain per-binding loop over public APIs
/// only — the reference GroundModel must reproduce exactly (raw node ids
/// and args, edge log order, parent/child order, num_groundings) at every
/// thread count. Nodes: AddNode per fact row, attribute by attribute in
/// schema order. Then every rule in model order (causal rules, then
/// aggregate rules): QueryEvaluator::Evaluate over the rule's variables
/// in first-occurrence order (head, then body), AddNode for the head and
/// each resolvable body ref per binding, and one AddEdges per rule. An
/// unresolvable body ref drops its edge; in an aggregate rule it drops
/// the binding. No values, no aggregate tags.
struct ReferenceGrounding {
  CausalGraph graph;
  size_t num_groundings = 0;
};
ReferenceGrounding GroundByBinding(const Instance& instance,
                                   const RelationalCausalModel& model);

/// Algorithm 1 by the plain per-unit loop over public APIs only
/// (NodesOfAttribute, Parents, NodeValue, MakeEmbedding, the vector
/// Apply) — the reference BuildUnitTable must reproduce bit for bit
/// (column names and bits, units, dropped_units, relational, the three
/// column lists) at every thread count. Per unit, in row order: the
/// response grounding(s), a BFS over Parents with its own visited set
/// for the peers (sorted), then the valued non-treatment parents of T[x]
/// and of each peer's T[p] under one seen set. Then per-attribute groups
/// in std::maps, one embedding per group fitted on its widest group, and
/// one AddRow per unit. The first unit with a non-binary treatment
/// fails the build.
Result<UnitTable> UnitTableByUnit(const GroundedModel& grounded,
                                  const UnitTableRequest& request,
                                  const UnitTableOptions& options = {});

/// One stable id-order fingerprint of a grounded graph: names, parent and
/// child lists, value bit patterns, and num_groundings folded in node-id
/// order. See the file comment for when to use this vs Canonicalize.
uint64_t GraphFingerprint(const GroundedModel& grounded);

/// Canonical form: nodes, edges, and values as sorted name strings —
/// equal canonical forms mean the graphs are isomorphic under the only
/// sensible isomorphism (grounded-attribute identity). num_groundings is
/// deliberately excluded (an incremental extend may re-count a binding
/// witnessed by both old and new rows).
struct CanonicalGraph {
  std::vector<std::string> nodes;
  std::vector<std::string> edges;
  std::vector<std::string> values;

  bool operator==(const CanonicalGraph& o) const {
    return nodes == o.nodes && edges == o.edges && values == o.values;
  }
  bool operator!=(const CanonicalGraph& o) const { return !(*this == o); }
};

CanonicalGraph Canonicalize(const GroundedModel& grounded);

}  // namespace test_fixtures
}  // namespace carl

#endif  // CARL_TESTS_FIXTURES_H_
