// CausalGraph: the grounded relational causal graph G(Φ∆) (paper §3.2.3).
//
// Nodes are grounded attributes A[x] — an attribute function applied to a
// tuple of interned constants. Edges run cause -> effect, i.e. from each
// body grounding to the head grounding of a grounded rule. The graph must
// be a DAG (the paper restricts models to non-recursive rule sets).
//
// Storage layout (the graph is rebuilt per model variant, so build cost
// and per-node footprint are the design):
//   * Node arguments live in ONE arity-strided SymbolId arena; a node's
//     args are a TupleView span into it, never an owned per-node Tuple.
//     Interning probes the arena through per-attribute SpanIndexes with
//     keys assembled in caller scratch — zero owned key tuples anywhere.
//   * Adjacency is CSR: one contiguous parent array + one child array with
//     per-node offset ranges, built in a single counting pass over the
//     committed edge sequence. Edges committed after a build land in a
//     dynamic overlay (the uncompacted tail of the edge log) and are
//     folded in by recompacting on the first adjacency read — reads always
//     see per-node lists byte-identical to the historical per-node
//     push_back vectors.
//
// Thread contract: writes (AddNode*, AddEdge*) are single-threaded and
// must not overlap reads; FindNode / node / Parents / Children are safe
// from concurrent readers (the lazy adjacency compaction is internally
// synchronized).

#ifndef CARL_GRAPH_CAUSAL_GRAPH_H_
#define CARL_GRAPH_CAUSAL_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "relational/schema.h"
#include "relational/span_index.h"
#include "relational/tuple.h"

namespace carl {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

namespace causal_graph_internal {

/// Edge identity for the sorted-run dedupe, compared field-wise over
/// 64-bit ids. The historical dedupe packed (from << 32) | (uint32)to
/// into one uint64_t, which silently collides for any NodeId wider than
/// 32 bits; this representation is collision-free for every id width.
struct EdgeKey {
  int64_t from = 0;
  int64_t to = 0;

  friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
    return a.from == b.from && a.to == b.to;
  }
  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  }
};

/// A batched edge plus its AddEdges call position.
struct PendingEdge {
  EdgeKey key;
  uint32_t seq = 0;
};

/// The sorted-run merge behind CausalGraph::AddEdges: drops pending
/// duplicates (keeping the lowest seq of each key) and keys already in
/// the sorted `committed` run, merges the survivors' keys into
/// `committed` (which stays sorted), and returns the survivors ordered
/// by seq — the exact first-occurrence sequence a serial AddEdge loop
/// would have committed. Exposed for width-regression testing.
std::vector<PendingEdge> MergeEdgeRun(std::vector<PendingEdge> pending,
                                      std::vector<EdgeKey>* committed);

}  // namespace causal_graph_internal

/// A grounded attribute A[x]. `args` is a span into the graph's argument
/// arena — valid until the next node insertion into the graph.
struct GroundedAttribute {
  AttributeId attribute = kInvalidAttribute;
  TupleView args;

  bool operator==(const GroundedAttribute& o) const {
    return attribute == o.attribute && args == o.args;
  }
};

/// Non-owning view of one CSR adjacency list (a node's parents or
/// children, in edge commit order). Valid until the next graph mutation.
class NodeIdSpan {
 public:
  using value_type = NodeId;
  using const_iterator = const NodeId*;

  NodeIdSpan() = default;
  NodeIdSpan(const NodeId* data, size_t size) : data_(data), size_(size) {}

  const NodeId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](size_t i) const { return data_[i]; }
  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }

  friend bool operator==(NodeIdSpan a, NodeIdSpan b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(NodeIdSpan a, NodeIdSpan b) { return !(a == b); }

 private:
  const NodeId* data_ = nullptr;
  size_t size_ = 0;
};

class CausalGraph {
 public:
  CausalGraph() = default;
  /// Moves/copies transfer the node and edge stores; the adjacency
  /// synchronization state is rebuilt (the CSR recompacts lazily on the
  /// next read). Must not race in-flight readers of the source.
  CausalGraph(CausalGraph&& o) noexcept;
  CausalGraph& operator=(CausalGraph&& o) noexcept;
  CausalGraph(const CausalGraph& o);
  CausalGraph& operator=(const CausalGraph& o);

  /// Interns a node; returns the existing id when already present. The
  /// span overload is the hot path and appends straight into the argument
  /// arena on a miss — `args` must not alias this graph's own arena. The
  /// Tuple overload is the owned-key convenience for tests and hand-built
  /// graphs; each call counts as a graph-node allocation event
  /// (storage_stats::GraphNodeAllocCount), so per-node Tuple paths cannot
  /// silently creep back into grounding.
  NodeId AddNode(AttributeId attribute, TupleView args);
  NodeId AddNode(AttributeId attribute, const Tuple& args);
  /// Precomputed-hash hot path: `hash` must equal args.Hash(). The
  /// grounding splice passes memoized BindingTable row hashes here so a
  /// grounding key is hashed once per lifetime, not once per probe.
  NodeId AddNode(AttributeId attribute, TupleView args, uint64_t hash) {
    return AddNodeImpl(attribute, args, hash);
  }

  /// One attribute's grounding set for AddNodesBulk. The view must stay
  /// valid for the call and contain no duplicates (Instance::Rows
  /// qualifies).
  struct NodeBatch {
    AttributeId attribute = kInvalidAttribute;
    RelationView rows;
  };

  /// Bulk-interns one node per (batch attribute, row), assigning ids in
  /// batch-then-row order — exactly the ids a serial AddNode loop over the
  /// same batches would assign. The argument arena is sized once for the
  /// whole bulk (each batch is one contiguous copy); per-attribute indexes
  /// are built in parallel on `ctx`. Batch attributes must not already
  /// have nodes and must be pairwise distinct.
  void AddNodesBulk(const std::vector<NodeBatch>& batches, ExecContext& ctx);

  /// Extends attributes already built by AddNodesBulk with the rows their
  /// predicates gained since: batch b interns one node per row in
  /// [prior_rows[b], rows.size()), reusing nodes a rule merge already
  /// added for a then-non-fact tuple, and reorders the attribute's id
  /// column so its first rows.size() entries are row-aligned again (the
  /// NodesOfAttribute contract) with any surviving rule-added extras
  /// after them in their original relative order. Serial, sized to the
  /// delta, not the graph.
  void ExtendNodesBulk(const std::vector<NodeBatch>& batches,
                       const std::vector<size_t>& prior_rows);

  /// Node id for A[x], or kInvalidNode. The span overload is
  /// allocation-free and safe to call from concurrent readers (no writer).
  NodeId FindNode(AttributeId attribute, const Tuple& args) const {
    return FindNode(attribute, TupleView(args));
  }
  NodeId FindNode(AttributeId attribute, TupleView args) const {
    return FindNode(attribute, args, args.Hash());
  }
  /// Precomputed-hash overload (`hash` must equal args.Hash()); the
  /// parallel rule probe passes memoized row hashes instead of re-hashing.
  NodeId FindNode(AttributeId attribute, TupleView args,
                  uint64_t hash) const;

  /// Adds a cause -> effect edge; duplicate edges are ignored.
  /// Incremental convenience (tests, hand-built graphs) — bulk producers
  /// should batch through AddEdges. After the CSR adjacency has been
  /// built, the edge lands in the dynamic overlay and is folded in on the
  /// next adjacency read.
  void AddEdge(NodeId from, NodeId to);

  /// One cause -> effect edge of an AddEdges batch.
  struct Edge {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
  };

  /// Commits a batch of edges with first-occurrence semantics: duplicates
  /// (within the batch or against already-present edges) are ignored, and
  /// surviving edges are appended in batch order — exactly the adjacency
  /// order a serial AddEdge loop over the same sequence produces. Dedupe
  /// is a sorted-run build (no hash set, collision-free for any NodeId
  /// width).
  void AddEdges(const std::vector<Edge>& batch);

  /// Pre-sizes edge storage for an expected number of additional edges.
  void ReserveEdges(size_t expected);

  size_t num_nodes() const { return node_attrs_.size(); }
  size_t num_edges() const { return edge_order_.size(); }

  /// The committed edge sequence in first-occurrence order. Stable
  /// positions: edges only append, so a consumer that remembered
  /// num_edges() can read the suffix to see exactly what a later splice
  /// added (the incremental-grounding aggregate reseed does).
  const std::vector<Edge>& edge_log() const { return edge_order_; }

  /// The node's attribute and argument span. The span stays valid until
  /// the next node insertion.
  GroundedAttribute node(NodeId id) const;

  /// Parents / children of a node, in edge commit order (byte-identical
  /// to the historical per-node vectors). Triggers adjacency compaction
  /// when edges or nodes were added since the last read; the span is
  /// valid until the next graph mutation.
  NodeIdSpan Parents(NodeId id) const;
  NodeIdSpan Children(NodeId id) const;

  /// All groundings of one attribute function (the paper's A∆), in id
  /// order. For attributes bulk-built by AddNodesBulk the first
  /// batch-size entries are row-aligned with the batch's rows — the
  /// row-aligned node-id column the grounding value pass and unit-table
  /// pass 1 read instead of per-row FindNode probes.
  const std::vector<NodeId>& NodesOfAttribute(AttributeId attribute) const;

  /// Topological order (parents before children), or FailedPrecondition
  /// if the graph has a cycle (recursive rule set).
  Result<std::vector<NodeId>> TopologicalOrder() const;

  /// True if the graph is acyclic.
  bool IsAcyclic() const { return TopologicalOrder().ok(); }

  /// True if a directed path from `from` to `to` exists (including
  /// from == to).
  bool HasDirectedPath(NodeId from, NodeId to) const;

  /// All ancestors of the seed set, including the seeds.
  std::vector<NodeId> Ancestors(const std::vector<NodeId>& seeds) const;
  /// All descendants of the seed set, including the seeds.
  std::vector<NodeId> Descendants(const std::vector<NodeId>& seeds) const;

  /// "Attr[c1,c2]" using a constant-name resolver (e.g. the instance's
  /// interner) and schema for the attribute name.
  std::string NodeName(NodeId id, const Schema& schema,
                       const StringInterner& interner) const;

 private:
  NodeId AddNodeImpl(AttributeId attribute, TupleView args) {
    return AddNodeImpl(attribute, args, args.Hash());
  }
  NodeId AddNodeImpl(AttributeId attribute, TupleView args, uint64_t hash);
  TupleView NodeArgs(uint32_t id) const {
    return TupleView(arg_arena_.data() + arg_offsets_[id],
                     static_cast<size_t>(arg_offsets_[id + 1] -
                                         arg_offsets_[id]));
  }
  /// Compacts the committed edge log into the CSR arrays when stale.
  /// Safe from concurrent readers; never runs concurrent with writes
  /// (the graph's thread contract).
  void EnsureAdjacency() const;
  void RebuildAdjacency() const;

  // Node store: one argument arena; node i's args are the span
  // [arg_offsets_[i], arg_offsets_[i+1]) of arg_arena_.
  std::vector<AttributeId> node_attrs_;
  std::vector<SymbolId> arg_arena_;
  std::vector<uint64_t> arg_offsets_{0};

  // Per-attribute span indexes over the node arena: probes take a
  // TupleView (no copy, no owned keys) and AddNodesBulk can build the
  // indexes of distinct attributes concurrently.
  std::unordered_map<AttributeId, SpanIndex> index_;
  std::unordered_map<AttributeId, std::vector<NodeId>> by_attribute_;

  // Committed edges in first-occurrence order (the CSR fill source) plus
  // one sorted dedupe run, kept merged across batches; the dedupe probe
  // is a binary search, never a packed-key hash. Edges committed after
  // the last compaction are the dynamic overlay: they live only in this
  // log (flagged by adjacency_fresh_) until a read recompacts the CSR
  // over the whole sequence.
  std::vector<Edge> edge_order_;
  std::vector<causal_graph_internal::EdgeKey> edge_run_;

  // CSR adjacency, rebuilt lazily on first read after a mutation. The
  // flag is the only cross-thread handshake: readers acquire-load it,
  // the (reader-side, mutex-serialized) compaction release-stores it,
  // writers relax-store false.
  mutable std::vector<uint32_t> parent_offsets_;
  mutable std::vector<NodeId> parent_data_;
  mutable std::vector<uint32_t> child_offsets_;
  mutable std::vector<NodeId> child_data_;
  mutable std::atomic<bool> adjacency_fresh_{false};
  mutable std::mutex adjacency_mu_;

  static const std::vector<NodeId> kNoNodes;
};

/// d-separation test: X ⫫ Y | Z in `graph`? Implemented with the standard
/// reachability ("Bayes ball") algorithm; linear in the graph size.
/// Nodes appearing in Z are removed from both X and Y first.
bool DSeparated(const CausalGraph& graph, const std::vector<NodeId>& x,
                const std::vector<NodeId>& y, const std::vector<NodeId>& z);

/// Nodes reachable from X by an active trail given conditioning set Z
/// (excluding conditioned nodes). Exposed for testing.
std::vector<NodeId> DConnectedNodes(const CausalGraph& graph,
                                    const std::vector<NodeId>& x,
                                    const std::vector<NodeId>& z);

}  // namespace carl

#endif  // CARL_GRAPH_CAUSAL_GRAPH_H_
