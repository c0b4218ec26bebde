// CausalGraph: the grounded relational causal graph G(Φ∆) (paper §3.2.3).
//
// Nodes are grounded attributes A[x] — an attribute function applied to a
// tuple of interned constants. Edges run cause -> effect, i.e. from each
// body grounding to the head grounding of a grounded rule. The graph must
// be a DAG (the paper restricts models to non-recursive rule sets).
//
// Storage layout (a grounding is built once and then extended per
// instance delta, so build cost, extend cost and per-node footprint are
// the design):
//   * Node arguments live in ONE arity-strided SymbolId arena; a node's
//     args are a TupleView span into it, never an owned per-node Tuple.
//     Interning probes the arena through per-attribute SpanIndexes with
//     keys assembled in caller scratch — zero owned key tuples anywhere.
//   * Adjacency is two ListStores (parents, children): node i's lists are
//     list i of each, in edge commit order. AddEdges appends to exactly
//     the lists its surviving edges extend, so a post-build extend costs
//     the delta, not the graph. Each edge is stored once per direction.
//     CompactAdjacency lays both stores out in node order at exact sizes
//     (GroundModel calls it once after its merge).
//
// Thread contract: writes (AddNode*, AddEdge*, CompactAdjacency) are
// single-threaded and must not overlap reads; every read (FindNode, node,
// Parents, Children, ...) is a plain const read, safe from concurrent
// readers.

#ifndef CARL_GRAPH_CAUSAL_GRAPH_H_
#define CARL_GRAPH_CAUSAL_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "relational/list_store.h"
#include "relational/schema.h"
#include "relational/span_index.h"
#include "relational/tuple.h"

namespace carl {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// A grounded attribute A[x]. `args` is a span into the graph's argument
/// arena — valid until the next node insertion into the graph.
struct GroundedAttribute {
  AttributeId attribute = kInvalidAttribute;
  TupleView args;

  bool operator==(const GroundedAttribute& o) const {
    return attribute == o.attribute && args == o.args;
  }
};

/// Non-owning view of one adjacency list (a node's parents or children,
/// in edge commit order). Valid until the next graph mutation.
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
  /// Interns a node; returns the existing id when already present. The
  /// span overload is the hot path and appends straight into the argument
  /// arena on a miss — `args` must not alias this graph's own arena. The
  /// Tuple overload is the owned-key convenience for tests and hand-built
  /// graphs.
  NodeId AddNode(AttributeId attribute, TupleView args);
  NodeId AddNode(AttributeId attribute, const Tuple& args);
  /// Precomputed-hash hot path: `hash` must equal args.Hash(). The
  /// grounding merge passes memoized BindingTable row hashes here, so a
  /// binding that is its own grounding key is never hashed again.
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
  /// whole bulk (each batch is one contiguous copy). Batch attributes must
  /// not already have nodes and must be pairwise distinct.
  void AddNodesBulk(const std::vector<NodeBatch>& batches);

  /// Extends attributes already built by AddNodesBulk with the rows their
  /// predicates gained since: batch b interns one node per row in
  /// [prior_rows[b], rows.size()), reusing nodes a rule merge already
  /// added for a then-non-fact tuple, and reorders the attribute's id
  /// column so its first rows.size() entries are row-aligned again (the
  /// NodesOfAttribute contract) with any surviving rule-added extras
  /// after them in their original relative order. An attribute without
  /// extras needs no reorder (its fresh ids append in row order), so
  /// the common call is sized to the delta, not the graph.
  void ExtendNodesBulk(const std::vector<NodeBatch>& batches,
                       const std::vector<size_t>& prior_rows);

  /// Node id for A[x], or kInvalidNode. The span overload is
  /// allocation-free and safe to call from concurrent readers (no writer).
  NodeId FindNode(AttributeId attribute, const Tuple& args) const {
    return FindNode(attribute, TupleView(args));
  }
  NodeId FindNode(AttributeId attribute, TupleView args) const;

  /// Adds a cause -> effect edge; duplicate edges are ignored.
  /// Incremental convenience (tests, hand-built graphs) — bulk producers
  /// should batch through AddEdges.
  void AddEdge(NodeId from, NodeId to) { AddEdges({Edge{from, to}}); }

  /// One cause -> effect edge of an AddEdges batch.
  struct Edge {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
  };

  /// Commits a batch of edges with first-occurrence semantics: duplicates
  /// (within the batch or against already-present edges) are ignored, and
  /// surviving edges are appended in batch order — exactly the adjacency
  /// order a serial AddEdge loop over the same sequence produces. Dedupe
  /// groups the batch by target and epoch-stamps each target's current
  /// parents, so it scans only the lists the batch touches.
  void AddEdges(const std::vector<Edge>& batch);

  /// Lays both adjacency stores out in node order at exact sizes.
  void CompactAdjacency() {
    parents_.Compact();
    children_.Compact();
  }

  size_t num_nodes() const { return node_attrs_.size(); }
  size_t num_edges() const { return parents_.live(); }

  /// The node's attribute and argument span. The span stays valid until
  /// the next node insertion. Defined here, like Parents and Children:
  /// the unit table's peer search reads them once per visited node.
  GroundedAttribute node(NodeId id) const {
    CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes())
        << "node id out of range: " << id;
    return GroundedAttribute{node_attrs_[id],
                             NodeArgs(static_cast<uint32_t>(id))};
  }

  /// Parents / children of a node, in edge commit order (byte-identical
  /// to the historical per-node vectors). The span is valid until the
  /// next graph mutation.
  NodeIdSpan Parents(NodeId id) const {
    CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes());
    const uint32_t list = static_cast<uint32_t>(id);
    return NodeIdSpan(parents_.data(list), parents_.size(list));
  }
  NodeIdSpan Children(NodeId id) const {
    CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes());
    const uint32_t list = static_cast<uint32_t>(id);
    return NodeIdSpan(children_.data(list), children_.size(list));
  }

  /// All groundings of one attribute function (the paper's A∆), in id
  /// order. For attributes bulk-built by AddNodesBulk the first
  /// batch-size entries are row-aligned with the batch's rows — the
  /// row-aligned node-id column the grounding value pass and the unit
  /// table's pass read instead of per-row FindNode probes.
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

  // Node store: one argument arena; node i's args are the span
  // [arg_offsets_[i], arg_offsets_[i+1]) of arg_arena_.
  std::vector<AttributeId> node_attrs_;
  std::vector<SymbolId> arg_arena_;
  std::vector<uint64_t> arg_offsets_{0};

  // Per-attribute span indexes over the node arena: probes take a
  // TupleView (no copy, no owned keys).
  std::unordered_map<AttributeId, SpanIndex> index_;
  std::unordered_map<AttributeId, std::vector<NodeId>> by_attribute_;

  // Adjacency: list i of each store is node i's parents / children, in
  // edge commit order.
  ListStore<NodeId> parents_;
  ListStore<NodeId> children_;
  // AddEdges dedupe scratch: edge_mark_[p] == edge_epoch_ iff p is already
  // a parent of the target being committed.
  std::vector<uint32_t> edge_mark_;
  uint32_t edge_epoch_ = 0;

  static const std::vector<NodeId> kNoNodes;
};

/// d-separation queries on one graph by the reachability ("Bayes ball")
/// algorithm, on scratch kept across queries: epoch stamps over node ids,
/// sized once and bumped per query instead of cleared, so a query costs
/// only the nodes it visits. The graph must outlive it, unchanged.
class DSeparation {
 public:
  explicit DSeparation(const CausalGraph& graph) : graph_(graph) {}

  /// X ⫫ Y | Z? Nodes appearing in Z are removed from both X and Y first;
  /// when either is then empty the answer is true without a traversal.
  bool Separated(const std::vector<NodeId>& x, const std::vector<NodeId>& y,
                 const std::vector<NodeId>& z);

  /// Nodes reachable from X by an active trail given Z (excluding
  /// conditioned nodes), ascending.
  std::vector<NodeId> ConnectedNodes(const std::vector<NodeId>& x,
                                     const std::vector<NodeId>& z);

 private:
  // Per node, the epoch of the query that last set each flag.
  struct Marks {
    uint32_t in_z = 0;
    uint32_t anc_z = 0;   // an ancestor of Z (Z included)
    uint32_t target = 0;  // in Y
    uint32_t up = 0;      // entered by a trail from a child
    uint32_t down = 0;    // entered by a trail from a parent
  };
  enum Arrival : uint8_t { kFromChild, kFromParent };

  // Starts a query: bumps the epoch and marks Z.
  void Begin(const std::vector<NodeId>& z);
  // Marks the ancestors of Z, then follows active trails from X \ Z,
  // calling reach(node) once per reached unconditioned node until it
  // returns true; returns whether it did.
  template <typename Reach>
  bool Traverse(const std::vector<NodeId>& x, const std::vector<NodeId>& z,
                Reach&& reach);

  const CausalGraph& graph_;
  std::vector<Marks> marks_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
  std::vector<std::pair<NodeId, Arrival>> frontier_;
};

/// d-separation test: X ⫫ Y | Z in `graph`? One DSeparation query on
/// fresh scratch.
bool DSeparated(const CausalGraph& graph, const std::vector<NodeId>& x,
                const std::vector<NodeId>& y, const std::vector<NodeId>& z);

/// Nodes reachable from X by an active trail given conditioning set Z
/// (excluding conditioned nodes), ascending. Exposed for testing.
std::vector<NodeId> DConnectedNodes(const CausalGraph& graph,
                                    const std::vector<NodeId>& x,
                                    const std::vector<NodeId>& z);

}  // namespace carl

#endif  // CARL_GRAPH_CAUSAL_GRAPH_H_
