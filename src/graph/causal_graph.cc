#include "graph/causal_graph.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/logging.h"
#include "common/str_util.h"
#include "relational/storage_stats.h"

namespace carl {

namespace causal_graph_internal {

std::vector<PendingEdge> MergeEdgeRun(std::vector<PendingEdge> pending,
                                      std::vector<EdgeKey>* committed) {
  // Sort by (key, seq): equal keys group together with their first
  // occurrence leading the group.
  std::sort(pending.begin(), pending.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              return a.key == b.key ? a.seq < b.seq : a.key < b.key;
            });
  std::vector<PendingEdge> survivors;
  survivors.reserve(pending.size());
  size_t keep = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (i > 0 && pending[i].key == pending[i - 1].key) continue;
    if (std::binary_search(committed->begin(), committed->end(),
                           pending[i].key)) {
      continue;
    }
    survivors.push_back(pending[i]);
    pending[keep++] = pending[i];  // compact the new keys, still sorted
  }
  // Merge the new keys into the committed run (both halves sorted).
  size_t old_size = committed->size();
  committed->reserve(old_size + keep);
  for (size_t i = 0; i < keep; ++i) committed->push_back(pending[i].key);
  std::inplace_merge(committed->begin(), committed->begin() + old_size,
                     committed->end());
  // Replay the survivors in their original call order.
  std::sort(survivors.begin(), survivors.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              return a.seq < b.seq;
            });
  return survivors;
}

}  // namespace causal_graph_internal

using causal_graph_internal::EdgeKey;
using causal_graph_internal::PendingEdge;

const std::vector<NodeId> CausalGraph::kNoNodes = {};

CausalGraph::CausalGraph(CausalGraph&& o) noexcept
    : node_attrs_(std::move(o.node_attrs_)),
      arg_arena_(std::move(o.arg_arena_)),
      arg_offsets_(std::move(o.arg_offsets_)),
      index_(std::move(o.index_)),
      by_attribute_(std::move(o.by_attribute_)),
      edge_order_(std::move(o.edge_order_)),
      edge_run_(std::move(o.edge_run_)),
      parent_offsets_(std::move(o.parent_offsets_)),
      parent_data_(std::move(o.parent_data_)),
      child_offsets_(std::move(o.child_offsets_)),
      child_data_(std::move(o.child_data_)),
      adjacency_fresh_(o.adjacency_fresh_.load(std::memory_order_relaxed)) {
  o.adjacency_fresh_.store(false, std::memory_order_relaxed);
}

CausalGraph& CausalGraph::operator=(CausalGraph&& o) noexcept {
  if (this == &o) return *this;
  node_attrs_ = std::move(o.node_attrs_);
  arg_arena_ = std::move(o.arg_arena_);
  arg_offsets_ = std::move(o.arg_offsets_);
  index_ = std::move(o.index_);
  by_attribute_ = std::move(o.by_attribute_);
  edge_order_ = std::move(o.edge_order_);
  edge_run_ = std::move(o.edge_run_);
  parent_offsets_ = std::move(o.parent_offsets_);
  parent_data_ = std::move(o.parent_data_);
  child_offsets_ = std::move(o.child_offsets_);
  child_data_ = std::move(o.child_data_);
  adjacency_fresh_.store(o.adjacency_fresh_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  o.adjacency_fresh_.store(false, std::memory_order_relaxed);
  return *this;
}

CausalGraph::CausalGraph(const CausalGraph& o)
    : node_attrs_(o.node_attrs_),
      arg_arena_(o.arg_arena_),
      arg_offsets_(o.arg_offsets_),
      index_(o.index_),
      by_attribute_(o.by_attribute_),
      edge_order_(o.edge_order_),
      edge_run_(o.edge_run_) {
  // The copy recompacts its own CSR on first read.
}

CausalGraph& CausalGraph::operator=(const CausalGraph& o) {
  if (this == &o) return *this;
  *this = CausalGraph(o);
  return *this;
}

NodeId CausalGraph::AddNode(AttributeId attribute, TupleView args) {
  return AddNodeImpl(attribute, args);
}

NodeId CausalGraph::AddNode(AttributeId attribute, const Tuple& args) {
  // The caller materialized an owned per-node key; count the event so a
  // per-node Tuple path cannot silently creep back into grounding.
  storage_stats::CountGraphNodeAlloc();
  return AddNodeImpl(attribute, TupleView(args));
}

NodeId CausalGraph::AddNodeImpl(AttributeId attribute, TupleView args,
                                uint64_t hash) {
  SpanIndex& attr_index = index_[attribute];
  auto key_of = [this](uint32_t id) { return NodeArgs(id); };
  uint32_t found = attr_index.Find(args, hash, key_of);
  if (found != SpanIndex::kNpos) return static_cast<NodeId>(found);
  NodeId id = static_cast<NodeId>(node_attrs_.size());
  node_attrs_.push_back(attribute);
  storage_stats::CountGrowth(arg_arena_, args.size());
  arg_arena_.insert(arg_arena_.end(), args.begin(), args.end());
  arg_offsets_.push_back(arg_arena_.size());
  attr_index.Insert(static_cast<uint32_t>(id), hash, key_of);
  by_attribute_[attribute].push_back(id);
  // The CSR offset arrays do not cover the new node yet.
  adjacency_fresh_.store(false, std::memory_order_relaxed);
  return id;
}

void CausalGraph::AddNodesBulk(const std::vector<NodeBatch>& batches) {
  // Lay out id and arena ranges and size both stores once, so the batch
  // loop below never reallocates the arena.
  std::vector<size_t> id_offsets(batches.size());
  std::vector<size_t> sym_offsets(batches.size());
  size_t total = node_attrs_.size();
  size_t sym_total = arg_arena_.size();
  for (size_t b = 0; b < batches.size(); ++b) {
    const NodeBatch& batch = batches[b];
    CARL_CHECK(index_[batch.attribute].empty() &&
               by_attribute_[batch.attribute].empty())
        << "AddNodesBulk: attribute already has nodes";
    id_offsets[b] = total;
    sym_offsets[b] = sym_total;
    total += batch.rows.size();
    sym_total += batch.rows.size() * batch.rows.arity();
  }
  node_attrs_.resize(total);
  arg_arena_.resize(sym_total);
  arg_offsets_.resize(total + 1);

  for (size_t b = 0; b < batches.size(); ++b) {
    const NodeBatch& batch = batches[b];
    const RelationView& rows = batch.rows;
    const size_t arity = rows.arity();
    SpanIndex& attr_index = index_[batch.attribute];
    // Batch-local key accessor: the index only ever holds this batch's
    // ids, whose spans follow from the batch's own arena range.
    const SymbolId* base = arg_arena_.data() + sym_offsets[b];
    const size_t first_id = id_offsets[b];
    auto key_of = [base, first_id, arity](uint32_t id) {
      return TupleView(base + (id - first_id) * arity, arity);
    };
    std::vector<NodeId>& ids = by_attribute_[batch.attribute];
    attr_index.Reserve(rows.size(), key_of);
    ids.reserve(rows.size());
    if (rows.size() > 0) {
      // One contiguous copy: the batch's rows are an arity-strided
      // arena themselves.
      std::memcpy(arg_arena_.data() + sym_offsets[b], rows.data(),
                  rows.size() * arity * sizeof(SymbolId));
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      NodeId id = static_cast<NodeId>(id_offsets[b] + r);
      node_attrs_[id] = batch.attribute;
      arg_offsets_[id + 1] = sym_offsets[b] + (r + 1) * arity;
      CARL_DCHECK(attr_index.Find(rows[r], rows[r].Hash(), key_of) ==
                  SpanIndex::kNpos)
          << "AddNodesBulk: duplicate rows in batch";
      attr_index.Insert(static_cast<uint32_t>(id), rows[r].Hash(), key_of);
      ids.push_back(id);
    }
    // Release-mode guard: a duplicate row would have collapsed two ids
    // onto one key and silently split the node across the index.
    CARL_CHECK(attr_index.size() == rows.size())
        << "AddNodesBulk: duplicate rows in batch";
  }
  adjacency_fresh_.store(false, std::memory_order_relaxed);
}

void CausalGraph::ExtendNodesBulk(const std::vector<NodeBatch>& batches,
                                  const std::vector<size_t>& prior_rows) {
  CARL_CHECK(batches.size() == prior_rows.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    const NodeBatch& batch = batches[b];
    const RelationView& rows = batch.rows;
    const size_t old = prior_rows[b];
    CARL_CHECK(old <= rows.size())
        << "ExtendNodesBulk: rows shrank (deletes need a full rebuild)";
    if (old == rows.size()) continue;
    std::vector<NodeId>& ids = by_attribute_[batch.attribute];
    CARL_CHECK(ids.size() >= old)
        << "ExtendNodesBulk: attribute missing its row-aligned prefix";
    const size_t extras_begin = old;
    const size_t extras_end = ids.size();
    // Intern the new rows. AddNodeImpl dedupes, so a node a rule merge
    // added for a then-non-fact tuple is reused (and must be promoted
    // from the extras tail into the row-aligned section below).
    std::vector<NodeId> row_nodes;
    row_nodes.reserve(rows.size() - old);
    for (size_t r = old; r < rows.size(); ++r) {
      row_nodes.push_back(AddNodeImpl(batch.attribute, rows[r]));
    }
    std::vector<NodeId> promoted(row_nodes);
    std::sort(promoted.begin(), promoted.end());
    // Rebuild the id column: [old row-aligned prefix][new row nodes]
    // [surviving extras, original relative order]. AddNodeImpl pushed
    // fresh ids onto the tail; those are all in row_nodes and get
    // filtered out of the extras scan along with promoted reuses.
    std::vector<NodeId> rebuilt;
    rebuilt.reserve(ids.size());
    rebuilt.insert(rebuilt.end(), ids.begin(),
                   ids.begin() + static_cast<ptrdiff_t>(old));
    rebuilt.insert(rebuilt.end(), row_nodes.begin(), row_nodes.end());
    for (size_t i = extras_begin; i < extras_end; ++i) {
      if (!std::binary_search(promoted.begin(), promoted.end(), ids[i])) {
        rebuilt.push_back(ids[i]);
      }
    }
    ids = std::move(rebuilt);
  }
  adjacency_fresh_.store(false, std::memory_order_relaxed);
}

NodeId CausalGraph::FindNode(AttributeId attribute, TupleView args) const {
  auto attr_it = index_.find(attribute);
  if (attr_it == index_.end()) return kInvalidNode;
  auto key_of = [this](uint32_t id) { return NodeArgs(id); };
  uint32_t found = attr_it->second.Find(args, args.Hash(), key_of);
  return found == SpanIndex::kNpos ? kInvalidNode
                                   : static_cast<NodeId>(found);
}

void CausalGraph::ReserveEdges(size_t expected) {
  edge_run_.reserve(edge_run_.size() + expected);
  edge_order_.reserve(edge_order_.size() + expected);
}

void CausalGraph::AddEdge(NodeId from, NodeId to) {
  CARL_DCHECK(from >= 0 && static_cast<size_t>(from) < num_nodes());
  CARL_DCHECK(to >= 0 && static_cast<size_t>(to) < num_nodes());
  EdgeKey key{from, to};
  auto it = std::lower_bound(edge_run_.begin(), edge_run_.end(), key);
  if (it != edge_run_.end() && *it == key) return;
  edge_run_.insert(it, key);
  edge_order_.push_back(Edge{from, to});
  adjacency_fresh_.store(false, std::memory_order_relaxed);
}

void CausalGraph::AddEdges(const std::vector<Edge>& batch) {
  std::vector<PendingEdge> pending;
  pending.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    CARL_DCHECK(batch[i].from >= 0 &&
                static_cast<size_t>(batch[i].from) < num_nodes());
    CARL_DCHECK(batch[i].to >= 0 &&
                static_cast<size_t>(batch[i].to) < num_nodes());
    pending.push_back(
        PendingEdge{EdgeKey{batch[i].from, batch[i].to},
                    static_cast<uint32_t>(i)});
  }
  std::vector<PendingEdge> survivors =
      MergeEdgeRun(std::move(pending), &edge_run_);
  if (survivors.empty()) return;
  edge_order_.reserve(edge_order_.size() + survivors.size());
  for (const PendingEdge& e : survivors) {
    edge_order_.push_back(Edge{static_cast<NodeId>(e.key.from),
                               static_cast<NodeId>(e.key.to)});
  }
  adjacency_fresh_.store(false, std::memory_order_relaxed);
}

void CausalGraph::RebuildAdjacency() const {
  const size_t n = num_nodes();
  const size_t e = edge_order_.size();
  parent_offsets_.assign(n + 1, 0);
  child_offsets_.assign(n + 1, 0);
  for (const Edge& edge : edge_order_) {
    ++parent_offsets_[edge.to + 1];
    ++child_offsets_[edge.from + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    parent_offsets_[i] += parent_offsets_[i - 1];
    child_offsets_[i] += child_offsets_[i - 1];
  }
  parent_data_.resize(e);
  child_data_.resize(e);
  // Fill in commit order: within each node the list order equals the
  // order a serial per-node push_back loop produced.
  std::vector<uint32_t> pcur(parent_offsets_.begin(),
                             parent_offsets_.end() - 1);
  std::vector<uint32_t> ccur(child_offsets_.begin(),
                             child_offsets_.end() - 1);
  for (const Edge& edge : edge_order_) {
    parent_data_[pcur[edge.to]++] = edge.from;
    child_data_[ccur[edge.from]++] = edge.to;
  }
}

void CausalGraph::EnsureAdjacency() const {
  if (adjacency_fresh_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(adjacency_mu_);
  if (adjacency_fresh_.load(std::memory_order_relaxed)) return;
  RebuildAdjacency();
  adjacency_fresh_.store(true, std::memory_order_release);
}

GroundedAttribute CausalGraph::node(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes())
      << "node id out of range: " << id;
  return GroundedAttribute{node_attrs_[id],
                           NodeArgs(static_cast<uint32_t>(id))};
}

NodeIdSpan CausalGraph::Parents(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes());
  EnsureAdjacency();
  return NodeIdSpan(parent_data_.data() + parent_offsets_[id],
                    parent_offsets_[id + 1] - parent_offsets_[id]);
}

NodeIdSpan CausalGraph::Children(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < num_nodes());
  EnsureAdjacency();
  return NodeIdSpan(child_data_.data() + child_offsets_[id],
                    child_offsets_[id + 1] - child_offsets_[id]);
}

const std::vector<NodeId>& CausalGraph::NodesOfAttribute(
    AttributeId attribute) const {
  auto it = by_attribute_.find(attribute);
  return it == by_attribute_.end() ? kNoNodes : it->second;
}

Result<std::vector<NodeId>> CausalGraph::TopologicalOrder() const {
  EnsureAdjacency();
  const size_t n = num_nodes();
  std::vector<int> in_degree(n);
  for (size_t node = 0; node < n; ++node) {
    in_degree[node] =
        static_cast<int>(parent_offsets_[node + 1] - parent_offsets_[node]);
  }
  std::deque<NodeId> ready;
  for (size_t node = 0; node < n; ++node) {
    if (in_degree[node] == 0) ready.push_back(static_cast<NodeId>(node));
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    NodeId node = ready.front();
    ready.pop_front();
    order.push_back(node);
    for (NodeId c : Children(node)) {
      if (--in_degree[c] == 0) ready.push_back(c);
    }
  }
  if (order.size() != n) {
    return Status::FailedPrecondition(
        "causal graph has a cycle (recursive rules are not supported)");
  }
  return order;
}

bool CausalGraph::HasDirectedPath(NodeId from, NodeId to) const {
  if (from == to) return true;
  std::vector<bool> visited(num_nodes(), false);
  std::deque<NodeId> frontier{from};
  visited[from] = true;
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop_front();
    for (NodeId c : Children(n)) {
      if (c == to) return true;
      if (!visited[c]) {
        visited[c] = true;
        frontier.push_back(c);
      }
    }
  }
  return false;
}

namespace {

enum class Direction { kParents, kChildren };

std::vector<NodeId> Closure(const CausalGraph& graph,
                            const std::vector<NodeId>& seeds,
                            Direction direction) {
  std::vector<bool> visited(graph.num_nodes(), false);
  std::deque<NodeId> frontier;
  for (NodeId s : seeds) {
    if (!visited[s]) {
      visited[s] = true;
      frontier.push_back(s);
    }
  }
  std::vector<NodeId> out;
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop_front();
    out.push_back(n);
    NodeIdSpan next = direction == Direction::kParents ? graph.Parents(n)
                                                       : graph.Children(n);
    for (NodeId id : next) {
      if (!visited[id]) {
        visited[id] = true;
        frontier.push_back(id);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<NodeId> CausalGraph::Ancestors(
    const std::vector<NodeId>& seeds) const {
  return Closure(*this, seeds, Direction::kParents);
}

std::vector<NodeId> CausalGraph::Descendants(
    const std::vector<NodeId>& seeds) const {
  return Closure(*this, seeds, Direction::kChildren);
}

std::string CausalGraph::NodeName(NodeId id, const Schema& schema,
                                  const StringInterner& interner) const {
  const GroundedAttribute g = node(id);
  std::vector<std::string> names;
  names.reserve(g.args.size());
  for (SymbolId s : g.args) names.push_back(interner.ToString(s));
  return schema.attribute(g.attribute).name + "[" + Join(names, ", ") + "]";
}

std::vector<NodeId> DConnectedNodes(const CausalGraph& graph,
                                    const std::vector<NodeId>& x,
                                    const std::vector<NodeId>& z) {
  const size_t n = graph.num_nodes();
  std::vector<bool> in_z(n, false);
  for (NodeId id : z) in_z[id] = true;

  // Phase 1: ancestors of Z (inclusive).
  std::vector<bool> anc_z(n, false);
  for (NodeId id : graph.Ancestors(z)) anc_z[id] = true;

  // Phase 2: breadth-first over (node, direction) states.
  // direction: 0 = trail arrived from a child ("up"), 1 = from a parent
  // ("down").
  std::vector<bool> visited_up(n, false), visited_down(n, false);
  std::vector<bool> reachable(n, false);
  std::deque<std::pair<NodeId, int>> frontier;
  for (NodeId id : x) {
    if (!in_z[id]) frontier.emplace_back(id, 0);
  }
  while (!frontier.empty()) {
    auto [node, dir] = frontier.front();
    frontier.pop_front();
    auto& visited = dir == 0 ? visited_up : visited_down;
    if (visited[node]) continue;
    visited[node] = true;
    if (!in_z[node]) reachable[node] = true;

    if (dir == 0) {
      // Arrived from a child; if not conditioned, the trail may continue to
      // parents (chain) and to children (fork at this node).
      if (!in_z[node]) {
        for (NodeId p : graph.Parents(node)) frontier.emplace_back(p, 0);
        for (NodeId c : graph.Children(node)) frontier.emplace_back(c, 1);
      }
    } else {
      // Arrived from a parent.
      if (!in_z[node]) {
        for (NodeId c : graph.Children(node)) frontier.emplace_back(c, 1);
      }
      // Collider (or descendant-of-conditioned) opens toward parents when
      // this node is an ancestor of Z.
      if (anc_z[node]) {
        for (NodeId p : graph.Parents(node)) frontier.emplace_back(p, 0);
      }
    }
  }
  std::vector<NodeId> out;
  for (size_t i = 0; i < n; ++i) {
    if (reachable[i]) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

bool DSeparated(const CausalGraph& graph, const std::vector<NodeId>& x,
                const std::vector<NodeId>& y, const std::vector<NodeId>& z) {
  std::vector<bool> in_z(graph.num_nodes(), false);
  for (NodeId id : z) in_z[id] = true;
  std::vector<NodeId> x_eff, y_eff;
  for (NodeId id : x) {
    if (!in_z[id]) x_eff.push_back(id);
  }
  for (NodeId id : y) {
    if (!in_z[id]) y_eff.push_back(id);
  }
  if (x_eff.empty() || y_eff.empty()) return true;

  std::vector<NodeId> reachable = DConnectedNodes(graph, x_eff, z);
  std::vector<bool> is_reachable(graph.num_nodes(), false);
  for (NodeId id : reachable) is_reachable[id] = true;
  for (NodeId id : y_eff) {
    if (is_reachable[id]) return false;
  }
  return true;
}

}  // namespace carl
