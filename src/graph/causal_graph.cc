#include "graph/causal_graph.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/logging.h"
#include "common/str_util.h"

namespace carl {

const std::vector<NodeId> CausalGraph::kNoNodes = {};

NodeId CausalGraph::AddNode(AttributeId attribute, TupleView args) {
  return AddNodeImpl(attribute, args);
}

NodeId CausalGraph::AddNode(AttributeId attribute, const Tuple& args) {
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
  arg_arena_.insert(arg_arena_.end(), args.begin(), args.end());
  arg_offsets_.push_back(arg_arena_.size());
  attr_index.Insert(static_cast<uint32_t>(id), hash, key_of);
  by_attribute_[attribute].push_back(id);
  parents_.AddLists(1);
  children_.AddLists(1);
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
  parents_.AddLists(total - node_attrs_.size());
  children_.AddLists(total - node_attrs_.size());
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
    // Without extras no row matched an existing node: AddNodeImpl
    // appended one fresh id per row, so the column is row-aligned already.
    if (extras_begin == extras_end) continue;
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
}

NodeId CausalGraph::FindNode(AttributeId attribute, TupleView args) const {
  auto attr_it = index_.find(attribute);
  if (attr_it == index_.end()) return kInvalidNode;
  auto key_of = [this](uint32_t id) { return NodeArgs(id); };
  uint32_t found = attr_it->second.Find(args, args.Hash(), key_of);
  return found == SpanIndex::kNpos ? kInvalidNode
                                   : static_cast<NodeId>(found);
}

void CausalGraph::AddEdges(const std::vector<Edge>& batch) {
  if (batch.empty()) return;
  CARL_CHECK(batch.size() <= UINT32_MAX) << "AddEdges: batch too large";
  // Group the batch by target, call order within each target: one
  // (target << 32 | call position) key per edge.
  std::vector<uint64_t> by_target(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    CARL_DCHECK(batch[i].from >= 0 &&
                static_cast<size_t>(batch[i].from) < num_nodes());
    CARL_DCHECK(batch[i].to >= 0 &&
                static_cast<size_t>(batch[i].to) < num_nodes());
    by_target[i] = (uint64_t{static_cast<uint32_t>(batch[i].to)} << 32) | i;
  }
  std::sort(by_target.begin(), by_target.end());
  // Per target: stamp its current parents, then keep an edge only when
  // its source is unstamped — the first occurrence — and stamp it.
  edge_mark_.resize(num_nodes(), 0);
  std::vector<char> keep(batch.size(), 0);
  for (size_t g = 0; g < by_target.size();) {
    const NodeId to = static_cast<NodeId>(by_target[g] >> 32);
    if (++edge_epoch_ == 0) {
      std::fill(edge_mark_.begin(), edge_mark_.end(), 0);
      edge_epoch_ = 1;
    }
    for (NodeId p : Parents(to)) edge_mark_[p] = edge_epoch_;
    for (; g < by_target.size() &&
           static_cast<NodeId>(by_target[g] >> 32) == to;
         ++g) {
      const size_t i = static_cast<uint32_t>(by_target[g]);
      uint32_t& mark = edge_mark_[batch[i].from];
      if (mark == edge_epoch_) continue;
      mark = edge_epoch_;
      keep[i] = 1;
    }
  }
  // Survivors append in call order, so every list stays in commit order.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!keep[i]) continue;
    parents_.Append(static_cast<uint32_t>(batch[i].to), batch[i].from);
    children_.Append(static_cast<uint32_t>(batch[i].from), batch[i].to);
  }
}

const std::vector<NodeId>& CausalGraph::NodesOfAttribute(
    AttributeId attribute) const {
  auto it = by_attribute_.find(attribute);
  return it == by_attribute_.end() ? kNoNodes : it->second;
}

Result<std::vector<NodeId>> CausalGraph::TopologicalOrder() const {
  const size_t n = num_nodes();
  std::vector<int> in_degree(n);
  for (size_t node = 0; node < n; ++node) {
    in_degree[node] = static_cast<int>(parents_.size(node));
  }
  // Kahn's algorithm with `order` as its FIFO queue: order[i] is popped
  // at step i, so the result is the order a separate queue would give.
  std::vector<NodeId> order;
  order.reserve(n);
  for (size_t node = 0; node < n; ++node) {
    if (in_degree[node] == 0) order.push_back(static_cast<NodeId>(node));
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (NodeId c : Children(order[i])) {
      if (--in_degree[c] == 0) order.push_back(c);
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

void DSeparation::Begin(const std::vector<NodeId>& z) {
  marks_.resize(graph_.num_nodes());
  if (++epoch_ == 0) {  // wrapped: stale stamps would alias this query
    std::fill(marks_.begin(), marks_.end(), Marks());
    epoch_ = 1;
  }
  for (NodeId id : z) marks_[id].in_z = epoch_;
}

template <typename Reach>
bool DSeparation::Traverse(const std::vector<NodeId>& x,
                           const std::vector<NodeId>& z, Reach&& reach) {
  const uint32_t epoch = epoch_;

  // Phase 1: the ancestors of Z, Z included. A collider opens when it or
  // one of its descendants is conditioned on, i.e. when it is one of them.
  stack_.clear();
  auto mark_ancestor = [&](NodeId id) {
    if (marks_[id].anc_z == epoch) return;
    marks_[id].anc_z = epoch;
    stack_.push_back(id);
  };
  for (NodeId id : z) mark_ancestor(id);
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    stack_.pop_back();
    for (NodeId p : graph_.Parents(id)) mark_ancestor(p);
  }

  // Phase 2: (node, arrival) states reachable from X \ Z by active trails.
  frontier_.clear();
  auto push = [&](NodeIdSpan next, Arrival arrival) {
    for (NodeId id : next) frontier_.emplace_back(id, arrival);
  };
  for (NodeId id : x) {
    if (marks_[id].in_z != epoch) frontier_.emplace_back(id, kFromChild);
  }
  while (!frontier_.empty()) {
    const auto [node, arrival] = frontier_.back();
    frontier_.pop_back();
    Marks& m = marks_[node];
    uint32_t& visited = arrival == kFromChild ? m.up : m.down;
    if (visited == epoch) continue;
    const bool first_visit = m.up != epoch && m.down != epoch;
    visited = epoch;
    const bool conditioned = m.in_z == epoch;
    if (!conditioned && first_visit && reach(node)) return true;
    // An unconditioned node passes a trail on to its children (chain or
    // fork) and one from a child on to its parents (chain); a collider
    // opens toward its parents when it is an ancestor of Z.
    if (!conditioned) push(graph_.Children(node), kFromParent);
    if (arrival == kFromChild ? !conditioned : m.anc_z == epoch) {
      push(graph_.Parents(node), kFromChild);
    }
  }
  return false;
}

bool DSeparation::Separated(const std::vector<NodeId>& x,
                            const std::vector<NodeId>& y,
                            const std::vector<NodeId>& z) {
  Begin(z);
  auto outside_z = [&](NodeId id) { return marks_[id].in_z != epoch_; };
  if (std::none_of(x.begin(), x.end(), outside_z) ||
      std::none_of(y.begin(), y.end(), outside_z)) {
    return true;
  }
  for (NodeId id : y) marks_[id].target = epoch_;
  return !Traverse(x, z,
                   [&](NodeId id) { return marks_[id].target == epoch_; });
}

std::vector<NodeId> DSeparation::ConnectedNodes(const std::vector<NodeId>& x,
                                                const std::vector<NodeId>& z) {
  Begin(z);
  std::vector<NodeId> out;
  Traverse(x, z, [&](NodeId id) {
    out.push_back(id);
    return false;
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace carl
