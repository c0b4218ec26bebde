// Allocation accounting for the relational storage/join layer, backed by
// the carl_obs metrics registry.
//
// The columnar storage rework (arena relations, match indexes, the
// plan-driven searcher) is about keeping heap allocation out of the hot
// join loops, but wall time alone can't tell an allocation regression
// from noise. The layer therefore counts its allocation *events* — arena
// and posting-list growth, hash-table rehashes, index builds, per-search
// scratch acquisition — through relaxed-atomic registry counters.
// Steady-state evaluation over warm indexes should add ~0; benches
// snapshot the counters around a phase (ScopedAllocCounter, or an
// obs::SnapshotDelta over the whole registry) and report the delta so
// future PRs surface regressions as a number, not a hunch.
//
// Registry names (see docs/observability.md for the full catalog):
//   storage.alloc_events        — CountAlloc / CountGrowth
//   storage.eval_result_allocs  — CountEvalResultAlloc
//   storage.graph_node_allocs   — CountGraphNodeAlloc
//
// The historical function API (CountAlloc, AllocCount, ...) is preserved
// verbatim; call sites did not change when the counters moved into the
// registry.

#ifndef CARL_RELATIONAL_STORAGE_STATS_H_
#define CARL_RELATIONAL_STORAGE_STATS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace carl {
namespace storage_stats {

inline obs::Counter& AllocCount() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("storage.alloc_events");
  return counter;
}

inline void CountAlloc(uint64_t n = 1) { AllocCount().Add(n); }

/// Per-binding materializations on the evaluator result path (owned Tuple
/// construction from a BindingTable). The grounding hot path streams
/// columnar bindings end-to-end, so a warm grounding pass must report 0
/// here — a nonzero delta means a per-binding Tuple path crept back in.
inline obs::Counter& EvalResultAllocCount() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("storage.eval_result_allocs");
  return counter;
}

inline void CountEvalResultAlloc(uint64_t n = 1) {
  EvalResultAllocCount().Add(n);
}

/// Per-node owned-Tuple materializations on the causal-graph node path.
/// The graph stores node arguments in one arity-strided arena (spans, no
/// owned key tuples), so a warm grounding pass must report 0 here — a
/// nonzero delta means a per-node Tuple path (the historical
/// GroundedAttribute::args) crept back into node interning.
inline obs::Counter& GraphNodeAllocCount() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("storage.graph_node_allocs");
  return counter;
}

inline void CountGraphNodeAlloc(uint64_t n = 1) {
  GraphNodeAllocCount().Add(n);
}

/// Bumps the counter when appending `extra` elements to `v` would grow
/// its capacity.
template <typename V>
inline void CountGrowth(const V& v, size_t extra) {
  if (v.size() + extra > v.capacity()) CountAlloc();
}

/// Snapshot-and-delta helper for bench phases.
class ScopedAllocCounter {
 public:
  ScopedAllocCounter()
      : start_(AllocCount().value()),
        eval_start_(EvalResultAllocCount().value()),
        graph_node_start_(GraphNodeAllocCount().value()) {}
  uint64_t delta() const { return AllocCount().value() - start_; }
  uint64_t eval_result_delta() const {
    return EvalResultAllocCount().value() - eval_start_;
  }
  uint64_t graph_node_delta() const {
    return GraphNodeAllocCount().value() - graph_node_start_;
  }

 private:
  uint64_t start_;
  uint64_t eval_start_;
  uint64_t graph_node_start_;
};

}  // namespace storage_stats
}  // namespace carl

#endif  // CARL_RELATIONAL_STORAGE_STATS_H_
