// QuerySession: cached grounded state shared by every query (and every
// engine) over one relational instance.
//
// Grounding dominates end-to-end query cost (docs/benchmarks.md). A query
// that derives a §4.3 aggregate runs on its own model variant (the base
// model plus that one rule), and the engine asks the session for that
// variant's grounding on every such query. A session interns each
// distinct grounding once, keyed by the model's full serialized rule set
// — so a pipeline of queries grounds each *variant* once instead of once
// per query. The cache is one list of at most max_cached_groundings
// entries in insertion order: a lookup scans it comparing the model's
// key_hash() first and then its key_text() against the entry's model
// copy, and eviction pops the oldest entry.
//
// Instance mutations do not blow the cache away. Each entry remembers the
// instance generation it was grounded at; on the next Ground() the
// session pulls the delta since then (Instance::DeltaSince) and picks the
// cheapest sound path:
//   1. the delta cannot touch this model's graph: it is inside the
//      extend contract, writes no attribute, and adds facts only of
//      predicates the grounding does not read (the model's
//      GroundingReads: no attribute on them, no rule atom over them) —
//      the cached grounding is served as a hit;
//   2. the delta is inside the incremental-extend contract
//      (DeltaSupportsIncrementalExtend) — the cached graph is extended in
//      delta-sized time (ExtendGroundedModel) instead of re-grounded;
//      counted as a ground_extends;
//   3. otherwise (trimmed log, overflow write, constraint-attribute
//      write, new rule constant) — full re-ground.
// The session replaces a cached grounding only with a pass that
// completed: a guarded extend works on a copy, so a pass the guard stops
// leaves the entry as it was, and a failed re-ground drops the stale
// entry.
//
// Each entry also memoizes Algorithm 1's resolved unit rows (UnitRows,
// unit_table.h) next to its grounding, one per (treatment, response,
// include_isolated_units) and at most kMaxUnitRowsPerGrounding of them;
// they go with the entry on eviction or re-ground. Beside its rows a memo
// keeps, per embedding kind, the table embedded from them with the
// X'X/X'y sums of its regression columns (UnitTable::sums).
// BuildUnitTable answers through them in one of three ways:
//   1. same grounding: the rows are current; the answer hands out the
//      kind's table, or, when it has fewer rows than the memo or is not
//      there yet, appends the missing rows' projections and carries the
//      sums on over them (a hit);
//   2. one extend later: the extend carried the memo along, and when its
//      forward cone misses every resolved unit's treatment and response
//      node the answer resolves only the new unit rows, appends their
//      projections to the kind's table and carries its sums on (a
//      resume);
//   3. otherwise (rows two extends old, a re-ground, a cone that touches
//      an old unit, or no rows yet): the answer resolves every row and
//      embeds and sums a fresh table (a rebuild), and the memo's other
//      tables go with the old rows.
// An answer updates the memo in place under the session's memo mutex,
// so concurrent answers to the same request wait for it and then hit
// (answers to other requests wait as well); a cone check or resolve that
// fails (a guard stop, a domain error) erases the memo. The memo shares
// its tables read-only with the answers that read them; a table someone
// still holds (even across a mutation) is copied before an append, so it
// never changes under its holder. A WHERE-filtered request bypasses the
// memo: its allowed set reads the instance, not the graph.
//
// Sessions are thread-safe and single-flight: one mutex is held across
// Ground, so concurrent callers asking for the same variant ground it
// once and the rest are served from the cache. The unit-row memos have
// a mutex of their own, which Ground takes inside its own and an answer
// takes alone: an answer never waits for a Ground, but a Ground that
// installs or erases an entry waits for an answer's resolve in flight.
// The instance must not be mutated while a Ground or an answer runs.
// Cached GroundedModels reference a model copy owned by the session, so
// they stay valid for as long as the returned shared_ptr lives — even
// after the session itself is destroyed the entry keeps the model alive.

#ifndef CARL_CORE_QUERY_SESSION_H_
#define CARL_CORE_QUERY_SESSION_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/causal_model.h"
#include "core/grounding.h"
#include "core/unit_table.h"
#include "obs/metrics.h"

namespace carl {

class QuerySession {
 public:
  /// The instance must outlive the session. Mutating it between queries
  /// is detected through the generation counter; cached groundings are
  /// then served, incrementally extended, or re-grounded per the delta
  /// (see the file comment) — never answered stale.
  explicit QuerySession(const Instance* instance);

  const Instance& instance() const { return *instance_; }

  /// The cached grounding of `model` against the session's instance,
  /// grounding on a miss. The model is copied into the cache entry; the
  /// returned GroundedModel references that stable copy. Thread-safe;
  /// concurrent calls run one at a time.
  Result<std::shared_ptr<const GroundedModel>> Ground(
      const RelationalCausalModel& model);

  /// Algorithm 1 for `request` on `grounded` through the grounding's
  /// unit-row memo (see the file comment): bit-identical to
  /// carl::BuildUnitTable on the same grounding, with UnitTable::sums
  /// over every row. The table is shared read-only and never changes. A
  /// grounding that is not a cached entry's current one builds without
  /// the memo; so does a WHERE-filtered request, whose table has no sums.
  /// Thread-safe and single-flight: a memoized request resolves, embeds
  /// and sums under a mutex of its own, never the one Ground holds.
  Result<std::shared_ptr<const UnitTable>> BuildUnitTable(
      const GroundedModel& grounded, const UnitTableRequest& request,
      const UnitTableOptions& options);

  /// Unit-row memos per cached grounding.
  static constexpr size_t kMaxUnitRowsPerGrounding = 4;

  /// The session's counters: a plain-data snapshot that takes no lock,
  /// safe from any thread even while another thread is inside Ground —
  /// so a server can report per-session cache efficacy without stopping
  /// the serving path. ground_full and ground_extends count
  /// *successful* grounds only: a ground that fails (a guard abort, a
  /// domain error) ticks query_session.ground_misses but neither field.
  /// The session counts in one obs::CounterBlock, which the registry
  /// sums over every session under "query_session.*".
  struct SessionStats {
    uint64_t cache_hits = 0;      ///< groundings served from cache
    uint64_t ground_full = 0;     ///< successful from-scratch grounds
    uint64_t ground_extends = 0;  ///< successful incremental extends
    uint64_t ground_evictions = 0;
    uint64_t unit_rows_hits = 0;      ///< unit tables that resolved no row
    uint64_t unit_rows_resumes = 0;   ///< ... that resolved new rows only
    uint64_t unit_rows_rebuilds = 0;  ///< ... that resolved every row
  };
  SessionStats SnapshotStats() const;

  /// Cache capacity in distinct groundings; inserting beyond it evicts
  /// the oldest entry (FIFO). Engines holding a shared_ptr to an evicted
  /// grounding keep it alive; only future reuse is lost.
  void set_max_cached_groundings(size_t max);

  /// Cached grounding count (distinct model variants).
  size_t num_cached_groundings() const;

  /// Heap bytes held by the unit-row memos of every cached grounding:
  /// their rows, tables and sums.
  size_t unit_rows_bytes() const;

 private:
  // A grounding and the model copy it references, owned together: the
  // cached shared_ptr<const GroundedModel> aliases into the holder, so
  // the model cannot outlive-race the grounding.
  struct GroundingHolder {
    std::shared_ptr<const RelationalCausalModel> model;
    GroundedModel grounded;
  };

  // Resolved unit rows of one (treatment, response,
  // include_isolated_units) on an entry's grounding, and per embedding
  // kind (indexed by it) the table embedded from a prefix of them, with
  // its sums over every one of its rows, or null.
  struct UnitRowsMemo {
    AttributeId treatment;
    AttributeId response;
    bool include_isolated_units;
    UnitRows rows;
    std::array<std::shared_ptr<UnitTable>,
               static_cast<size_t>(EmbeddingKind::kPadding) + 1>
        tables;
    // The rows were resolved on the grounding the entry's last extend
    // started from.
    bool behind = false;
  };

  struct Entry {
    uint64_t key_hash = 0;  // holder->model->key_hash()
    std::shared_ptr<GroundingHolder> holder;
    std::shared_ptr<const GroundedModel> grounded;  // aliases holder
    uint64_t grounded_generation = 0;  // instance state of the grounding
  };

  // counters_ slots, in the order the constructor names them.
  enum CounterSlot : size_t {
    kGroundHits,
    kGroundMisses,
    kGroundFull,
    kGroundExtends,
    kGroundEvictions,
    kUnitRowsHits,
    kUnitRowsResumes,
    kUnitRowsRebuilds,
  };

  // Removes the entry and its grounding's unit-row memos.
  void EraseEntry(std::vector<Entry>::iterator entry);
  // Installs a freshly grounded/extended model into `entry`, re-aliasing
  // the handed-out pointer, and moves the previous grounding's unit-row
  // memos to it, aged (extended) or dropped (re-ground; none for a new
  // entry).
  void InstallGrounding(Entry* entry, std::shared_ptr<GroundingHolder> holder,
                        uint64_t generation, bool extended);

  const Instance* instance_;
  // Held across every Ground; guards everything below except the memos
  // and counters_.
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // oldest first
  size_t max_cached_groundings_ = 16;
  // The unit-row memos of each entry's current grounding (oldest first),
  // keyed by that grounding: a key exists exactly while an entry holds
  // the grounding. An answer holds memo_mu_ across its memo's update, so
  // memoized answers update one at a time; Ground takes it inside mu_.
  mutable std::mutex memo_mu_;
  std::unordered_map<const GroundedModel*, std::vector<UnitRowsMemo>>
      unit_rows_;
  obs::CounterBlock counters_;  // behind SnapshotStats(); see its comment
};

}  // namespace carl

#endif  // CARL_CORE_QUERY_SESSION_H_
