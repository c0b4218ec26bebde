#include "core/query_session.h"

#include <algorithm>

#include "common/logging.h"
#include "core/estimation.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {

QuerySession::QuerySession(const Instance* instance)
    : instance_(instance),
      counters_({"query_session.ground_hits", "query_session.ground_misses",
                 "query_session.ground_full", "query_session.ground_extends",
                 "query_session.ground_evictions",
                 "query_session.unit_rows_hits",
                 "query_session.unit_rows_resumes",
                 "query_session.unit_rows_rebuilds"}) {
  CARL_CHECK(instance != nullptr) << "query session needs an instance";
}

QuerySession::SessionStats QuerySession::SnapshotStats() const {
  SessionStats snapshot;
  snapshot.cache_hits = counters_.value(kGroundHits);
  snapshot.ground_full = counters_.value(kGroundFull);
  snapshot.ground_extends = counters_.value(kGroundExtends);
  snapshot.ground_evictions = counters_.value(kGroundEvictions);
  snapshot.unit_rows_hits = counters_.value(kUnitRowsHits);
  snapshot.unit_rows_resumes = counters_.value(kUnitRowsResumes);
  snapshot.unit_rows_rebuilds = counters_.value(kUnitRowsRebuilds);
  return snapshot;
}

size_t QuerySession::num_cached_groundings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void QuerySession::set_max_cached_groundings(size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  max_cached_groundings_ = max == 0 ? 1 : max;
}

Result<std::shared_ptr<const GroundedModel>> QuerySession::Ground(
    const RelationalCausalModel& model) {
  CARL_TRACE_SCOPE("query_session.ground");
  // Single flight: concurrent callers of one variant wait here, and all
  // but the first find it cached.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t generation = instance_->generation();

  // Grounding depends on the rule set AND the extended schema (step 1
  // adds a node per schema attribute grounding), so both go into the key.
  // Instance state is deliberately NOT part of the key: entries outlive
  // mutations and are refreshed per delta below.
  auto entry = std::find_if(entries_.begin(), entries_.end(),
                            [&](const Entry& e) {
                              return e.key_hash == model.key_hash() &&
                                     e.holder->model->key_text() ==
                                         model.key_text();
                            });
  const bool cached = entry != entries_.end();
  if (cached && entry->grounded_generation == generation) {
    counters_.Increment(kGroundHits);
    return entry->grounded;
  }
  if (cached) {
    const RelationalCausalModel& cached_model = *entry->holder->model;
    InstanceDelta delta =
        instance_->DeltaSince(entry->grounded_generation);
    const bool extensible =
        DeltaSupportsIncrementalExtend(*instance_, cached_model, delta);
    auto relevant = [&](const InstanceDelta::FactDelta& f) {
      return cached_model.GroundingReads(f.predicate);
    };
    if (extensible && delta.attributes.empty() &&
        std::none_of(delta.facts.begin(), delta.facts.end(), relevant)) {
      // The mutation cannot reach this model's graph: no new fact is of
      // a predicate the grounding reads, so the cached grounding is
      // exactly what a re-ground would rebuild.
      entry->grounded_generation = generation;
      counters_.Increment(kGroundHits);
      return entry->grounded;
    }

    counters_.Increment(kGroundMisses);
    if (extensible) {
      // Extend the cached graph in delta-sized time. If no consumer
      // holds the grounding (use_count 2 = entry->holder + the aliased
      // entry->grounded), the graph is moved out and spliced in place —
      // but never under a guard token: a guard-aborted extend destroys
      // the moved-out base, which would poison the session. Guarded
      // extends always work on a copy; the cached grounding survives
      // any abort untouched.
      const bool guarded = guard::CurrentToken() != nullptr;
      GroundedModel base = !guarded && entry->holder.use_count() == 2
                               ? std::move(entry->holder->grounded)
                               : entry->holder->grounded;
      Result<GroundedModel> extended =
          ExtendGroundedModel(std::move(base), delta);
      if (extended.ok()) {
        counters_.Increment(kGroundExtends);
        auto holder = std::make_shared<GroundingHolder>();
        holder->model = entry->holder->model;
        holder->grounded = std::move(*extended);
        InstallGrounding(&*entry, std::move(holder), generation,
                         /*extended=*/true);
        return entry->grounded;
      }
      if (guard::IsGuardStop(extended.status().code())) {
        // The guard abandoned the pass (deadline/budget/cancel/fault).
        // Do NOT fall back to a full re-ground — that would spend more
        // work under a budget that already ran out. The cached entry is
        // untouched; the next unguarded query extends it normally.
        return extended.status();
      }
      // A domain-error extend can only fail here if the extension closed
      // a cycle — a from-scratch ground of the same state fails
      // identically, so fall through and surface that error.
      CARL_LOG(WARN) << "incremental extend failed ("
                     << extended.status().ToString()
                     << "); falling back to a full re-ground";
    } else if (!delta.complete) {
      // The delta log was trimmed past this entry's generation, so the
      // extend contract cannot be checked, let alone satisfied. Loud by
      // design: a session that re-grounds this way repeatedly should
      // raise Instance::kDeltaLogCapacity or re-ground more often.
      static obs::Counter& trimmed_counter =
          obs::Registry::Global().GetCounter("delta_log_trimmed");
      trimmed_counter.Increment();
      CARL_LOG(WARN) << "delta log trimmed: generations "
                     << entry->grounded_generation << ".." << generation
                     << " are no longer replayable; forcing a full "
                        "re-ground instead of an incremental extend";
    } else {
      CARL_LOG(INFO) << "instance delta outside the incremental-extend "
                        "contract; re-grounding model from scratch";
    }
  } else {
    counters_.Increment(kGroundMisses);
  }

  // From scratch: a re-ground of the entry, or a new entry. The
  // grounding references the model copy by pointer, so both live in one
  // holder and the handed-out shared_ptr aliases into it: however long
  // any consumer keeps the grounding — across evictions, even past the
  // session's destruction — the model copy stays alive with it.
  auto holder = std::make_shared<GroundingHolder>();
  holder->model = cached ? entry->holder->model
                         : std::make_shared<RelationalCausalModel>(model);
  Result<GroundedModel> grounded = GroundModel(*instance_, *holder->model);
  if (!grounded.ok()) {
    // A failed extend above may have consumed the cached grounding, and
    // a stale entry cannot serve this state anyway: drop it, so the next
    // call grounds from scratch.
    if (cached) EraseEntry(entry);
    return grounded.status();
  }
  counters_.Increment(kGroundFull);
  holder->grounded = std::move(*grounded);
  if (!cached) {
    while (entries_.size() >= max_cached_groundings_) {
      EraseEntry(entries_.begin());
      counters_.Increment(kGroundEvictions);
    }
    entry = entries_.insert(entries_.end(), Entry{model.key_hash(), {}, {}, 0});
  }
  InstallGrounding(&*entry, std::move(holder), generation,
                   /*extended=*/false);
  return entry->grounded;
}

void QuerySession::InstallGrounding(Entry* entry,
                                    std::shared_ptr<GroundingHolder> holder,
                                    uint64_t generation, bool extended) {
  // The new grounding is allocated while the entry still holds the old
  // one, so the two memo keys differ.
  const GroundedModel* previous = entry->grounded.get();
  entry->holder = std::move(holder);
  entry->grounded = std::shared_ptr<const GroundedModel>(
      entry->holder, &entry->holder->grounded);
  entry->grounded_generation = generation;
  // Rows resolved on the previous grounding may resume past this extend;
  // rows already one extend behind, or any rows after a re-ground, go.
  std::lock_guard<std::mutex> memo_lock(memo_mu_);
  std::vector<UnitRowsMemo> memos;
  auto it = unit_rows_.find(previous);
  if (it != unit_rows_.end()) {
    if (extended) memos = std::move(it->second);
    unit_rows_.erase(it);
  }
  auto behind = [](const UnitRowsMemo& memo) { return memo.behind; };
  memos.erase(std::remove_if(memos.begin(), memos.end(), behind),
              memos.end());
  for (UnitRowsMemo& memo : memos) memo.behind = true;
  unit_rows_[entry->grounded.get()] = std::move(memos);
}

namespace {

// True when `p` is the only owner of its object, with every access of a
// former owner ordered before the caller's next write. use_count() alone
// is a relaxed load that orders nothing; copying the pointer increments
// the count with an acquire-release operation, which synchronizes with
// each former owner's releasing decrement.
bool SoleOwner(const std::shared_ptr<UnitTable>& p) {
  const std::shared_ptr<UnitTable> probe = p;
  return probe.use_count() == 2;
}

// True when `table`, embedded from a prefix of `rows`, holds all of them.
bool TableHoldsRows(const UnitTable& table, const UnitRows& rows) {
  return table.data.num_rows() == rows.y.size() &&
         table.dropped_units == rows.dropped_unvalued + rows.dropped_isolated;
}

}  // namespace

Result<std::shared_ptr<const UnitTable>> QuerySession::BuildUnitTable(
    const GroundedModel& grounded, const UnitTableRequest& request,
    const UnitTableOptions& options) {
  CARL_TRACE_SCOPE("query_session.unit_table");
  // A WHERE filter's allowed set reads the instance, not the graph, so
  // no extend cone bounds what it changes.
  if (request.allowed_sources.has_value()) {
    CARL_ASSIGN_OR_RETURN(UnitTable table,
                          carl::BuildUnitTable(grounded, request, options));
    return std::make_shared<const UnitTable>(std::move(table));
  }
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  // Single flight under memo_mu_. A grounding no entry holds (extended,
  // re-grounded or evicted since) builds in a memo of this call's own.
  std::unique_lock<std::mutex> memo_lock(memo_mu_);
  auto it = unit_rows_.find(&grounded);
  std::vector<UnitRowsMemo> unheld;
  std::vector<UnitRowsMemo>& memos =
      it == unit_rows_.end() ? unheld : it->second;
  if (&memos == &unheld) memo_lock.unlock();
  auto memo = std::find_if(
      memos.begin(), memos.end(), [&](const UnitRowsMemo& m) {
        return m.treatment == request.treatment &&
               m.response == request.response &&
               m.include_isolated_units == options.include_isolated_units;
      });
  const bool fresh = memo == memos.end();
  if (fresh) {
    memo = memos.insert(memos.end(),
                        UnitRowsMemo{request.treatment, request.response,
                                     options.include_isolated_units, {}, {}});
  }
  if (!fresh && !memo->behind) {
    counters_.Increment(kUnitRowsHits);
  } else {
    // Rows one extend behind resume when the extend's cone misses every
    // resolved unit; otherwise every row resolves again and the old
    // tables go. A failed check or resolve takes the memo with it.
    const Result<bool> resume =
        fresh ? Result<bool>(false)
              : UnitRowsOutsideExtendCone(grounded, request, memo->rows);
    Status resolved = resume.status();
    if (resolved.ok()) {
      counters_.Increment(*resume ? kUnitRowsResumes : kUnitRowsRebuilds);
      if (!*resume) {
        memo->rows = {};
        memo->tables = {};
      }
      resolved = ResolveUnitRows(grounded, request, options, &memo->rows);
    }
    if (!resolved.ok()) {
      memos.erase(memo);
      return resolved;
    }
    memo->behind = false;
    // Only a fresh memo, at the back, can overflow the cap.
    if (memos.size() > kMaxUnitRowsPerGrounding) {
      memos.erase(memos.begin());
      memo = memos.end() - 1;
    }
  }

  std::shared_ptr<UnitTable>& table =
      memo->tables[static_cast<size_t>(options.embedding)];
  if (table != nullptr && TableHoldsRows(*table, memo->rows)) {
    return std::shared_ptr<const UnitTable>(table);
  }
  // Append only to a table no reader holds. A failed embed (no unit
  // kept) leaves no table but keeps the rows, so a repeat fails the same
  // way without resolving them again.
  if (table == nullptr) {
    table = std::make_shared<UnitTable>();
  } else if (!SoleOwner(table)) {
    table = std::make_shared<UnitTable>(*table);
  }
  const Status embedded =
      EmbedUnitRows(memo->rows, grounded.schema(), options, table.get());
  if (!embedded.ok()) {
    table = nullptr;
    return embedded;
  }
  SumRegressionColumns(*table, &table->sums);
  return std::shared_ptr<const UnitTable>(table);
}

size_t QuerySession::unit_rows_bytes() const {
  std::lock_guard<std::mutex> memo_lock(memo_mu_);
  size_t bytes = 0;
  for (const auto& [grounded, memos] : unit_rows_) {
    for (const UnitRowsMemo& memo : memos) {
      bytes += memo.rows.bytes();
      for (const std::shared_ptr<UnitTable>& table : memo.tables) {
        if (table != nullptr) bytes += table->bytes();
      }
    }
  }
  return bytes;
}

void QuerySession::EraseEntry(std::vector<Entry>::iterator entry) {
  {
    std::lock_guard<std::mutex> memo_lock(memo_mu_);
    unit_rows_.erase(entry->grounded.get());
  }
  entries_.erase(entry);
}

}  // namespace carl
