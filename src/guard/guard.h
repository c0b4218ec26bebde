// carl_guard: query deadlines, cooperative cancellation, memory budgets,
// and deterministic fault injection.
//
// The engine must be able to refuse, bound, and abandon work, not just
// execute it: a server front door (carl_serve) cannot do admission
// control over passes that abort the process or run unbounded. This
// layer provides the substrate:
//
//  * QueryBudget — a wall-clock deadline, an arena-byte ceiling, and an
//    optional binding-count ceiling, settable per query or process-wide
//    through CARL_DEADLINE_MS / CARL_MEM_BUDGET.
//  * ExecToken — carries one query's budget and stop state. Installed in
//    thread-local storage (ScopedToken) on the query thread, propagated
//    by ParallelFor into every pool helper for the duration of the loop.
//    Hot paths poll `stopped()` — one relaxed atomic load and a branch,
//    the same disarmed-span discipline as CARL_TRACE_SCOPE — and bail;
//    the abandoned pass surfaces as Status kCancelled /
//    kDeadlineExceeded / kResourceExhausted, never as an abort.
//  * FaultRegistry — a deterministic countdown fault injector
//    (CARL_FAULT=<site>:<n> or the Arm() test API). Fault points sit at
//    arena growth, pool task dispatch, delta-log trim, each grounding
//    phase and the unit-row resolve; the fault-fuzz harness drives them
//    to prove every degradation path leaves QuerySession consistent.
//
// Invariant the consumers uphold (and tests enforce): an aborted pass
// never poisons the session. Partially-built graphs/tables are locals
// dropped whole, and the session replaces a cached grounding only with a
// pass that completed (a guarded extend works on a copy), so the next
// query extends or serves the entry it held before the abort.
//
// Counters (obs registry): guard_cancelled, guard_deadline_exceeded,
// guard_budget_exceeded tick once per token on the first stop transition;
// fault_injected ticks once per fault firing.

#ifndef CARL_GUARD_GUARD_H_
#define CARL_GUARD_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace carl {
namespace guard {

/// Per-query resource limits. Zero means unlimited, so a
/// default-constructed budget arms a token that can only stop through
/// Cancel().
struct QueryBudget {
  double deadline_ms = 0.0;   ///< wall-clock budget; 0 = no deadline
  size_t memory_bytes = 0;    ///< arena-growth byte ceiling; 0 = unlimited
  size_t max_bindings = 0;    ///< enumerated-binding ceiling; 0 = unlimited

  bool unlimited() const {
    return deadline_ms <= 0.0 && memory_bytes == 0 && max_bindings == 0;
  }

  /// Budget from the environment: CARL_DEADLINE_MS (floating-point
  /// milliseconds) and CARL_MEM_BUDGET (bytes). Unset/unparsable/
  /// non-positive variables leave the field unlimited.
  static QueryBudget FromEnv();

  /// Field-wise merge with the environment defaults: every field this
  /// budget sets wins; every unset (zero) field falls back to FromEnv().
  /// This is the per-request override contract of the QueryRequest
  /// surface — the env vars are process-wide *defaults*, never a cap
  /// (see docs/robustness.md). max_bindings has no env knob and passes
  /// through unchanged.
  QueryBudget WithEnvDefaults() const;
};

/// Why a token stopped. kNone means the token is still live.
enum class StopReason : uint8_t {
  kNone = 0,
  kCancelled,  ///< ExecToken::Cancel()
  kDeadline,   ///< the wall-clock deadline expired
  kMemory,     ///< charged arena bytes exceeded the budget
  kBindings,   ///< charged bindings exceeded the budget
  kFault,      ///< an injected fault tripped the token
};

/// One query's cancellation/budget state. The query thread owns the
/// token; ParallelFor propagates a pointer into pool helpers, and any
/// thread may call Cancel(). The first stop transition wins and is the
/// only one counted; every later trip attempt is a no-op, so ToStatus()
/// is stable once stopped.
class ExecToken {
 public:
  ExecToken() : ExecToken(QueryBudget{}) {}
  explicit ExecToken(const QueryBudget& budget);

  ExecToken(const ExecToken&) = delete;
  ExecToken& operator=(const ExecToken&) = delete;

  /// THE hot check: one relaxed load + branch. Safe from any thread.
  bool stopped() const {
    return stop_code_.load(std::memory_order_relaxed) != 0;
  }

  /// Requests cancellation (thread-safe, idempotent).
  void Cancel() { Trip(StopReason::kCancelled, nullptr); }

  /// Reads the clock and trips the token if the deadline passed. Call at
  /// chunk/phase/stride boundaries, not per probe. Returns stopped().
  bool CheckDeadline();

  /// Adds `n` bytes of arena growth against the memory budget; trips the
  /// token on overflow. Returns stopped(). Thread-safe.
  bool ChargeBytes(size_t n);

  /// Adds `n` enumerated bindings against the binding budget; trips the
  /// token on overflow. Returns stopped(). Thread-safe.
  bool ChargeBindings(size_t n);

  /// Trips the token with an injected-fault reason. Called by the
  /// FaultRegistry at token-mediated fault sites.
  void InjectFault(const char* site) { Trip(StopReason::kFault, site); }

  StopReason reason() const {
    return static_cast<StopReason>(
        stop_code_.load(std::memory_order_acquire));
  }

  /// OK while live; the matching error Status once stopped
  /// (kCancelled / kDeadlineExceeded / kResourceExhausted).
  Status ToStatus() const;

  size_t charged_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  size_t charged_bindings() const {
    return bindings_.load(std::memory_order_relaxed);
  }
  const QueryBudget& budget() const { return budget_; }

 private:
  // First-wins transition; the winner records the fault site (if any)
  // before publishing the code with release semantics and ticks the
  // matching guard counter exactly once.
  void Trip(StopReason reason, const char* fault_site);

  std::atomic<uint8_t> stop_code_{0};
  QueryBudget budget_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> bindings_{0};
  std::string fault_site_;  // written only by the Trip winner
};

/// The token installed on this thread (nullptr outside any guarded
/// query). ParallelFor installs the caller's token in pool helpers for
/// the duration of the loop, so pool-side code sees the same token.
ExecToken* CurrentToken();

/// Installs `token` as this thread's current token for the scope;
/// restores the previous token on exit. A null token is a no-op (the
/// previous token, if any, stays installed).
class ScopedToken {
 public:
  explicit ScopedToken(ExecToken* token);
  ~ScopedToken();

  ScopedToken(const ScopedToken&) = delete;
  ScopedToken& operator=(const ScopedToken&) = delete;

 private:
  ExecToken* prev_ = nullptr;
  bool installed_ = false;
};

/// Phase/stride-boundary checkpoint: checks the ambient token's deadline
/// and returns its error Status when stopped. OK when no token is
/// installed. Cheap enough for per-phase use; not for per-probe use
/// (poll stopped() there).
Status CheckPoint();

/// True when the ambient token exists and has stopped — the branch hot
/// loops poll between CheckPoint()s.
inline bool StopRequested() {
  ExecToken* t = CurrentToken();
  return t != nullptr && t->stopped();
}

/// Charges arena growth on the ambient token (no-op without one). The
/// single integration point storage layers call when a backing arena
/// actually grows; also fires the "relational.arena_grow" fault site.
void OnArenaGrowth(size_t bytes);

/// Deterministic countdown fault injection. Disarmed (the default and
/// the post-Reset state), every fault point costs one relaxed load and a
/// branch. Armed via Arm(site, n) or CARL_FAULT=<site>:<n>, the n-th
/// execution of that site fires — exactly once, after which the registry
/// disarms itself. Firing ticks the `fault_injected` counter.
///
/// Site catalog (see docs/robustness.md for the degradation matrix):
///   relational.arena_grow   BindingTable arena growth; trips the
///                           ambient token (hard Status) — no-op
///                           without a token.
///   exec.pool_dispatch      ParallelFor helper submission (the
///                           bootstrap's replicates); degrades the loop
///                           to the calling thread (results identical,
///                           just serial; fault_fuzz_test
///                           PoolDispatchFaultYieldsIdenticalBootstrap).
///   instance.delta_trim     Instance::LogDelta; forces an immediate
///                           delta-log trim (extend paths fall back to
///                           a full re-ground).
///   grounding.node_build    GroundModel/ExtendGroundedModel phase
///   grounding.enumerate     snapshots; the pass returns
///   grounding.merge         kResourceExhausted("injected fault ...")
///   grounding.finalize      before the phase runs.
///   unit_table.resolve      ResolveUnitRows, before any row: a fresh
///                           build or a resume of the session's memo
///                           returns kResourceExhausted, and the memo
///                           drops the rows it resumed.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Arms the registry: the `countdown`-th execution of `site` fires
  /// (countdown 1 = the next one). Replaces any previous arming.
  void Arm(const std::string& site, uint64_t countdown);

  /// Disarms and clears any pending fault.
  void Reset();

  /// Arms from CARL_FAULT=<site>:<n> when set (n defaults to 1).
  /// Called once at first Global() use; harmless to call again.
  void ArmFromEnv();

  /// The fast path every fault point inlines: relaxed load + branch.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Slow path, called only while armed: decrements the countdown when
  /// `site` matches and returns true exactly once, on the firing
  /// execution. Thread-safe.
  bool MaybeFire(const char* site);

  /// Total faults fired since process start (mirrors `fault_injected`).
  uint64_t fired_count() const;

 private:
  FaultRegistry() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::string site_;
  uint64_t countdown_ = 0;
};

/// True when the fault registry is armed and `site` is the one that
/// fires now. The disarmed cost is one relaxed load + branch.
inline bool FaultFired(const char* site) {
  FaultRegistry& reg = FaultRegistry::Global();
  return reg.armed() && reg.MaybeFire(site);
}

/// Hard-error form: kResourceExhausted("injected fault at <site>") when
/// the site fires, OK otherwise.
Status InjectedFault(const char* site);

/// Phase-boundary composite: ambient-token checkpoint, then the phase's
/// fault site. The standard first line of every grounding phase.
inline Status PhaseCheck(const char* site) {
  Status s = CheckPoint();
  if (!s.ok()) return s;
  return InjectedFault(site);
}

/// True for the Status codes a guard stop surfaces as. Callers use this
/// to tell "the guard abandoned the pass" (do not retry, do not fall
/// back) from a domain error.
inline bool IsGuardStop(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

}  // namespace guard
}  // namespace carl

#endif  // CARL_GUARD_GUARD_H_
