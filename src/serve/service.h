// ServeService: the long-lived concurrent query service behind
// carl_serve (and the north-star serving story in ROADMAP.md).
//
// Many clients multiplex onto a small worker pool over shared,
// per-shard QuerySessions:
//
//   Submit ──admission──▶ FIFO queue ──▶ any worker ──▶ CarlEngine
//
//  * Admission. Every request is checked synchronously: unknown
//    instance (kNotFound), missing program or too many bootstrap
//    replicates (kInvalidArgument), queue over max_queue_depth
//    (kResourceExhausted), service shutting down (kUnavailable).
//    Rejections invoke the callback inline — a rejected request never
//    occupies a worker. The request's deadline starts at ADMISSION:
//    time spent queued counts against it.
//
//  * One queue, shared shards. Admission resolves the request's shard,
//    keyed (instance name, program text) — the service-level equivalent
//    of QuerySession's grounding key — creating the shard and its
//    session on first sight. Admitted requests wait in one FIFO queue
//    that every worker drains one request at a time, so one hot shard
//    runs on all workers at once. The first request that executes with
//    deadline remaining creates the shard's engine under the shard's
//    mutex — grounding the model under that request's OWN guard token,
//    so its deadline/memory budget bound the grounding and a request
//    that expired in the queue never triggers one. Concurrent requests
//    for the shard wait on that mutex and then run on the engine it
//    created (they are `coalesced`). CarlEngine::Answer is const and its
//    session is single-flight (query_session.h), so answers need no
//    further locking.
//
//  * Budgets. The effective budget is request fields, falling back to
//    ServeOptions defaults — the environment (CARL_DEADLINE_MS /
//    CARL_MEM_BUDGET) is NEVER consulted on the server path; the worker
//    installs its own guard::ExecToken for every request, pre-empting
//    the engine's env fallback. A deadline that expired while queued
//    surfaces as kDeadlineExceeded without executing (and without
//    touching the shard's session — an unexecuted or guard-aborted
//    request cannot poison the cache; see guard.h).
//
//  * Observability. The service counts admitted / rejected / completed
//    / deadline_preempted / coalesced requests once, in an
//    obs::CounterBlock that Snapshot() reads and the registry lists as
//    serve.*. The histograms serve.queue_ms / serve.total_ms are
//    process-wide, and trace spans serve.admit / serve.request are
//    Chrome-traceable via carl_obs. Per-shard cache efficacy comes from
//    QuerySession::SnapshotStats through ShardSessionStats().
//
// Start() spawns the workers; Submit() before Start() queues — tests
// use that to line up concurrent requests deterministically. Shutdown()
// drains every admitted request, then joins.

#ifndef CARL_SERVE_SERVICE_H_
#define CARL_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "serve/wire.h"

namespace carl {
namespace serve {

/// Admission bound on a request's bootstrap replicates: each replicate
/// holds a result slot before any guard check runs, so an unbounded
/// count is an allocation the request's budget cannot stop.
constexpr uint32_t kMaxBootstrapReplicates = 10000;

struct ServeOptions {
  /// Worker threads draining the request queue, one request at a time.
  int num_workers = 4;
  /// Admission bound on queued requests (executing requests excluded).
  /// Submit beyond it rejects kResourceExhausted.
  size_t max_queue_depth = 256;
  /// Defaults for requests that carry no budget fields. Zero = that
  /// dimension unlimited. The environment is never consulted.
  double default_deadline_ms = 0.0;
  uint64_t default_memory_budget = 0;
  uint64_t default_max_bindings = 0;
};

/// Monotonic service-lifetime totals (read without a lock).
struct ServeStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;            ///< admission rejections, any reason
  uint64_t completed = 0;           ///< callbacks invoked post-execution
  uint64_t deadline_preempted = 0;  ///< expired in queue, never executed
  uint64_t coalesced = 0;  ///< ran on an engine another request created
};

class ServeService {
 public:
  using Callback = std::function<void(const ServeResponse&)>;

  explicit ServeService(ServeOptions options = {});
  /// Implies Shutdown().
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  /// Registers a dataset under `name`; kAlreadyExists on a duplicate.
  /// Schema and instance must outlive the service and must not be
  /// mutated while it runs. Allowed before or after Start().
  Status RegisterInstance(const std::string& name, const Schema* schema,
                          const Instance* instance);

  /// Admits one request. The callback fires exactly once — inline on
  /// rejection (always outside the service lock, so it may block or
  /// read service state), on a worker thread otherwise — and must not
  /// call back into Submit/Shutdown on the same stack.
  void Submit(const ServeRequest& request, Callback callback);

  /// Spawns the worker pool. Idempotent.
  void Start();

  /// Stops admission, drains every already-admitted request, joins the
  /// workers. Idempotent; also called by the destructor.
  void Shutdown();

  ServeStats Snapshot() const;

  /// Cache-efficacy snapshot of the shard keyed (instance, program);
  /// nullopt when no request for it was admitted. Thread-safe (the
  /// underlying QuerySession::SnapshotStats is).
  std::optional<QuerySession::SessionStats> ShardSessionStats(
      const std::string& instance, const std::string& program) const;

  const ServeOptions& options() const { return options_; }

 private:
  struct RegisteredInstance {
    const Schema* schema = nullptr;
    const Instance* instance = nullptr;
  };

  // All requests for one (instance, program) variant. `schema` and
  // `session` are set at the shard's first admission and never change;
  // `engine` is created once (see ShardEngine) and then shared.
  struct Shard {
    const Schema* schema = nullptr;
    std::shared_ptr<QuerySession> session;
    std::mutex mu;  // guards engine and engine_status
    std::unique_ptr<const CarlEngine> engine;
    Status engine_status;  // OK until a creation attempt fails
  };

  // One admitted request waiting in the queue.
  struct Pending {
    Shard* shard = nullptr;
    ServeRequest request;
    Callback callback;
    std::chrono::steady_clock::time_point admitted_at;
    // Effective budget resolved at admission (request ?: options);
    // deadline measured from admitted_at.
    guard::QueryBudget budget;
  };

  void WorkerLoop();
  // Executes one request: deadline preempt, engine (creating it on first
  // use), answer, callback.
  void Execute(Pending* pending);
  // The shard's engine, created under the caller's guard token when it
  // does not exist yet; `*created` tells whether this call created it.
  // A deterministic creation failure (parse error, bad model) is cached
  // in engine_status; a guard-aborted one is charged to the caller only,
  // and the next request retries.
  Result<const CarlEngine*> ShardEngine(Shard* shard,
                                        const std::string& program,
                                        bool* created);
  void Respond(Pending* pending, ServeResponse response);

  ServeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, RegisteredInstance> instances_;
  // Key: instance name + '\0' + program text. Shards are never erased,
  // so a Pending's Shard* stays valid.
  std::unordered_map<std::string, Shard> shards_;
  std::deque<Pending> queue_;  // admitted, not yet picked up; FIFO
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // counters_ slots, in the order the constructor names them.
  enum CounterSlot : size_t {
    kAdmitted,
    kRejected,
    kCompleted,
    kDeadlinePreempted,
    kCoalesced,
  };
  obs::CounterBlock counters_;
};

/// In-process client: one call = encode request -> decode (the same
/// codec the TCP path runs) -> Submit -> wait -> encode response ->
/// decode. Tests and benches get wire-faithful round trips without a
/// socket.
class ServeDriver {
 public:
  explicit ServeDriver(ServeService* service) : service_(service) {}

  /// Blocks until the response arrives. Codec failures surface in the
  /// returned response's code.
  ServeResponse Call(const ServeRequest& request);

 private:
  ServeService* service_;
};

}  // namespace serve
}  // namespace carl

#endif  // CARL_SERVE_SERVICE_H_
