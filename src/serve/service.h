// ServeService: the long-lived concurrent query service behind
// carl_serve (and the north-star serving story in ROADMAP.md).
//
// Many clients multiplex onto a small worker pool over shared,
// fingerprint-keyed QuerySessions:
//
//   Submit ──admission──▶ shard queue ──wave──▶ worker ──▶ CarlEngine
//
//  * Admission. Every request is checked synchronously: unknown
//    instance (kNotFound), missing program (kInvalidArgument), queue
//    over max_queue_depth (kResourceExhausted), service shutting down
//    (kUnavailable). Rejections invoke the callback inline — a rejected
//    request never occupies a worker. The request's deadline starts at
//    ADMISSION: time spent queued counts against it.
//
//  * Sharding + wave batching. Admitted requests land in the shard
//    keyed (instance name, program text) — the service-level equivalent
//    of QuerySession's (instance fp, model fp) grounding key. A worker
//    claims a ready shard and drains its whole pending queue as one
//    WAVE: the first request that executes creates the shard's engine —
//    grounding the model under that request's OWN guard token, so its
//    deadline/memory budget bound the grounding and a request that
//    expired in the queue never triggers one — and every later request
//    reuses that grounding. Identical variants therefore ground once
//    per wave (serve.wave_coalesced ticks wave_size - 1), while
//    requests for DISTINCT shards run concurrently on separate workers,
//    all sharing the carl_exec pool underneath. A shard is active on at
//    most one worker at a time, which is what makes the per-shard
//    QuerySession (not thread-safe by contract) safe here.
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
//  * Observability. Counters serve.admitted / serve.rejected /
//    serve.waves / serve.wave_coalesced / serve.deadline_preempted,
//    histograms serve.queue_ms / serve.total_ms, and trace spans
//    serve.admit / serve.wave / serve.request (Chrome-traceable via
//    carl_obs). Per-shard cache efficacy comes from
//    QuerySession::SnapshotStats through ShardSessionStats().
//
// Start() spawns the workers; Submit() before Start() queues — tests
// use that to build a deterministic multi-request wave. Shutdown()
// drains every admitted request, then joins.

#ifndef CARL_SERVE_SERVICE_H_
#define CARL_SERVE_SERVICE_H_

#include <atomic>
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
#include "relational/instance.h"
#include "relational/schema.h"
#include "serve/wire.h"

namespace carl {
namespace serve {

struct ServeOptions {
  /// Worker threads executing waves. Each wave runs its queries
  /// sequentially; distinct shards run on distinct workers.
  int num_workers = 4;
  /// Admission bound on requests queued across all shards (executing
  /// requests excluded). Submit beyond it rejects kResourceExhausted.
  size_t max_queue_depth = 256;
  /// Defaults for requests that carry no budget fields. Zero = that
  /// dimension unlimited. The environment is never consulted.
  double default_deadline_ms = 0.0;
  uint64_t default_memory_budget = 0;
  uint64_t default_max_bindings = 0;
};

/// Monotonic service-lifetime totals (relaxed-atomic snapshot).
struct ServeStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;            ///< admission rejections, any reason
  uint64_t completed = 0;           ///< callbacks invoked post-execution
  uint64_t deadline_preempted = 0;  ///< expired in queue, never executed
  uint64_t waves = 0;
  uint64_t coalesced = 0;  ///< wave followers riding the leader's ground
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
  /// mutated while it runs (sessions assume a quiescent instance per
  /// wave). Allowed before or after Start().
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
  /// nullopt when that shard has not executed yet. Thread-safe (the
  /// underlying QuerySession::SnapshotStats is).
  std::optional<QuerySession::SessionStats> ShardSessionStats(
      const std::string& instance, const std::string& program) const;

  const ServeOptions& options() const { return options_; }

 private:
  struct RegisteredInstance {
    const Schema* schema = nullptr;
    const Instance* instance = nullptr;
  };

  // One admitted request waiting in (or draining from) a shard queue.
  struct Pending {
    ServeRequest request;
    Callback callback;
    std::chrono::steady_clock::time_point admitted_at;
    // Effective budget resolved at admission (request ?: options);
    // deadline measured from admitted_at.
    guard::QueryBudget budget;
  };

  // All requests for one (instance, program) variant. `engine` (and the
  // session inside it) is created by the first request that reaches
  // execution with deadline remaining — creation runs under THAT
  // request's guard token, so its deadline/memory budget bound the
  // grounding — and is reused by every later request. `engine_status`
  // caches a DETERMINISTIC creation failure (parse error, bad model) so
  // follow-up waves fail fast; a guard-aborted creation is charged to
  // the aborted request only and the next request retries. Guarded by
  // mu_ except during a wave: the draining worker owns `engine` /
  // `engine_status` / `session` exclusively while `active` (shards are
  // never claimed by two workers).
  struct Shard {
    std::string instance_name;
    std::string program;
    RegisteredInstance dataset;
    std::deque<Pending> pending;
    bool active = false;
    bool queued = false;  // key is in ready_ (avoid duplicate entries)
    std::shared_ptr<QuerySession> session;
    std::unique_ptr<const CarlEngine> engine;
    Status engine_status;  // OK until a creation attempt fails
  };

  void WorkerLoop();
  // Drains one wave from `shard` (already marked active) and executes it.
  void RunWave(Shard* shard);
  // Executes one request against the shard's engine (already created).
  // `coalesced` marks wave followers.
  void Execute(Shard* shard, Pending* pending, bool coalesced);
  void Respond(Pending* pending, ServeResponse response);

  ServeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, RegisteredInstance> instances_;
  // Key: instance name + '\0' + program text.
  std::unordered_map<std::string, Shard> shards_;
  std::deque<std::string> ready_;  // shard keys with pending, not active
  size_t queued_requests_ = 0;     // admission-bound accounting
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  struct LiveStats {
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> deadline_preempted{0};
    std::atomic<uint64_t> waves{0};
    std::atomic<uint64_t> coalesced{0};
  };
  LiveStats stats_;
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
