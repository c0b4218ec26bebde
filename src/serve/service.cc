#include "serve/service.h"

#include <future>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {
namespace serve {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string ShardKey(const std::string& instance, const std::string& program) {
  std::string key;
  key.reserve(instance.size() + 1 + program.size());
  key.append(instance);
  key.push_back('\0');
  key.append(program);
  return key;
}

}  // namespace

ServeService::ServeService(ServeOptions options)
    : options_(std::move(options)),
      counters_({"serve.admitted", "serve.rejected", "serve.completed",
                 "serve.deadline_preempted", "serve.coalesced"}) {
  if (options_.num_workers < 1) options_.num_workers = 1;
}

ServeService::~ServeService() { Shutdown(); }

Status ServeService::RegisterInstance(const std::string& name,
                                      const Schema* schema,
                                      const Instance* instance) {
  if (schema == nullptr || instance == nullptr) {
    return Status::InvalidArgument("null schema/instance for '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      instances_.emplace(name, RegisteredInstance{schema, instance});
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("instance '" + name + "' already registered");
  }
  return Status::OK();
}

void ServeService::Submit(const ServeRequest& request, Callback callback) {
  CARL_TRACE_SCOPE("serve.admit");

  auto reject = [&](Status status) {
    counters_.Increment(kRejected);
    ServeResponse response;
    response.request_id = request.request_id;
    response.code = status.code();
    response.message = status.message();
    callback(response);
  };

  if (request.query.empty()) {
    reject(Status::InvalidArgument("request has no query text"));
    return;
  }
  if (request.program.empty()) {
    reject(Status::InvalidArgument("request has no program text"));
    return;
  }
  if (request.bootstrap_replicates > kMaxBootstrapReplicates) {
    reject(Status::InvalidArgument(
        "bootstrap_replicates " + std::to_string(request.bootstrap_replicates) +
        " exceeds the bound " + std::to_string(kMaxBootstrapReplicates)));
    return;
  }

  Pending pending;
  pending.request = request;
  pending.admitted_at = std::chrono::steady_clock::now();
  // Effective budget: request fields win, service defaults fill the
  // rest. The environment is never consulted on this path.
  pending.budget.deadline_ms = request.deadline_ms > 0.0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
  pending.budget.memory_bytes = request.memory_budget > 0
                                    ? request.memory_budget
                                    : options_.default_memory_budget;
  pending.budget.max_bindings = request.max_bindings > 0
                                    ? request.max_bindings
                                    : options_.default_max_bindings;

  // Admission decisions happen under mu_, but the rejection CALLBACK
  // must not: the TCP path's callback blocks on a socket write, and a
  // callback is allowed to read service state (ShardSessionStats). Only
  // the Status is recorded inside the lock; reject() runs after it.
  Status admit_status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto instance_it = instances_.find(request.instance);
    if (stopping_) {
      admit_status = Status::Unavailable("service is shutting down");
    } else if (instance_it == instances_.end()) {
      admit_status =
          Status::NotFound("unknown instance '" + request.instance + "'");
    } else if (queue_.size() >= options_.max_queue_depth) {
      admit_status = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) +
          " queued, bound " + std::to_string(options_.max_queue_depth) + ")");
    } else {
      // All rejection paths are behind us: only now does the callback
      // move into the pending record (reject() must stay callable).
      pending.callback = std::move(callback);
      Shard& shard = shards_[ShardKey(request.instance, request.program)];
      if (shard.session == nullptr) {
        shard.schema = instance_it->second.schema;
        shard.session =
            std::make_shared<QuerySession>(instance_it->second.instance);
      }
      pending.shard = &shard;
      queue_.push_back(std::move(pending));
    }
  }
  if (!admit_status.ok()) {
    reject(admit_status);
    return;
  }
  counters_.Increment(kAdmitted);
  cv_.notify_one();
}

void ServeService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ServeService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Never-started service (or requests admitted after the workers left,
  // which stopping_ prevents): fail any stragglers instead of dropping
  // their callbacks.
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(queue_);
  }
  for (Pending& pending : orphans) {
    ServeResponse response;
    response.request_id = pending.request.request_id;
    response.code = StatusCode::kUnavailable;
    response.message = "service shut down before execution";
    Respond(&pending, std::move(response));
  }
}

void ServeService::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-on-shutdown: keep taking requests until the queue is empty.
      if (queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(&pending);
  }
}

Result<const CarlEngine*> ServeService::ShardEngine(Shard* shard,
                                                    const std::string& program,
                                                    bool* created) {
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->engine != nullptr) return shard->engine.get();
  CARL_RETURN_IF_ERROR(shard->engine_status);
  // No engine yet: this request creates it (parse + full model
  // grounding), under the guard token its caller installed. A deadline
  // that ran out while waiting on shard->mu stops it before grounding.
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  Result<std::unique_ptr<CarlEngine>> engine =
      [&]() -> Result<std::unique_ptr<CarlEngine>> {
    CARL_ASSIGN_OR_RETURN(
        RelationalCausalModel model,
        RelationalCausalModel::Parse(*shard->schema, program));
    return CarlEngine::Create(shard->session, std::move(model));
  }();
  if (!engine.ok()) {
    // A guard stop is this request's budget running out, not a fact
    // about the variant: leave `engine` unset so the next request retries
    // (an aborted ground never poisons the session — see guard.h).
    // Anything else is deterministic; cache it so later requests fail
    // fast.
    if (!guard::IsGuardStop(engine.status().code())) {
      shard->engine_status = engine.status();
    }
    return engine.status();
  }
  shard->engine = std::move(engine).ValueUnsafe();
  *created = true;
  return shard->engine.get();
}

void ServeService::Execute(Pending* pending) {
  CARL_TRACE_SCOPE("serve.request");
  // Latency histograms of every service in the process.
  static obs::Histogram& queue_ms = obs::Registry::Global().GetHistogram(
      "serve.queue_ms", {0.1, 1, 5, 20, 100, 500, 2000});
  static obs::Histogram& total_ms = obs::Registry::Global().GetHistogram(
      "serve.total_ms", {1, 5, 20, 100, 500, 2000, 10000});

  ServeResponse response;
  response.request_id = pending->request.request_id;
  response.queue_ms = MsSince(pending->admitted_at);
  queue_ms.Record(response.queue_ms);

  // Deadline counts from admission: an expired-in-queue request fails
  // without executing — and without touching the shard's session.
  guard::QueryBudget budget = pending->budget;
  if (budget.deadline_ms > 0.0) {
    double remaining = budget.deadline_ms - MsSince(pending->admitted_at);
    if (remaining <= 0.0) {
      counters_.Increment(kDeadlinePreempted);
      response.code = StatusCode::kDeadlineExceeded;
      response.message = "deadline expired in admission queue";
      Respond(pending, std::move(response));
      return;
    }
    budget.deadline_ms = remaining;
  }

  // The server path installs its own token unconditionally — even an
  // unlimited one — so the engine's env-default fallback never runs (no
  // ambient CARL_DEADLINE_MS in the server path). One token spans both
  // engine creation and Answer: the request's remaining deadline and
  // memory budget bound the grounding, not just the query.
  guard::ExecToken token(budget);
  guard::ScopedToken scoped(&token);

  bool created = false;
  Result<const CarlEngine*> engine =
      ShardEngine(pending->shard, pending->request.program, &created);
  if (!engine.ok()) {
    response.code = engine.status().code();
    response.message = engine.status().message();
    Respond(pending, std::move(response));
    return;
  }
  if (!created) {
    counters_.Increment(kCoalesced);
  }

  QueryRequest query;
  query.query_text = pending->request.query;
  query.options.bootstrap_replicates =
      static_cast<int>(pending->request.bootstrap_replicates);
  query.options.seed = pending->request.seed;

  ServeResponse wire = FromQueryResponse((*engine)->Answer(query));
  wire.request_id = response.request_id;
  wire.coalesced = !created;
  wire.queue_ms = response.queue_ms;
  total_ms.Record(MsSince(pending->admitted_at));
  Respond(pending, std::move(wire));
}

void ServeService::Respond(Pending* pending, ServeResponse response) {
  counters_.Increment(kCompleted);
  pending->callback(response);
}

ServeStats ServeService::Snapshot() const {
  ServeStats snapshot;
  snapshot.admitted = counters_.value(kAdmitted);
  snapshot.rejected = counters_.value(kRejected);
  snapshot.completed = counters_.value(kCompleted);
  snapshot.deadline_preempted = counters_.value(kDeadlinePreempted);
  snapshot.coalesced = counters_.value(kCoalesced);
  return snapshot;
}

std::optional<QuerySession::SessionStats> ServeService::ShardSessionStats(
    const std::string& instance, const std::string& program) const {
  std::shared_ptr<QuerySession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shards_.find(ShardKey(instance, program));
    if (it == shards_.end()) return std::nullopt;
    session = it->second.session;
  }
  // SnapshotStats is safe from any thread (it takes no lock).
  return session->SnapshotStats();
}

ServeResponse ServeDriver::Call(const ServeRequest& request) {
  // Round-trip the request through the codec so the in-process path
  // exercises exactly what the TCP path puts on the wire.
  ServeRequest decoded;
  Status status = DecodeRequest(EncodeRequest(request), &decoded);
  if (!status.ok()) {
    ServeResponse response;
    response.request_id = request.request_id;
    response.code = status.code();
    response.message = status.message();
    return response;
  }

  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  service_->Submit(decoded, [&promise](const ServeResponse& response) {
    promise.set_value(response);
  });
  ServeResponse raw = future.get();

  ServeResponse response;
  status = DecodeResponse(EncodeResponse(raw), &response);
  if (!status.ok()) {
    response = ServeResponse{};
    response.request_id = request.request_id;
    response.code = status.code();
    response.message = status.message();
  }
  return response;
}

}  // namespace serve
}  // namespace carl
