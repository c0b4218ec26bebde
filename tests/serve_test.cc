// carl_serve: the wire codec, the concurrent query service, and the TCP
// front door.
//
// The load-bearing assertions:
//  * answers served through the full encode -> submit -> queue -> encode
//    path are BIT-identical to direct CarlEngine calls (doubles compared
//    by bit pattern, so NaN std_error fields count too);
//  * identical requests racing on 4 workers ground exactly once — one
//    request creates the shard's engine, every other one runs on it
//    (ServeStats::coalesced and QuerySession ground_full prove it);
//  * a per-request deadline surfaces as a kDeadlineExceeded wire error
//    WITHOUT poisoning the shared session: the next request over the
//    same shard answers bit-identically to an undisturbed engine.
//  * one client's query never changes another's answer: queries that
//    derive different §4.3 aggregates on one shard answer, in either
//    order, exactly as fresh engines do.
//
// This suite runs in the TSan CI leg: the service is exercised with
// many concurrent ServeDriver clients against multiple workers, one
// shard's derived variants included.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/tcp_server.h"

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok())

namespace carl {
namespace serve {
namespace {

using test_fixtures::MiniMimicDataset;
using test_fixtures::MiniNisDataset;
using test_fixtures::RealisticReviewDataset;

// Two queries that unify Score along different relational paths (Author
// vs Submitted): each derives its own §4.3 variant of one program.
const std::vector<std::string>& ReviewPair() {
  static const std::vector<std::string> pair = {"Score[S] <= Prestige[A]?",
                                                "Score[S] <= Blind[C]?"};
  return pair;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

#define EXPECT_BIT_EQ(a, b) \
  EXPECT_PRED2(BitEqual, (a), (b)) << #a " vs " #b

// Direct-engine reference answer for (dataset, query) with the engine
// defaults the wire path uses.
AteAnswer DirectAnswer(const datagen::Dataset& data,
                       const std::string& query) {
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data.instance.get(), std::move(model).ValueUnsafe());
  CARL_CHECK_OK(engine.status());
  QueryRequest request(query);
  QueryResponse response = (*engine)->Answer(request);
  CARL_CHECK_OK(response.status);
  CARL_CHECK(response.answer.ate.has_value());
  return *response.answer.ate;
}

void ExpectMatchesDirect(const ServeResponse& served, const AteAnswer& direct,
                         const std::string& query) {
  ASSERT_EQ(served.code, StatusCode::kOk)
      << query << ": " << served.message;
  ASSERT_EQ(served.kind, kAnswerAte) << query;
  EXPECT_BIT_EQ(served.ate.value, direct.ate.value);
  EXPECT_BIT_EQ(served.ate.std_error, direct.ate.std_error);
  EXPECT_BIT_EQ(served.ate.ci_low, direct.ate.ci_low);
  EXPECT_BIT_EQ(served.ate.ci_high, direct.ate.ci_high);
  EXPECT_BIT_EQ(served.naive_treated, direct.naive.treated_mean);
  EXPECT_BIT_EQ(served.naive_control, direct.naive.control_mean);
  EXPECT_BIT_EQ(served.naive_diff, direct.naive.difference);
  EXPECT_EQ(served.num_units, direct.num_units);
  EXPECT_EQ(served.dropped_units, direct.dropped_units);
  EXPECT_EQ(served.response_attribute, direct.response_attribute);
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  ServeRequest request;
  request.request_id = 77;
  request.instance = "mimic";
  request.program = "Death[P] <= SelfPay[P] WHERE Patient(P)";
  request.query = "Death[P] <= SelfPay[P]?";
  request.deadline_ms = 12.5;
  request.memory_budget = 1 << 20;
  request.max_bindings = 999;
  request.bootstrap_replicates = 64;
  request.seed = 1234;

  ServeRequest decoded;
  ASSERT_OK(DecodeRequest(EncodeRequest(request), &decoded));
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.instance, request.instance);
  EXPECT_EQ(decoded.program, request.program);
  EXPECT_EQ(decoded.query, request.query);
  EXPECT_BIT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.memory_budget, request.memory_budget);
  EXPECT_EQ(decoded.max_bindings, request.max_bindings);
  EXPECT_EQ(decoded.bootstrap_replicates, request.bootstrap_replicates);
  EXPECT_EQ(decoded.seed, request.seed);
}

TEST(WireTest, ResponseRoundTripPreservesNaNBits) {
  ServeResponse response;
  response.request_id = 3;
  response.code = StatusCode::kOk;
  response.kind = kAnswerAte;
  response.ate.value = -0.25;
  // The bootstrap-disabled path leaves std_error/CI as quiet NaN; the
  // wire must round-trip the exact bit pattern.
  response.ate.std_error = std::numeric_limits<double>::quiet_NaN();
  response.ate.ci_low = std::numeric_limits<double>::quiet_NaN();
  response.ate.ci_high = 1.5;
  response.num_units = 42;
  response.response_attribute = "Death";
  response.criterion = 2;
  response.queue_ms = 0.75;
  response.timing.total_s = 0.125;
  response.coalesced = true;

  ServeResponse decoded;
  ASSERT_OK(DecodeResponse(EncodeResponse(response), &decoded));
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_EQ(decoded.kind, kAnswerAte);
  EXPECT_BIT_EQ(decoded.ate.value, response.ate.value);
  EXPECT_BIT_EQ(decoded.ate.std_error, response.ate.std_error);
  EXPECT_BIT_EQ(decoded.ate.ci_low, response.ate.ci_low);
  EXPECT_BIT_EQ(decoded.ate.ci_high, response.ate.ci_high);
  EXPECT_EQ(decoded.num_units, 42u);
  EXPECT_EQ(decoded.response_attribute, "Death");
  EXPECT_EQ(decoded.criterion, 2);
  EXPECT_BIT_EQ(decoded.queue_ms, response.queue_ms);
  EXPECT_BIT_EQ(decoded.timing.total_s, response.timing.total_s);
  EXPECT_TRUE(decoded.coalesced);
}

TEST(WireTest, EveryStatusCodeSurvivesTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable}) {
    EXPECT_EQ(CodeFromWire(WireCode(code)), code)
        << StatusCodeToString(code);
  }
  // Protocol skew decodes as an error, never as OK.
  EXPECT_EQ(CodeFromWire(0xDEAD), StatusCode::kInternal);
}

TEST(WireTest, TruncatedFrameIsAnError) {
  ServeRequest request;
  request.instance = "mimic";
  request.program = "p";
  request.query = "q";
  std::string payload = EncodeRequest(request);
  ServeRequest decoded;
  for (size_t cut = 1; cut < 5; ++cut) {
    Status status = DecodeRequest(
        std::string_view(payload).substr(0, payload.size() - cut), &decoded);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

class ServeServiceTest : public ::testing::Test {
 protected:
  ServeServiceTest()
      : mimic_(MiniMimicDataset(600, 40)), nis_(MiniNisDataset(900, 30)) {}

  ServeRequest MimicRequest(const std::string& query, uint64_t id) const {
    ServeRequest request;
    request.request_id = id;
    request.instance = "mimic";
    request.program = mimic_.model_text;
    request.query = query;
    return request;
  }

  datagen::Dataset mimic_;
  datagen::Dataset nis_;
};

TEST_F(ServeServiceTest, AdmissionRejectsBadRequests) {
  ServeService service;
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  EXPECT_EQ(service
                .RegisterInstance("mimic", mimic_.schema.get(),
                                  mimic_.instance.get())
                .code(),
            StatusCode::kAlreadyExists);

  ServeDriver driver(&service);
  service.Start();

  ServeRequest unknown = MimicRequest("Death[P] <= SelfPay[P]?", 1);
  unknown.instance = "no-such-dataset";
  EXPECT_EQ(driver.Call(unknown).code, StatusCode::kNotFound);

  ServeRequest no_query = MimicRequest("", 2);
  EXPECT_EQ(driver.Call(no_query).code, StatusCode::kInvalidArgument);

  ServeRequest no_program = MimicRequest("Death[P] <= SelfPay[P]?", 3);
  no_program.program.clear();
  EXPECT_EQ(driver.Call(no_program).code, StatusCode::kInvalidArgument);

  // A parse error in the query text comes back through the engine as a
  // wire error, not a hang or a crash.
  ServeRequest bad_query = MimicRequest("this is not CaRL", 4);
  EXPECT_EQ(driver.Call(bad_query).code, StatusCode::kInvalidArgument);

  // A replicate count whose result slots alone would take 32 GiB is
  // refused at the door, before anything allocates for it.
  ServeRequest huge_bootstrap = MimicRequest("Death[P] <= SelfPay[P]?", 5);
  huge_bootstrap.bootstrap_replicates = 2147483647;
  EXPECT_EQ(driver.Call(huge_bootstrap).code, StatusCode::kInvalidArgument);

  ServeStats stats = service.Snapshot();
  // no_query never reaches the service (the codec refuses to decode a
  // query-less frame); bad_query is admitted and errors in the engine.
  EXPECT_EQ(stats.rejected, 3u);
}

TEST_F(ServeServiceTest, QueueBoundRejectsResourceExhausted) {
  ServeOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));

  // Not started: everything queues, so the third submit must bounce.
  std::vector<std::future<ServeResponse>> responses;
  std::vector<std::shared_ptr<std::promise<ServeResponse>>> promises;
  for (int i = 0; i < 3; ++i) {
    auto promise = std::make_shared<std::promise<ServeResponse>>();
    responses.push_back(promise->get_future());
    promises.push_back(promise);
    service.Submit(MimicRequest("Death[P] <= SelfPay[P]?", 10 + i),
                   [promise](const ServeResponse& response) {
                     promise->set_value(response);
                   });
  }
  ServeResponse rejected = responses[2].get();
  EXPECT_EQ(rejected.code, StatusCode::kResourceExhausted);

  service.Start();
  EXPECT_EQ(responses[0].get().code, StatusCode::kOk);
  EXPECT_EQ(responses[1].get().code, StatusCode::kOk);
  service.Shutdown();

  ServeStats stats = service.Snapshot();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

// What a service's Snapshot() counts, by the registry name of each count.
std::vector<std::pair<const char*, uint64_t>> ServiceCounts(
    const ServeStats& stats) {
  return {
      {"serve.admitted", stats.admitted},
      {"serve.rejected", stats.rejected},
      {"serve.completed", stats.completed},
      {"serve.deadline_preempted", stats.deadline_preempted},
      {"serve.coalesced", stats.coalesced},
  };
}

// The service counts each event once, in its counter block: while it is
// the only service, each step moves Snapshot() as it moves serve.*, and
// the counts stay in the registry after the service goes. One worker, a
// queue bound of 2 and a late Start make every counter move, and no two
// in the same steps, so a count filed under another counter's name
// shows.
TEST_F(ServeServiceTest, SnapshotIsTheRegistryCounts) {
  const obs::Snapshot first = obs::Registry::Global().TakeSnapshot();
  ServeStats stats;
  {
    ServeOptions options;
    options.num_workers = 1;
    options.max_queue_depth = 2;
    ServeService service(options);
    ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                       mimic_.instance.get()));
    auto step = [&](const char* what, auto run) {
      const ServeStats stats_before = service.Snapshot();
      const obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
      run();
      const obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
      const obs::SnapshotDelta delta(before, after);
      const auto counts_before = ServiceCounts(stats_before);
      const auto counts_after = ServiceCounts(service.Snapshot());
      for (size_t i = 0; i < counts_after.size(); ++i) {
        const char* name = counts_after[i].first;
        EXPECT_EQ(delta.CounterDelta(name),
                  counts_after[i].second - counts_before[i].second)
            << name << " when " << what;
      }
    };
    std::vector<std::future<ServeResponse>> responses;
    step("two queue and one bounces", [&] {
      for (int i = 0; i < 3; ++i) {
        ServeRequest request = MimicRequest("Death[P] <= SelfPay[P]?", 1 + i);
        if (i == 0) request.deadline_ms = 0.01;
        auto promise = std::make_shared<std::promise<ServeResponse>>();
        responses.push_back(promise->get_future());
        service.Submit(request, [promise](const ServeResponse& response) {
          promise->set_value(response);
        });
      }
      EXPECT_EQ(responses[2].get().code, StatusCode::kResourceExhausted);
    });
    step("one expires and one creates the engine", [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      service.Start();
      EXPECT_EQ(responses[0].get().code, StatusCode::kDeadlineExceeded);
      EXPECT_EQ(responses[1].get().code, StatusCode::kOk);
    });
    step("one coalesces", [&] {
      ServeDriver driver(&service);
      EXPECT_TRUE(
          driver.Call(MimicRequest("Death[P] <= SelfPay[P]?", 4)).coalesced);
    });
    service.Shutdown();
    stats = service.Snapshot();
  }
  const obs::Snapshot last = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotDelta delta(first, last);
  for (const auto& [name, count] : ServiceCounts(stats)) {
    EXPECT_GT(count, 0u) << name;
    EXPECT_EQ(delta.CounterDelta(name), count) << name << " after the service";
  }
}

// The grounds-once contract: identical requests racing on 4 workers
// ground exactly once — one request creates the shard's engine, every
// other one waits for it and runs on it.
TEST_F(ServeServiceTest, IdenticalRequestsGroundExactlyOnce) {
  constexpr int kRequests = 8;
  ServeOptions options;
  options.num_workers = 4;
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));

  // Submit BEFORE Start: every request is queued when the 4 workers
  // start, so the first four race for the cold shard.
  std::vector<std::future<ServeResponse>> responses;
  for (int i = 0; i < kRequests; ++i) {
    auto promise = std::make_shared<std::promise<ServeResponse>>();
    responses.push_back(promise->get_future());
    service.Submit(MimicRequest("Death[P] <= SelfPay[P]?", 100 + i),
                   [promise](const ServeResponse& response) {
                     promise->set_value(response);
                   });
  }
  service.Start();

  AteAnswer direct = DirectAnswer(mimic_, "Death[P] <= SelfPay[P]?");
  int creators = 0;
  for (auto& future : responses) {
    ServeResponse response = future.get();
    ExpectMatchesDirect(response, direct, "identical");
    if (!response.coalesced) ++creators;
  }
  service.Shutdown();

  // Exactly one request created the engine; everyone else ran on it.
  EXPECT_EQ(creators, 1);
  EXPECT_EQ(service.Snapshot().coalesced,
            static_cast<uint64_t>(kRequests - 1));

  // The shared session grounded the model exactly once.
  auto session_stats =
      service.ShardSessionStats("mimic", mimic_.model_text);
  ASSERT_TRUE(session_stats.has_value());
  EXPECT_EQ(session_stats->ground_full, 1u);
  EXPECT_EQ(session_stats->ground_extends, 0u);
}

// N concurrent clients multiplexed over shared sessions must see
// answers bit-identical to direct engine calls — the REVIEW pair too,
// whose two derived variants of one shard run on 4 workers at once.
TEST_F(ServeServiceTest, ConcurrentClientsBitIdenticalToDirect) {
  struct Workload {
    const char* instance;
    const datagen::Dataset* dataset;
    std::string query;
    AteAnswer direct;
  };
  const datagen::Dataset review = RealisticReviewDataset();
  std::vector<Workload> workloads = {
      {"mimic", &mimic_, "Death[P] <= SelfPay[P]?", {}},
      {"mimic", &mimic_, "Len[P] <= SelfPay[P]?", {}},
      {"nis", &nis_, "HighBill[P] <= AdmittedToLarge[P]?", {}},
      {"review", &review, ReviewPair()[0], {}},
      {"review", &review, ReviewPair()[1], {}},
  };
  for (Workload& workload : workloads) {
    workload.direct = DirectAnswer(*workload.dataset, workload.query);
  }

  ServeOptions options;
  options.num_workers = 4;
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  ASSERT_OK(service.RegisterInstance("nis", nis_.schema.get(),
                                     nis_.instance.get()));
  ASSERT_OK(service.RegisterInstance("review", review.schema.get(),
                                     review.instance.get()));
  service.Start();

  constexpr int kClients = 6;
  constexpr int kCallsPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeDriver driver(&service);
      for (int i = 0; i < kCallsPerClient; ++i) {
        const Workload& workload =
            workloads[(c + i) % workloads.size()];
        ServeRequest request;
        request.request_id =
            static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        request.instance = workload.instance;
        request.program = workload.dataset->model_text;
        request.query = workload.query;
        ServeResponse response = driver.Call(request);
        ExpectMatchesDirect(response, workload.direct, workload.query);
        if (response.code != StatusCode::kOk) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  service.Shutdown();
  EXPECT_EQ(failures.load(), 0);

  ServeStats stats = service.Snapshot();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kClients * kCallsPerClient));
  EXPECT_EQ(stats.completed, stats.admitted);
}

// One client's query must never change another's answer. The two
// queries unify Score along different relational paths (Author vs
// Submitted); sent in either order to one (instance, program) shard, each
// answers exactly as a fresh engine does.
TEST_F(ServeServiceTest, DerivedQueriesOnOneShardAreHistoryIndependent) {
  const datagen::Dataset review = RealisticReviewDataset();
  const std::vector<std::string>& queries = ReviewPair();
  std::vector<AteAnswer> direct;
  for (const std::string& query : queries) {
    direct.push_back(DirectAnswer(review, query));
  }

  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed" : "forward");
    ServeService service;
    ASSERT_OK(service.RegisterInstance("review", review.schema.get(),
                                       review.instance.get()));
    service.Start();
    ServeDriver driver(&service);
    for (size_t i = 0; i < queries.size(); ++i) {
      size_t q = reversed ? queries.size() - 1 - i : i;
      ServeRequest request;
      request.request_id = i;
      request.instance = "review";
      request.program = review.model_text;
      request.query = queries[q];
      ExpectMatchesDirect(driver.Call(request), direct[q], queries[q]);
    }
    service.Shutdown();
  }
}

// A per-request deadline must surface as kDeadlineExceeded on the wire
// and leave the shared session unpoisoned for the next request.
TEST_F(ServeServiceTest, DeadlineSurfacesWithoutPoisoningTheSession) {
  ServeOptions options;
  options.num_workers = 1;
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  ServeDriver driver(&service);
  service.Start();

  // Warm the shard so later requests measure engine work, not grounding.
  ServeResponse warm = driver.Call(MimicRequest("Death[P] <= SelfPay[P]?", 1));
  ASSERT_EQ(warm.code, StatusCode::kOk) << warm.message;

  // A 1000-replicate bootstrap takes far longer than 0.05 ms: the guard
  // trips mid-execution (or the queue preempts — either way the wire
  // reports kDeadlineExceeded, never a crash or a wrong answer).
  ServeRequest doomed = MimicRequest("Death[P] <= SelfPay[P]?", 2);
  doomed.deadline_ms = 0.05;
  doomed.bootstrap_replicates = 1000;
  ServeResponse dead = driver.Call(doomed);
  EXPECT_EQ(dead.code, StatusCode::kDeadlineExceeded) << dead.message;

  // The shard's session served the aborted pass from staged state only:
  // the follow-up answers bit-identically to a fresh direct engine.
  ServeResponse after = driver.Call(MimicRequest("Death[P] <= SelfPay[P]?", 3));
  AteAnswer direct = DirectAnswer(mimic_, "Death[P] <= SelfPay[P]?");
  ExpectMatchesDirect(after, direct, "post-deadline");

  service.Shutdown();
}

// A request whose deadline expired while queued is preempted BEFORE the
// expensive phase: on a fresh shard it must not trigger engine creation
// (parse + full model grounding) at all — the next live request becomes
// the grounding leader instead.
TEST_F(ServeServiceTest, QueueExpiredRequestDoesNotGround) {
  ServeOptions options;
  options.num_workers = 1;
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));

  // Submit before Start with a deadline far smaller than the queue wait
  // below: by the time a worker picks it up, it has expired.
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  ServeRequest doomed = MimicRequest("Death[P] <= SelfPay[P]?", 1);
  doomed.deadline_ms = 0.01;
  service.Submit(doomed, [promise](const ServeResponse& response) {
    promise->set_value(response);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Start();

  ServeResponse dead = future.get();
  EXPECT_EQ(dead.code, StatusCode::kDeadlineExceeded) << dead.message;
  EXPECT_EQ(service.Snapshot().deadline_preempted, 1u);
  // The preempt skipped engine creation entirely: the shard's session
  // (created at admission) has not grounded anything.
  auto preempted_stats = service.ShardSessionStats("mimic", mimic_.model_text);
  ASSERT_TRUE(preempted_stats.has_value());
  EXPECT_EQ(preempted_stats->ground_full, 0u);
  EXPECT_EQ(preempted_stats->ground_extends, 0u);

  // The next live request grounds (once) and answers normally.
  ServeDriver driver(&service);
  ServeResponse after = driver.Call(MimicRequest("Death[P] <= SelfPay[P]?", 2));
  AteAnswer direct = DirectAnswer(mimic_, "Death[P] <= SelfPay[P]?");
  ExpectMatchesDirect(after, direct, "post-preempt");
  auto session_stats = service.ShardSessionStats("mimic", mimic_.model_text);
  ASSERT_TRUE(session_stats.has_value());
  EXPECT_EQ(session_stats->ground_full, 1u);

  service.Shutdown();
}

// A deadline too far out for the clock to represent means no deadline:
// the request answers, it does not expire on arrival.
TEST_F(ServeServiceTest, UnrepresentableDeadlineAnswers) {
  ServeService service;
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  service.Start();
  ServeDriver driver(&service);
  AteAnswer direct = DirectAnswer(mimic_, "Death[P] <= SelfPay[P]?");
  for (double deadline_ms : {1e300, std::numeric_limits<double>::infinity()}) {
    ServeRequest request = MimicRequest("Death[P] <= SelfPay[P]?", 1);
    request.deadline_ms = deadline_ms;
    ExpectMatchesDirect(driver.Call(request), direct,
                        "deadline_ms=" + std::to_string(deadline_ms));
  }
  service.Shutdown();
}

TEST_F(ServeServiceTest, ShutdownFailsUnexecutedRequests) {
  ServeService service;  // never started
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  service.Submit(MimicRequest("Death[P] <= SelfPay[P]?", 1),
                 [promise](const ServeResponse& response) {
                   promise->set_value(response);
                 });
  service.Shutdown();
  EXPECT_EQ(future.get().code, StatusCode::kUnavailable);

  // Post-shutdown submits reject immediately.
  ServeDriver driver(&service);
  EXPECT_EQ(driver.Call(MimicRequest("Death[P] <= SelfPay[P]?", 2)).code,
            StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------
// TCP front door
// ---------------------------------------------------------------------

TEST_F(ServeServiceTest, TcpRoundTripBitIdentical) {
  ServeService service;
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  service.Start();
  TcpServer server(&service);
  ASSERT_OK(server.Listen(0));  // ephemeral port
  ASSERT_NE(server.port(), 0);

  AteAnswer direct = DirectAnswer(mimic_, "Death[P] <= SelfPay[P]?");

  TcpClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server.port()));
  ServeResponse response;
  ASSERT_OK(client.Call(MimicRequest("Death[P] <= SelfPay[P]?", 7),
                        &response));
  ExpectMatchesDirect(response, direct, "tcp");
  EXPECT_EQ(response.request_id, 7u);

  // Errors travel the same wire: unknown instance -> kNotFound frame.
  ServeRequest unknown = MimicRequest("Death[P] <= SelfPay[P]?", 8);
  unknown.instance = "nope";
  ASSERT_OK(client.Call(unknown, &response));
  EXPECT_EQ(response.code, StatusCode::kNotFound);
  EXPECT_EQ(response.request_id, 8u);

  // Several clients on separate connections, concurrently.
  constexpr int kClients = 4;
  std::atomic<int> oks{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient thread_client;
      ASSERT_OK(thread_client.Connect("127.0.0.1", server.port()));
      ServeResponse thread_response;
      ASSERT_OK(thread_client.Call(
          MimicRequest("Death[P] <= SelfPay[P]?", 100 + c),
          &thread_response));
      ExpectMatchesDirect(thread_response, direct, "tcp-concurrent");
      if (thread_response.code == StatusCode::kOk) {
        oks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(oks.load(), kClients);

  client.Close();
  server.Stop();
  service.Shutdown();
}

// Tearing the server down while responses are still in flight: the
// response callbacks queued in the ServeService keep their Connection
// alive (shared_ptr) past Stop() and drop their frames once `open`
// clears. The ASan/TSan legs turn a regression here (use-after-free on
// the Connection, write to a closed/reused fd) into a hard failure.
TEST_F(ServeServiceTest, TcpStopWithInFlightResponsesIsSafe) {
  ServeOptions options;
  options.num_workers = 1;  // one worker: later requests queue behind
  ServeService service(options);
  ASSERT_OK(service.RegisterInstance("mimic", mimic_.schema.get(),
                                     mimic_.instance.get()));
  service.Start();
  TcpServer server(&service);
  ASSERT_OK(server.Listen(0));

  // Each client sends one slow request (1000-replicate bootstrap) and
  // blocks for a response that Stop() may sever first — both outcomes
  // are fine; the test asserts teardown safety, not delivery.
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient tcp_client;
      if (!tcp_client.Connect("127.0.0.1", server.port()).ok()) return;
      ServeRequest slow = MimicRequest("Death[P] <= SelfPay[P]?",
                                       static_cast<uint64_t>(200 + c));
      slow.bootstrap_replicates = 1000;
      ServeResponse response;
      (void)tcp_client.Call(slow, &response);
    });
  }

  // Let the requests admit and start executing, then sever the
  // connections while the single worker is still draining the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();
  for (std::thread& client_thread : clients) client_thread.join();
  // Shutdown drains the remaining requests; their callbacks fire
  // against connections Stop() already tore down and must drop cleanly.
  service.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace carl
