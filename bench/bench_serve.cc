// carl_serve under sustained mixed load: QPS and tail latency of the
// concurrent query service at 1..N worker threads.
//
// Workload: MIMIC + NIS + REVIEW queries, skewed toward repeats (60%
// of traffic is the hot MIMIC query) the way production query traffic
// repeats. Every worker drains one shared request queue, so the hot
// shard runs on all workers at once. Three things are measured per
// worker count:
//
//  * a deterministic grounds-once segment: identical requests queued
//    before the workers start MUST ground once — one request creates the
//    shard's engine and the rest run on it (CHECKed against
//    ServeStats::coalesced and the shard's SessionStats);
//  * a sustained segment: concurrent blocking clients over the
//    in-process ServeDriver (full wire codec round trip per call),
//    reporting QPS and p50/p99 latency;
//  * bit-identical answers: every served response is CHECKed against a
//    direct CarlEngine answer for its query — the serving layer may
//    never change an answer, only its latency.
//
// BENCH_JSON metrics (label workers=K): serve_qps, serve_p50_ms,
// serve_p99_ms, serve_coalesce_ratio (requests that ran on an engine
// another request created, over admitted), serve_cold_ground_s (wall
// time of the grounds-once segment: identical requests on a cold shard,
// one of which grounds). serve_qps and serve_p99_ms are
// pinned in check_bench_regression.py's REQUIRED_GATED — collected at
// CARL_THREADS=1 and 4 in CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "serve/service.h"

namespace carl {
namespace {

constexpr char kBenchName[] = "serve";

struct Workload {
  const char* instance;
  const datagen::Dataset* dataset;
  const char* query;
  AteAnswer direct;
};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void CheckMatchesDirect(const serve::ServeResponse& served,
                        const Workload& workload) {
  CARL_CHECK(served.code == StatusCode::kOk)
      << workload.query << ": " << served.message;
  CARL_CHECK(served.kind == serve::kAnswerAte) << workload.query;
  CARL_CHECK(BitEqual(served.ate.value, workload.direct.ate.value))
      << workload.query << ": served ATE differs from direct engine";
  CARL_CHECK(BitEqual(served.naive_diff, workload.direct.naive.difference))
      << workload.query << ": served naive contrast differs";
  CARL_CHECK(served.num_units == workload.direct.num_units)
      << workload.query << ": served unit count differs";
}

AteAnswer DirectAnswer(const datagen::Dataset& data,
                       const std::string& query) {
  std::unique_ptr<CarlEngine> engine = bench::MakeEngine(data);
  QueryRequest request(query);
  QueryResponse response = engine->Answer(request);
  CARL_CHECK_OK(response.status);
  CARL_CHECK(response.answer.ate.has_value());
  return *response.answer.ate;
}

double PercentileMs(std::vector<double>* latencies, double p) {
  CARL_CHECK(!latencies->empty());
  std::sort(latencies->begin(), latencies->end());
  size_t index = static_cast<size_t>(p * (latencies->size() - 1) + 0.5);
  return (*latencies)[std::min(index, latencies->size() - 1)];
}

// One worker-count configuration: fresh service, deterministic
// grounds-once segment, then sustained mixed load from `num_clients`
// blocking clients.
void RunConfig(int num_workers, const std::vector<Workload>& workloads,
               int num_clients, int requests_per_client) {
  serve::ServeOptions options;
  options.num_workers = num_workers;
  options.max_queue_depth = 4096;
  serve::ServeService service(options);
  for (const Workload& workload : workloads) {
    // Same instance registered once even if two workloads share it.
    Status status = service.RegisterInstance(
        workload.instance, workload.dataset->schema.get(),
        workload.dataset->instance.get());
    CARL_CHECK(status.ok() || status.code() == StatusCode::kAlreadyExists)
        << status.ToString();
  }

  // --- Grounds-once segment: queue identical requests before Start() so
  // the workers race for the cold shard — one grounds, the rest reuse it.
  constexpr int kIdentical = 6;
  const Workload& hot = workloads[0];
  std::vector<std::future<serve::ServeResponse>> identical;
  for (int i = 0; i < kIdentical; ++i) {
    auto promise = std::make_shared<std::promise<serve::ServeResponse>>();
    identical.push_back(promise->get_future());
    serve::ServeRequest request;
    request.request_id = static_cast<uint64_t>(i);
    request.instance = hot.instance;
    request.program = hot.dataset->model_text;
    request.query = hot.query;
    service.Submit(request, [promise](const serve::ServeResponse& response) {
      promise->set_value(response);
    });
  }
  bench::Stopwatch ground;
  service.Start();
  for (auto& future : identical) CheckMatchesDirect(future.get(), hot);
  double ground_s = ground.Seconds();

  serve::ServeStats after_identical = service.Snapshot();
  CARL_CHECK(after_identical.coalesced >= kIdentical - 1)
      << "identical requests did not share one engine: "
      << after_identical.coalesced;
  auto session_stats =
      service.ShardSessionStats(hot.instance, hot.dataset->model_text);
  CARL_CHECK(session_stats.has_value());
  CARL_CHECK(session_stats->ground_full == 1)
      << kIdentical << " identical requests grounded "
      << session_stats->ground_full << " times";

  // --- Sustained segment: blocking clients over the in-process driver,
  // repeat-skewed schedule (60% hot query), warm shards.
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(num_clients));
  bench::Stopwatch sustained;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  // 60% hot MIMIC, the rest spread over the distinct variants.
  static constexpr int kSchedule[10] = {0, 0, 1, 0, 2, 0, 0, 3, 0, 2};
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeDriver driver(&service);
      latencies[static_cast<size_t>(c)].reserve(
          static_cast<size_t>(requests_per_client));
      for (int i = 0; i < requests_per_client; ++i) {
        const Workload& workload =
            workloads[static_cast<size_t>(kSchedule[(c + i) % 10]) %
                      workloads.size()];
        serve::ServeRequest request;
        request.request_id =
            1000 + static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        request.instance = workload.instance;
        request.program = workload.dataset->model_text;
        request.query = workload.query;
        bench::Stopwatch latency;
        serve::ServeResponse response = driver.Call(request);
        latencies[static_cast<size_t>(c)].push_back(latency.Seconds() *
                                                    1e3);
        CheckMatchesDirect(response, workload);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  double wall_s = sustained.Seconds();
  service.Shutdown();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  double qps = static_cast<double>(all.size()) / wall_s;
  double p50 = PercentileMs(&all, 0.50);
  double p99 = PercentileMs(&all, 0.99);
  serve::ServeStats stats = service.Snapshot();
  double coalesce_ratio =
      stats.admitted > 0
          ? static_cast<double>(stats.coalesced) /
                static_cast<double>(stats.admitted)
          : 0.0;

  std::string label = StrFormat("workers=%d", num_workers);
  bench::PrintRow({label, StrFormat("%.0f", qps), StrFormat("%.2fms", p50),
                   StrFormat("%.2fms", p99),
                   StrFormat("%.2f", coalesce_ratio),
                   StrFormat("%.2fs", ground_s)});
  bench::EmitJson(kBenchName, label, "serve_qps", qps);
  bench::EmitJson(kBenchName, label, "serve_p50_ms", p50);
  bench::EmitJson(kBenchName, label, "serve_p99_ms", p99);
  bench::EmitJson(kBenchName, label, "serve_coalesce_ratio", coalesce_ratio);
  bench::EmitJson(kBenchName, label, "serve_cold_ground_s", ground_s);
}

int Run(const bench::BenchFlags& flags) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "carl_serve - sustained mixed workload (MIMIC + NIS + REVIEW, "
      "repeat-skewed)");

  datagen::MimicConfig mimic_config;
  mimic_config.num_patients = flags.quick ? 800 : 2000;
  mimic_config.num_caregivers = flags.quick ? 50 : 80;
  Result<datagen::Dataset> mimic = datagen::GenerateMimic(mimic_config);
  CARL_CHECK_OK(mimic.status());

  datagen::NisConfig nis_config;
  nis_config.num_admissions = flags.quick ? 1500 : 6000;
  nis_config.num_hospitals = flags.quick ? 40 : 100;
  Result<datagen::Dataset> nis = datagen::GenerateNis(nis_config);
  CARL_CHECK_OK(nis.status());

  datagen::ReviewConfig review_config;
  review_config.num_authors = flags.quick ? 300 : 800;
  review_config.num_institutions = 20;
  review_config.num_papers = flags.quick ? 2000 : 6000;
  review_config.num_venues = 10;
  Result<datagen::ReviewData> review =
      datagen::GenerateReviewData(review_config);
  CARL_CHECK_OK(review.status());

  std::vector<Workload> workloads = {
      {"mimic", &*mimic, "Death[P] <= SelfPay[P]?", {}},
      {"mimic", &*mimic, "Len[P] <= SelfPay[P]?", {}},
      {"nis", &*nis, "HighBill[P] <= AdmittedToLarge[P]?", {}},
      {"review", &review->dataset, "AVG_Score[A] <= Prestige[A]?", {}},
  };
  for (Workload& workload : workloads) {
    workload.direct = DirectAnswer(*workload.dataset, workload.query);
  }

  bench::PrintRow({"config", "QPS", "p50", "p99", "coalesce", "1st ground"});
  bench::PrintRule();

  const int num_clients = flags.quick ? 3 : 4;
  const int requests_per_client = flags.quick ? 20 : 50;
  for (int workers : {1, 4}) {
    std::string label = StrFormat("workers=%d", workers);
    if (!flags.Selected(label)) continue;
    RunConfig(workers, workloads, num_clients, requests_per_client);
  }

  bench::PrintRule();
  std::printf(
      "Shape to check: identical requests ground once (one creates the\n"
      "shard's engine, the rest run on it), coalesce is about 1.0 (only\n"
      "the first request per shard grounds), and every served answer is\n"
      "bit-identical to a direct engine. QPS at workers=4 vs 1 shows\n"
      "how far the host's effective cores let requests overlap.\n");
  bench::EmitJson(kBenchName, "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
