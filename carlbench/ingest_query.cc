// ingest_query: a writer appends admissions to a mid-size MIMIC instance
// and re-asks one question after every batch, in one thread against the
// library (the wire protocol has no mutation frames).
//
// Each step: append kBatch admissions (Instance::AddFact/SetAttribute),
// create a fresh CarlEngine over the shared QuerySession (engines do not
// refresh after a mutation, so the session extends its cached grounding
// by the delta), and answer `Len[P] <= SelfPay[P]?`.
//
// The run repeats one episode — set up the seed's instance, then kSteps
// steps with the seed's admissions — for --seconds of wall time, so
// every episode does the same work. The first episode is the warm-up:
// after each of its steps, outside the step's timing, a fresh engine over
// a private session (a full ground of the same instance state) answers
// the same query, and its answer is the reference the step's answer in
// every episode must match bit for bit; its grounding phase times give
// the grounding layer's split. The later episodes are timed, and a step's
// time is the fastest of its times across them (FastestTime).
//
// Why: the extend path and binding-cache invalidation carry this load,
// never a full ground, and every step invalidates what is memoized per
// grounding — a gain on serve_mix that costs writers shows here.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"

namespace carlbench {
namespace {

constexpr size_t kPatients = 5000;
constexpr int kBatch = 8;  // admissions appended per step
constexpr char kQuery[] = "Len[P] <= SelfPay[P]?";
// Steps per episode: the tail over them is about p90.
constexpr size_t kSteps = 100;
// Heap counts cover the first kHeapSteps steps of the first timed
// episode, so they repeat exactly for a seed.
constexpr size_t kHeapSteps = 32;

struct Setup {
  carl::datagen::Dataset data;
  std::unique_ptr<carl::RelationalCausalModel> model;
  std::shared_ptr<carl::QuerySession> session;
};

// Dataset, parsed model, session, and the session's first (full) ground.
Setup MakeSetup(uint64_t seed) {
  Setup setup;
  setup.data = MakeMimic(kPatients, seed);
  carl::Result<carl::RelationalCausalModel> model =
      carl::RelationalCausalModel::Parse(*setup.data.schema,
                                         setup.data.model_text);
  CARL_CHECK_OK(model.status());
  setup.model = std::make_unique<carl::RelationalCausalModel>(
      std::move(*model));
  setup.session =
      std::make_shared<carl::QuerySession>(setup.data.instance.get());
  CARL_CHECK_OK(carl::CarlEngine::Create(setup.session, *setup.model).status());
  return setup;
}

// One admission in the generator's shape: a patient with demographics
// and outcomes, a care edge to an existing caregiver, and one to three
// prescriptions with doses.
void AppendAdmission(carl::Instance* db, carl::Rng* rng, uint64_t id,
                     size_t caregivers) {
  auto ok = [](const carl::Status& status) { CARL_CHECK_OK(status); };
  std::string pat = "ip" + std::to_string(id);
  ok(db->AddFact("Pa", {pat}));
  double age = std::min(99.0, std::max(18.0, rng->Normal(62.0, 18.0)));
  double diag = 0.35 + 0.006 * (age - 62.0) + rng->Normal(0.0, 0.3);
  bool selfpay = rng->Bernoulli(0.12);
  bool severe = rng->Bernoulli(0.4 + 0.2 * diag);
  ok(db->SetAttribute("Eth", {pat},
                      carl::Value(static_cast<double>(rng->UniformInt(0, 4)))));
  ok(db->SetAttribute("Religion", {pat},
                      carl::Value(static_cast<double>(rng->UniformInt(0, 3)))));
  ok(db->SetAttribute("Sex", {pat}, carl::Value(rng->Bernoulli(0.5))));
  ok(db->SetAttribute("Age", {pat}, carl::Value(age)));
  ok(db->SetAttribute("Diag", {pat}, carl::Value(diag)));
  ok(db->SetAttribute("SelfPay", {pat}, carl::Value(selfpay)));
  ok(db->SetAttribute("Severe", {pat}, carl::Value(severe)));
  std::string caregiver =
      "c" + std::to_string(rng->UniformInt(
                0, static_cast<int64_t>(caregivers) - 1));
  ok(db->AddFact("Care", {caregiver, pat}));
  int64_t prescriptions = rng->UniformInt(1, 3);
  for (int64_t d = 0; d < prescriptions; ++d) {
    std::string rx = pat + "_rx" + std::to_string(d);
    ok(db->AddFact("Prescription", {rx}));
    ok(db->AddFact("Given", {rx, pat}));
    ok(db->AddFact("Drug", {caregiver, rx}));
    ok(db->SetAttribute("Dose", {rx},
                        carl::Value(std::max(0.0, 1.0 + 1.6 * diag +
                                                      rng->Normal(0.0, 0.4)))));
  }
  double len = std::max(6.0, 180.0 + 35.0 * diag + 4.6 * (age - 62.0) +
                                 (selfpay ? -26.0 : 0.0) +
                                 rng->Normal(0.0, 40.0));
  ok(db->SetAttribute("Len", {pat}, carl::Value(len)));
  ok(db->SetAttribute("Death", {pat}, carl::Value(rng->Bernoulli(0.1))));
}

}  // namespace

RunResult RunIngestQuery(const Flags& flags, const Machine& machine) {
  std::vector<double> setup_s;
  std::vector<carl::serve::ServeResponse> references(kSteps);
  // Per step: its time in each timed episode, and in traced runs its
  // layer split.
  std::vector<std::vector<double>> step_ms(kSteps);
  std::vector<double> mutate_ms, extend_ms, unit_table_ms;
  std::vector<double> node_build, enumerate, probe, splice, finalize;
  std::vector<double> ground_ms, parse_model_ms;
  double parse_ms = 0.0, resolve_ms = 0.0, estimate_ms = 0.0;
  double traced_ms = 0.0, untraced_ms = 0.0;
  uint64_t traced_steps = 0, untraced_steps = 0;
  uint64_t attempted = 0, failed = 0;
  size_t nodes = 0, edges = 0;
  Tracer tracer(flags.trace);
  RegistryWindow registry;
  HeapCounts heap;

  uint64_t deadline = NowNs() + static_cast<uint64_t>(flags.seconds * 1e9);
  // The warm-up episode and at least one timed one, then as many as fit.
  int episode = 0;
  for (; episode < 2 || NowNs() < deadline; ++episode) {
    bool warmup = episode == 0;
    // Traced runs trace every other timed episode, so the untraced ones
    // measure what tracing costs on the same work.
    bool traced = flags.trace && !warmup && episode % 2 == 0;
    uint64_t setup_start = NowNs();
    Setup setup = MakeSetup(flags.seed);
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    carl::Instance* db = setup.data.instance.get();
    size_t caregivers = kPatients * 13 / 400;
    carl::Rng rng(flags.seed * 7919 + 3);
    uint64_t admission_id = 0;

    for (size_t step = 0; step < kSteps; ++step) {
      uint64_t id = static_cast<uint64_t>(episode) * kSteps + step;
      if (!warmup) registry.Begin();
      HeapCounts heap_before = HeapNow();

      uint64_t t0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        AppendAdmission(db, &rng, admission_id++, caregivers);
      }
      uint64_t t1 = NowNs();
      carl::Result<std::unique_ptr<carl::CarlEngine>> engine =
          carl::CarlEngine::Create(setup.session, *setup.model);
      uint64_t t2 = NowNs();
      carl::QueryResponse response;
      if (engine.ok()) {
        response = (*engine)->Answer(carl::QueryRequest(std::string(kQuery)));
      } else {
        response.status = engine.status();
      }
      uint64_t t3 = NowNs();

      HeapCounts heap_after = HeapNow();
      if (!warmup) registry.End();
      if (episode == 1 && step < kHeapSteps) {
        heap.allocs += heap_after.allocs - heap_before.allocs;
        heap.bytes += heap_after.bytes - heap_before.bytes;
      }
      if (engine.ok()) {
        nodes = (*engine)->grounded().graph().num_nodes();
        edges = (*engine)->grounded().graph().num_edges();
      }

      // Outside the step's timing: the fresh full-ground reference, once
      // per instance state (every episode goes through the same states).
      if (warmup) {
        DirectAnswer direct =
            AnswerDirect(*setup.data.schema, db, setup.data.model_text, kQuery,
                         /*bootstrap_replicates=*/0, /*seed=*/42);
        references[step] = direct.answer;
        ground_ms.push_back(direct.ground_ms);
        parse_model_ms.push_back(direct.parse_model_ms);
        node_build.push_back(direct.phases.node_build_s * 1e3);
        enumerate.push_back(direct.phases.enumerate_s * 1e3);
        probe.push_back((direct.phases.merge_s - direct.phases.splice_s) * 1e3);
        splice.push_back(direct.phases.splice_s * 1e3);
        finalize.push_back(direct.phases.finalize_s * 1e3);
      }
      carl::serve::ServeResponse served =
          carl::serve::FromQueryResponse(response);
      std::string mismatch = AnswerMismatch(served, references[step]);
      ++attempted;
      if (!served.ok() || !mismatch.empty()) {
        ++failed;
        std::fprintf(stderr, "ingest_query episode %d step %zu: %s\n",
                     episode, step,
                     served.ok() ? mismatch.c_str() : served.message.c_str());
      }
      if (warmup) continue;

      double ms = NsToMs(t3 - t0);
      step_ms[step].push_back(ms);
      if (!flags.trace) continue;
      mutate_ms.push_back(NsToMs(t1 - t0));
      extend_ms.push_back(NsToMs(t2 - t1));
      unit_table_ms.push_back(response.timing.unit_table_s * 1e3);
      parse_ms += response.timing.parse_s * 1e3;
      resolve_ms += response.timing.resolve_s * 1e3;
      estimate_ms += response.timing.estimate_s * 1e3;
      (traced ? traced_ms : untraced_ms) += ms;
      ++(traced ? traced_steps : untraced_steps);
      if (traced) {
        int root = tracer.Add("client.step", id, t0, t3);
        tracer.Add("relational.mutate", id, t0, t1, root);
        tracer.Add("grounding.extend", id, t1, t2, root);
        tracer.AddEngine(root, id, t2, response.timing);
      }
    }
  }

  // A step's time: the fastest of its timed episodes.
  std::vector<double> fastest;
  double fastest_s = 0.0;
  for (const std::vector<double>& times : step_ms) {
    fastest.push_back(FastestTime(times));
    fastest_s += fastest.back() / 1e3;
  }
  Tail tail = TailOf(fastest);
  uint64_t extends = registry.Delta("query_session.ground_extends");
  std::printf("ingest_query: %d timed episodes of %zu steps of %d admissions "
              "(%llu extends), instance at the end %zu nodes / %zu edges; "
              "step p50 %.2f ms, p%.1f %.2f ms; peak RSS %.1f MiB\n",
              episode - 1, kSteps, kBatch,
              static_cast<unsigned long long>(extends), nodes, edges,
              Median(fastest), tail.percentile, tail.value, PeakRssMb());

  RunResult result;
  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0;
  if (!flags.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.latency_p50_ms = Median(fastest);
    e2e.latency_tail_ms = tail.value;
    e2e.throughput_ops = static_cast<double>(kSteps) / fastest_s;
    AddEndToEnd(e2e, &result);
    return result;
  }
  double n = static_cast<double>(mutate_ms.size());
  Layers layers;
  layers.latency_tail_percentile = tail.percentile;
  layers.failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  layers.parse_ms = parse_ms / n;
  layers.resolve_ms = resolve_ms / n;
  layers.unit_table_p50_ms = Median(unit_table_ms);
  layers.unit_table_p99_ms = Quantile(unit_table_ms, 0.99);
  layers.estimate_ms = estimate_ms / n;
  // Steps extend; the full grounds are the warm-up's references of the
  // same instance states.
  layers.extend_ms = Median(extend_ms);
  layers.ground_ms = Median(ground_ms);
  layers.node_build_ms = Median(node_build);
  layers.enumerate_ms = Median(enumerate);
  layers.probe_ms = Median(probe);
  layers.splice_ms = Median(splice);
  layers.finalize_ms = Median(finalize);
  layers.nodes = static_cast<double>(nodes);
  layers.edges = static_cast<double>(edges);
  layers.parse_model_ms = Median(parse_model_ms);
  layers.mutate_ms = Median(mutate_ms);
  if (traced_steps > 0 && untraced_steps > 0) {
    layers.overhead_ratio =
        (traced_ms / static_cast<double>(traced_steps)) /
        (untraced_ms / static_cast<double>(untraced_steps));
  }
  AddLayers(layers, registry, mutate_ms.size(), heap,
            std::min(kSteps, kHeapSteps), tracer, machine, &result);
  WriteTrace(flags, tracer);
  return result;
}

}  // namespace carlbench
