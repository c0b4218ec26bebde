// Table 2 (paper §6.1): dataset description plus grounding, unit-table
// construction, and query-answering runtimes.
//
// Paper (on the authors' 60-core server, real data):
//   MIMIC-III   26 tables / 324 attrs / 400M rows  : 6h      / 4.5h
//   NIS          4 tables / 280 attrs /   8M rows  : 4m      / 30s
//   REVIEWDATA   3 tables /   7 attrs /   6K rows  : 10.6s   / 1.2s
//   SYNTHETIC    3 tables /   7 attrs / 300K rows  : 17.2s   / 1.3s
//
// Our simulated datasets are smaller (see docs/benchmarks.md); absolute
// numbers are not comparable, but the relative ordering
// (MIMIC >> NIS >> REVIEWDATA) should hold.
//
// Measured with the repo's portable timer harness (bench_timer.h) — no
// Google Benchmark dependency — so this target always builds and runs.
// CARL_THREADS=N parallelizes the measured paths via carl_exec.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "guard/guard.h"
#include "obs/metrics.h"

// Counting replacement of the global operator new for this binary only:
// the unit-table row below reports exact heap allocations per warm build.
// Array and nothrow forms route through this one; aligned forms keep the
// library's allocator and go uncounted.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace carl {
namespace {

constexpr char kBenchName[] = "table2_runtime";

// Id-order fingerprint of a grounded graph (names, adjacency, value
// bits), mirroring tests/fixtures.h: the incremental extend must be
// bit-identical across thread counts, not merely isomorphic.
uint64_t GraphFp(const GroundedModel& grounded) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    return h;
  };
  const CausalGraph& graph = grounded.graph();
  uint64_t h = 0xcbf29ce484222325ull;
  h = mix(h, graph.num_nodes());
  h = mix(h, graph.num_edges());
  for (NodeId id = 0; id < static_cast<NodeId>(graph.num_nodes()); ++id) {
    for (unsigned char c : grounded.NodeName(id)) h = mix(h, c);
    for (NodeId p : graph.Parents(id)) h = mix(h, static_cast<uint64_t>(p));
    for (NodeId c : graph.Children(id)) h = mix(h, static_cast<uint64_t>(c));
    std::optional<double> v = grounded.NodeValue(id);
    uint64_t bits = 0;
    if (v.has_value()) {
      std::memcpy(&bits, &*v, sizeof(bits));
      bits += 1;
    }
    h = mix(h, bits);
  }
  return h;
}

// One synthetic hospital admission against the MIMIC instance: a new
// patient with full demographics and outcomes, one prescription, and the
// Care/Drug/Given facts tying both to an existing caregiver — the same
// per-patient recipe datagen uses, so the delta exercises every rule.
void AddAdmission(Instance& db, size_t i) {
  const std::string pat = "bzp" + std::to_string(i);
  CARL_CHECK_OK(db.AddFact("Pa", {pat}));
  CARL_CHECK_OK(db.SetAttribute("Eth", {pat}, Value(2.0)));
  CARL_CHECK_OK(db.SetAttribute("Religion", {pat}, Value(1.0)));
  CARL_CHECK_OK(db.SetAttribute("Sex", {pat}, Value(i % 2 == 0)));
  CARL_CHECK_OK(
      db.SetAttribute("Age", {pat}, Value(55.0 + static_cast<double>(i % 30))));
  CARL_CHECK_OK(db.SetAttribute("SelfPay", {pat}, Value(i % 5 == 0)));
  CARL_CHECK_OK(db.SetAttribute("Diag", {pat}, Value(3.0)));
  CARL_CHECK_OK(db.SetAttribute("Severe", {pat}, Value(i % 3 == 0)));
  CARL_CHECK_OK(db.SetAttribute("Len", {pat}, Value(5.5)));
  CARL_CHECK_OK(db.SetAttribute("Death", {pat}, Value(false)));
  const std::string rx = "bzrx" + std::to_string(i);
  CARL_CHECK_OK(db.AddFact("Prescription", {rx}));
  CARL_CHECK_OK(db.SetAttribute("Dose", {rx}, Value(1.25)));
  CARL_CHECK_OK(db.AddFact("Care", {"c0", pat}));
  CARL_CHECK_OK(db.AddFact("Drug", {"c0", rx}));
  CARL_CHECK_OK(db.AddFact("Given", {rx, pat}));
}

// Measures ExtendGroundedModel on single-admission deltas. First a
// correctness gate — the same base + delta extended at CARL_THREADS 1
// and 4 must fingerprint identically — then the timed loop: each pass
// admits one patient and extends the maintained grounding by exactly
// that delta (the mutation itself is a dozen O(1) inserts, noise next to
// the extend).
double MeasureIncrementalExtend(datagen::Dataset& dataset,
                                const RelationalCausalModel& model,
                                int iters) {
  Instance& db = *dataset.instance;
  const int prev_threads = ExecContext::Global().threads();
  const uint64_t gen0 = db.generation();
  ExecContext::Global().set_threads(1);
  Result<GroundedModel> base1 = GroundModel(db, model);
  CARL_CHECK_OK(base1.status());
  ExecContext::Global().set_threads(4);
  Result<GroundedModel> base4 = GroundModel(db, model);
  CARL_CHECK_OK(base4.status());

  size_t admission = 0;
  AddAdmission(db, admission++);
  InstanceDelta delta = db.DeltaSince(gen0);
  CARL_CHECK(DeltaSupportsIncrementalExtend(db, model, delta))
      << "single-admission delta fell outside the extend contract";
  ExecContext::Global().set_threads(1);
  Result<GroundedModel> ext1 = ExtendGroundedModel(std::move(*base1), delta);
  CARL_CHECK_OK(ext1.status());
  ExecContext::Global().set_threads(4);
  Result<GroundedModel> ext4 = ExtendGroundedModel(std::move(*base4), delta);
  CARL_CHECK_OK(ext4.status());
  CARL_CHECK(GraphFp(*ext1) == GraphFp(*ext4))
      << "incremental extend is not bit-identical across thread counts";
  ExecContext::Global().set_threads(prev_threads);

  GroundedModel current = std::move(*ext4);
  uint64_t gen = db.generation();
  double extend_s = bench::TimeBest(iters, [&] {
    AddAdmission(db, admission++);
    InstanceDelta d = db.DeltaSince(gen);
    Result<GroundedModel> ext = ExtendGroundedModel(std::move(current), d);
    CARL_CHECK_OK(ext.status());
    current = std::move(*ext);
    gen = db.generation();
  });
  return extend_s;
}

struct Workload {
  const char* name;
  std::unique_ptr<datagen::Dataset> dataset;
  std::unique_ptr<CarlEngine> engine;
  std::string query;
};

// Builds the workloads that pass the --only filter (matched against the
// printed dataset name, so `--only MIMIC` runs just the MIMIC workload —
// CI uses this to capture a full-size grounding trace without paying for
// the other datasets). Filtering happens before generation: a skipped
// workload is never materialized.
std::vector<Workload> MakeWorkloads(const bench::BenchFlags& flags) {
  std::vector<Workload> workloads;

  if (flags.Selected("MIMIC-III(sim)")) {
    datagen::MimicConfig config;
    config.num_patients = flags.quick ? 2000 : 50000;
    config.num_caregivers = flags.quick ? 80 : 1600;
    Result<datagen::Dataset> data = datagen::GenerateMimic(config);
    CARL_CHECK_OK(data.status());
    Workload wl;
    wl.name = "MIMIC-III(sim)";
    wl.dataset = std::make_unique<datagen::Dataset>(std::move(*data));
    wl.query = "Death[P] <= SelfPay[P]?";
    workloads.push_back(std::move(wl));
  }
  if (flags.Selected("NIS(sim)")) {
    datagen::NisConfig config;
    config.num_admissions = flags.quick ? 8000 : 80000;
    if (flags.quick) config.num_hospitals = 120;
    Result<datagen::Dataset> data = datagen::GenerateNis(config);
    CARL_CHECK_OK(data.status());
    Workload wl;
    wl.name = "NIS(sim)";
    wl.dataset = std::make_unique<datagen::Dataset>(std::move(*data));
    wl.query = "HighBill[P] <= AdmittedToLarge[P]?";
    workloads.push_back(std::move(wl));
  }
  if (flags.Selected("REVIEWDATA(sim)")) {
    datagen::ReviewConfig config = datagen::RealisticReviewConfig();
    Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
    CARL_CHECK_OK(data.status());
    Workload wl;
    wl.name = "REVIEWDATA(sim)";
    wl.dataset = std::make_unique<datagen::Dataset>(std::move(data->dataset));
    wl.query = "AVG_Score[A] <= Prestige[A]?";
    workloads.push_back(std::move(wl));
  }
  if (flags.Selected("SYNTH-REVIEW")) {
    datagen::ReviewConfig config;  // paper-scale synthetic
    config.num_authors = flags.quick ? 1000 : 10000;
    config.num_papers = flags.quick ? 7500 : 75000;
    config.num_venues = 100;
    Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
    CARL_CHECK_OK(data.status());
    Workload wl;
    wl.name = "SYNTH-REVIEW";
    wl.dataset = std::make_unique<datagen::Dataset>(std::move(data->dataset));
    wl.query = "AVG_Score[A] <= Prestige[A]?";
    workloads.push_back(std::move(wl));
  }

  std::printf("\nTable 2 - dataset description\n");
  std::printf("%-18s%-12s%-12s%-14s%-12s\n", "Dataset", "Tables[#]",
              "Attr.[#]", "Facts[#]", "Consts[#]");
  for (Workload& wl : workloads) {
    wl.engine = bench::MakeEngine(*wl.dataset);
    std::printf("%-18s%-12zu%-12zu%-14zu%-12zu\n", wl.name,
                wl.dataset->schema->num_predicates(),
                wl.dataset->schema->num_attributes(),
                wl.dataset->instance->TotalFacts(),
                wl.dataset->instance->NumConstants());
  }
  std::printf("\n");
  return workloads;
}

int Run(const bench::BenchFlags& flags) {
  std::vector<Workload> workloads = MakeWorkloads(flags);
  const int iters = flags.quick ? 1 : 2;

  std::printf("Table 2 - runtimes (best of %d, seconds; GroundAllocs =\n"
              "storage-layer allocation events per pass, see\n"
              "storage_stats.h; TableAllocs = heap allocations per warm\n"
              "unit-table build)\n",
              iters);
  std::printf("%-18s%-14s%-14s%-14s%-16s%-16s\n", "Dataset", "Grounding",
              "UnitTable", "QueryAnswer", "GroundAllocs", "TableAllocs");
  for (Workload& wl : workloads) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset->schema, wl.dataset->model_text);
    CARL_CHECK_OK(model.status());
    double ground_s = bench::TimeBest(iters, [&] {
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset->instance, *model);
      CARL_CHECK_OK(grounded.status());
    });
    // One extra warm pass bracketed by registry snapshots: with the match
    // indexes hot, the storage-layer counter movement is the per-pass
    // allocation cost of the storage/join layer — the number future PRs
    // must not regress. Two counters must be exactly zero: eval-result
    // allocs (bindings stream columnar from the evaluator into the graph
    // merge, never through owned Tuples) and graph-node allocs (node args
    // live in the graph's argument arena, never in per-node owned Tuples).
    uint64_t ground_allocs = 0;
    uint64_t ground_eval_allocs = 0;
    uint64_t ground_node_allocs = 0;
    double graph_build_s = 0.0;
    double enumerate_s = 0.0;
    double splice_s = 0.0;
    {
      obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset->instance, *model);
      CARL_CHECK_OK(grounded.status());
      obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
      obs::SnapshotDelta window(before, after);
      ground_allocs = window.CounterDelta("storage.alloc_events");
      ground_eval_allocs = window.CounterDelta("storage.eval_result_allocs");
      ground_node_allocs = window.CounterDelta("storage.graph_node_allocs");
      graph_build_s = grounded->phase_stats().graph_build_s();
      enumerate_s = grounded->phase_stats().enumerate_s;
      splice_s = grounded->phase_stats().splice_s;
    }
    CARL_CHECK(ground_eval_allocs == 0)
        << "per-binding Tuple materialization crept back into the "
        << "grounding hot path: " << ground_eval_allocs << " events";
    CARL_CHECK(ground_node_allocs == 0)
        << "per-node Tuple materialization crept back into the causal-"
        << "graph node store: " << ground_node_allocs << " events";

    Result<CausalQuery> query = ParseQuery(wl.query);
    CARL_CHECK_OK(query.status());
    double table_s = bench::TimeBest(iters, [&] {
      Result<UnitTable> table = wl.engine->BuildUnitTableForQuery(*query);
      CARL_CHECK_OK(table.status());
    });
    // One more warm build, counting operator new calls: one units tuple
    // per row plus per-call bookkeeping (the per-chunk node lists, one
    // column per embedding dimension). Per-unit traversal sets or
    // per-row group vectors would add tens of allocations per row.
    uint64_t table_allocs = 0;
    size_t table_rows = 0;
    {
      const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
      Result<UnitTable> table = wl.engine->BuildUnitTableForQuery(*query);
      table_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
      CARL_CHECK_OK(table.status());
      table_rows = table->data.num_rows();
    }
    CARL_CHECK(table_allocs < 2 * table_rows + 4096)
        << "per-unit heap allocations crept back into the unit-table "
        << "build: " << table_allocs << " allocations for " << table_rows
        << " rows";

    double answer_s = bench::TimeBest(iters, [&] {
      CARL_CHECK_OK(wl.engine->Answer(QueryRequest(wl.query)).status);
    });

    // Incremental grounding on a single-admission delta (MIMIC only; the
    // other workloads have no admission notion). Runs after the other
    // measurements so the handful of admitted patients cannot perturb
    // them. Gated at >= 10x vs the full re-ground outside --quick (the
    // quick instance grounds in milliseconds, where the ratio is noise).
    double extend_s = -1.0;
    if (std::string(wl.name) == "MIMIC-III(sim)") {
      extend_s = MeasureIncrementalExtend(*wl.dataset, *model,
                                          flags.quick ? 3 : 10);
      std::printf("%-18sincremental extend (1 admission): %.5fs "
                  "(full ground %.3fs, %.0fx)\n",
                  wl.name, extend_s, ground_s, ground_s / extend_s);
      if (!flags.quick) {
        CARL_CHECK(extend_s * 10.0 <= ground_s)
            << "incremental extend lost its >=10x edge over a full "
            << "re-ground: " << extend_s << "s vs " << ground_s << "s";
      }
      bench::EmitJson(kBenchName, wl.name, "grounding_incremental_extend_s",
                      extend_s);
    }

    std::printf("%-18s%-14.3f%-14.3f%-14.3f%-16llu%-16llu\n", wl.name,
                ground_s, table_s, answer_s,
                static_cast<unsigned long long>(ground_allocs),
                static_cast<unsigned long long>(table_allocs));
    // Grounding phase breakdown of the warm pass: enumeration (binding
    // evaluation) vs graph build, with the build's merge share broken out.
    std::printf("%-18s  enumerate %.3fs | graph build %.3fs (splice %.3fs)\n",
                wl.name, enumerate_s, graph_build_s, splice_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_s", ground_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_graph_build_s",
                    graph_build_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_enumerate_s",
                    enumerate_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_splice_s", splice_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_allocs",
                    static_cast<double>(ground_allocs));
    bench::EmitJson(kBenchName, wl.name, "grounding_eval_result_allocs",
                    static_cast<double>(ground_eval_allocs));
    bench::EmitJson(kBenchName, wl.name, "grounding_graph_node_allocs",
                    static_cast<double>(ground_node_allocs));
    bench::EmitJson(kBenchName, wl.name, "unit_table_s", table_s);
    bench::EmitJson(kBenchName, wl.name, "unit_table_allocs",
                    static_cast<double>(table_allocs));
    bench::EmitJson(kBenchName, wl.name, "query_answer_s", answer_s);
  }

  // Guard degradation accounting: four deliberately stopped grounding
  // passes (cancel, expired deadline, one-byte memory budget, injected
  // enumerate fault) against the first workload. Each aborts at its
  // first checkpoint, so this costs microseconds — but it keeps the four
  // guard counters nonzero in BENCH_table2.json, where the regression
  // gate (check_bench_regression.py REQUIRED_GATED) pins their presence:
  // losing one means a stop path stopped being accounted.
  if (!workloads.empty()) {
    Workload& wl = workloads.front();
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset->schema, wl.dataset->model_text);
    CARL_CHECK_OK(model.status());
    Instance& db = *wl.dataset->instance;
    obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
    {
      guard::ExecToken token;
      token.Cancel();
      guard::ScopedToken scoped(&token);
      CARL_CHECK(GroundModel(db, *model).status().code() ==
                 StatusCode::kCancelled);
    }
    {
      guard::QueryBudget budget;
      budget.deadline_ms = 1e-9;
      guard::ExecToken token(budget);
      guard::ScopedToken scoped(&token);
      CARL_CHECK(GroundModel(db, *model).status().code() ==
                 StatusCode::kDeadlineExceeded);
    }
    {
      guard::QueryBudget budget;
      budget.memory_bytes = 1;
      guard::ExecToken token(budget);
      guard::ScopedToken scoped(&token);
      CARL_CHECK(GroundModel(db, *model).status().code() ==
                 StatusCode::kResourceExhausted);
    }
    {
      guard::FaultRegistry::Global().Arm("grounding.enumerate", 1);
      guard::ExecToken token;
      guard::ScopedToken scoped(&token);
      CARL_CHECK(GroundModel(db, *model).status().code() ==
                 StatusCode::kResourceExhausted);
      guard::FaultRegistry::Global().Reset();
    }
    obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
    obs::SnapshotDelta window(before, after);
    std::printf("guard degradation (deliberately stopped passes on %s):\n",
                wl.name);
    for (const char* counter :
         {"guard_cancelled", "guard_deadline_exceeded",
          "guard_budget_exceeded", "fault_injected"}) {
      uint64_t events = window.CounterDelta(counter);
      CARL_CHECK(events > 0)
          << counter << " did not account for its deliberate stop";
      std::printf("  %-24s: %llu\n", counter,
                  static_cast<unsigned long long>(events));
      bench::EmitJson(kBenchName, "GUARD", counter,
                      static_cast<double>(events));
    }
  }
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
