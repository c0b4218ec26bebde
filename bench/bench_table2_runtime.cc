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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "guard/guard.h"
#include "obs/metrics.h"

// Counting replacement of the global operator new for this binary only:
// the unit-table row below reports exact heap allocations per warm build,
// and the incremental-extend row the heap bytes one extend requests.
// Array and nothrow forms route through this one; aligned forms keep the
// library's allocator and go uncounted.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<uint64_t> g_heap_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// Not inlined: inlined into a caller, GCC pairs the caller's operator new
// with this free and reports a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// Heap bytes one single-admission extend may request, at any instance
// size: an extend that copies or rebuilds a graph-sized structure (the
// adjacency, an edge log, a match index's postings, an O(nodes) scratch
// array) requests megabytes on the full-size instance and trips this.
constexpr double kMaxExtendHeapBytes = 256 * 1024;

// Heap allocations one warm unit-table build may make, at any instance
// size (about 150–200 at quick size and 150–260 at full size).
constexpr uint64_t kMaxUnitTableAllocs = 512;

// Warm unit-table builds unit_table_s is the fastest of, and warm
// criterion checks criterion_s is the fastest of.
constexpr int kUnitTableBuilds = 10;

// Heap allocations one adjustment-criterion check over a whole unit table
// may make, at any size: the request plan, two stamp arrays and the
// amortized growth of a few scratch lists. A per-unit plan, stamp array
// or visited set adds one or more per unit and trips it.
constexpr uint64_t kMaxCriterionAllocs = 64;

struct ExtendMeasurement {
  double best_s = 0.0;
  double median_heap_bytes = 0.0;
};

// Measures ExtendGroundedModel on single-admission deltas. First a
// correctness gate — the same base + delta extended at CARL_THREADS 1
// and 4 must fingerprint identically — then the timed loop: each pass
// admits one patient and extends the maintained grounding by exactly
// that delta (the mutation itself is a dozen O(1) inserts, noise next to
// the extend). Last, after two warm-up extends, the median heap bytes
// requested by the extend call itself over 10 single-admission extends.
ExtendMeasurement MeasureIncrementalExtend(datagen::Dataset& dataset,
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
  // Admits one patient and extends by exactly that delta; returns the
  // heap bytes the extend call requested.
  auto extend_one = [&] {
    AddAdmission(db, admission++);
    InstanceDelta d = db.DeltaSince(gen);
    const uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
    Result<GroundedModel> ext = ExtendGroundedModel(std::move(current), d);
    const uint64_t bytes =
        g_heap_bytes.load(std::memory_order_relaxed) - before;
    CARL_CHECK_OK(ext.status());
    current = std::move(*ext);
    gen = db.generation();
    return bytes;
  };
  ExtendMeasurement measured;
  measured.best_s = bench::TimeBest(iters, [&] { extend_one(); });
  for (int i = 0; i < 2; ++i) extend_one();
  std::vector<uint64_t> bytes(10);
  for (uint64_t& b : bytes) b = extend_one();
  std::sort(bytes.begin(), bytes.end());
  measured.median_heap_bytes = 0.5 * static_cast<double>(bytes[4] + bytes[5]);
  return measured;
}

// Exact work counts of one answer through a QuerySession, read from the
// registry: the unit rows it resolved, the rows its table embedded and
// the rows its regression sums absorbed, and how the session served its
// grounding and its unit rows.
struct AnswerCounts {
  uint64_t rows_resolved = 0;
  uint64_t rows_embedded = 0;
  uint64_t rows_summed = 0;
  uint64_t ground_hits = 0;
  uint64_t ground_misses = 0;
  uint64_t ground_full = 0;
  uint64_t ground_extends = 0;
  uint64_t unit_rows_hits = 0;
  uint64_t unit_rows_resumes = 0;
};

// Answers `query` on `engine`, CHECKs the answer and returns its counts.
AnswerCounts CountAnswer(const CarlEngine& engine, const std::string& query) {
  const obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
  CARL_CHECK_OK(engine.Answer(QueryRequest(query)).status);
  const obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotDelta delta(before, after);
  AnswerCounts counts;
  counts.rows_resolved = delta.CounterDelta("unit_table.rows_resolved");
  counts.rows_embedded = delta.CounterDelta("unit_table.rows_embedded");
  counts.rows_summed = delta.CounterDelta("unit_table.rows_summed");
  counts.ground_hits = delta.CounterDelta("query_session.ground_hits");
  counts.ground_misses = delta.CounterDelta("query_session.ground_misses");
  counts.ground_full = delta.CounterDelta("query_session.ground_full");
  counts.ground_extends = delta.CounterDelta("query_session.ground_extends");
  counts.unit_rows_hits = delta.CounterDelta("query_session.unit_rows_hits");
  counts.unit_rows_resumes =
      delta.CounterDelta("query_session.unit_rows_resumes");
  return counts;
}

struct AnswerPathCounts {
  AnswerCounts repeat;    // the query answered a second time
  AnswerCounts extended;  // ... and once more after one admission
};

// The answer path's work, counted exactly: one engine over one
// QuerySession answers `query`, answers it again, and answers it once
// more after one admission. The repeat must resolve, embed and sum no
// row, and the session must serve its grounding and its unit rows from
// the cache; after the admission (AddAdmission sets SelfPay and Death,
// so the new patient is kept) the session must extend its grounding and
// resume its unit rows, and each row count must be exactly 1 — the memo
// resumes its rows, appends to its table and carries its sums on.
AnswerPathCounts MeasureAnswerPathCounts(datagen::Dataset& dataset,
                                         const RelationalCausalModel& model,
                                         const std::string& query,
                                         size_t admission) {
  Result<std::unique_ptr<CarlEngine>> engine = CarlEngine::Create(
      std::make_shared<QuerySession>(dataset.instance.get()), model);
  CARL_CHECK_OK(engine.status());
  CountAnswer(**engine, query);
  const AnswerCounts repeat = CountAnswer(**engine, query);
  CARL_CHECK(repeat.rows_resolved == 0 && repeat.rows_embedded == 0 &&
             repeat.rows_summed == 0)
      << "a repeat answer resolved " << repeat.rows_resolved
      << ", embedded " << repeat.rows_embedded << " and summed "
      << repeat.rows_summed << " rows; the memo must hand out its table";
  CARL_CHECK(repeat.ground_hits == 1 && repeat.ground_misses == 0 &&
             repeat.unit_rows_hits == 1)
      << "a repeat answer counted " << repeat.ground_hits
      << " grounding hits, " << repeat.ground_misses << " misses and "
      << repeat.unit_rows_hits << " unit-row hits; each cache must serve it";
  AddAdmission(*dataset.instance, admission);
  const AnswerCounts extended = CountAnswer(**engine, query);
  CARL_CHECK(extended.rows_resolved == 1 && extended.rows_embedded == 1 &&
             extended.rows_summed == 1)
      << "the answer after one admission resolved "
      << extended.rows_resolved << ", embedded " << extended.rows_embedded
      << " and summed " << extended.rows_summed
      << " rows; each must be exactly the new patient's row";
  CARL_CHECK(extended.ground_misses == 1 && extended.ground_extends == 1 &&
             extended.ground_full == 0 && extended.unit_rows_resumes == 1)
      << "the answer after one admission counted " << extended.ground_misses
      << " grounding misses, " << extended.ground_extends << " extends, "
      << extended.ground_full << " full grounds and "
      << extended.unit_rows_resumes
      << " unit-row resumes; the session must extend and resume";
  return AnswerPathCounts{repeat, extended};
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

  std::printf("Table 2 - runtimes (best of %d, seconds; UnitTable = the\n"
              "fastest of %d warm builds; GroundAllocs = storage-layer\n"
              "allocation events per pass, see storage_stats.h;\n"
              "TableAllocs = heap allocations per warm unit-table build)\n",
              iters, kUnitTableBuilds);
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
    double merge_s = 0.0;
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
      merge_s = grounded->phase_stats().merge_s;
    }
    CARL_CHECK(ground_eval_allocs == 0)
        << "per-binding Tuple materialization crept back into the "
        << "grounding hot path: " << ground_eval_allocs << " events";
    CARL_CHECK(ground_node_allocs == 0)
        << "per-node Tuple materialization crept back into the causal-"
        << "graph node store: " << ground_node_allocs << " events";

    // The unit table through the memo-free BuildUnitTableForQuery, so
    // every build below is a full Algorithm 1 build: one warm-up, then
    // the fastest of kUnitTableBuilds warm builds (a cold build's page
    // faults swing it by a third at full size).
    Result<CausalQuery> query = ParseQuery(wl.query);
    CARL_CHECK_OK(query.status());
    auto build_table = [&] {
      Result<UnitTable> table = wl.engine->BuildUnitTableForQuery(*query);
      CARL_CHECK_OK(table.status());
    };
    build_table();
    double table_s = bench::TimeBest(kUnitTableBuilds, build_table);
    // One more warm build, counting operator new calls and the nodes the
    // peer search expands (unit_table.nodes_expanded). The allocations
    // are per-call bookkeeping only — the stamp array, the unit arena,
    // the amortized growth of each column group, and one column per
    // embedding dimension — so the bound does not scale with rows: a
    // per-row tuple or per-unit traversal set would add one or more
    // allocations per row and trip it at any size.
    static obs::Counter& nodes_expanded_counter =
        obs::Registry::Global().GetCounter("unit_table.nodes_expanded");
    const uint64_t expanded_before = nodes_expanded_counter.value();
    const uint64_t table_allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    Result<UnitTable> table = wl.engine->BuildUnitTableForQuery(*query);
    const uint64_t table_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - table_allocs_before;
    const uint64_t nodes_expanded =
        nodes_expanded_counter.value() - expanded_before;
    CARL_CHECK_OK(table.status());
    const size_t table_rows = table->data.num_rows();
    CARL_CHECK(table_allocs < kMaxUnitTableAllocs)
        << "per-row heap allocations crept back into the unit-table "
        << "build: " << table_allocs << " allocations for " << table_rows
        << " rows";
    // The lifted peer search enters only attributes the treatment
    // reaches: on MIMIC that is the response, SelfPay and Len, 3 nodes
    // per unit where the whole ancestor cone is 12.
    if (std::string(wl.name) == "MIMIC-III(sim)") {
      CARL_CHECK(nodes_expanded <= 4 * table_rows)
          << "the peer search left the treatment's reach: "
          << nodes_expanded << " nodes expanded for " << table_rows
          << " rows";
    }

    // Theorem 5.2's criterion on every unit of that table, as an answer
    // with check_criterion runs it: it must hold on every workload. Then
    // the fastest of kUnitTableBuilds warm checks, and one more counting
    // operator new calls.
    Result<CarlEngine::ResolvedQuery> resolved =
        wl.engine->Resolve(*query, EngineOptions());
    CARL_CHECK_OK(resolved.status());
    auto check_criterion = [&] {
      Result<bool> ok = CheckAdjustmentCriterion(
          *resolved->grounded, resolved->request, table->units());
      CARL_CHECK_OK(ok.status());
      return *ok;
    };
    CARL_CHECK(check_criterion())
        << "the adjustment criterion fails on some unit of " << wl.name;
    const double criterion_s =
        bench::TimeBest(kUnitTableBuilds, check_criterion);
    const uint64_t criterion_allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    check_criterion();
    const uint64_t criterion_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - criterion_allocs_before;
    CARL_CHECK(criterion_allocs < kMaxCriterionAllocs)
        << "per-unit heap allocations crept into the criterion check: "
        << criterion_allocs << " allocations for " << table_rows << " units";
    std::printf("%-18scriterion on every unit: %.5fs (unit table %.5fs), "
                "%llu heap allocations\n",
                wl.name, criterion_s, table_s,
                static_cast<unsigned long long>(criterion_allocs));

    double answer_s = bench::TimeBest(iters, [&] {
      CARL_CHECK_OK(wl.engine->Answer(QueryRequest(wl.query)).status);
    });

    // Incremental grounding on a single-admission delta (MIMIC only; the
    // other workloads have no admission notion). Runs after the other
    // measurements so the handful of admitted patients cannot perturb
    // them. Gated at >= 10x vs the full re-ground outside --quick (the
    // quick instance grounds in milliseconds, where the ratio is noise),
    // and on its heap bytes at both sizes.
    if (std::string(wl.name) == "MIMIC-III(sim)") {
      ExtendMeasurement extend = MeasureIncrementalExtend(
          *wl.dataset, *model, flags.quick ? 3 : 10);
      const double extend_s = extend.best_s;
      std::printf("%-18sincremental extend (1 admission): %.5fs "
                  "(full ground %.3fs, %.0fx), %.0f heap bytes\n",
                  wl.name, extend_s, ground_s, ground_s / extend_s,
                  extend.median_heap_bytes);
      if (!flags.quick) {
        CARL_CHECK(extend_s * 10.0 <= ground_s)
            << "incremental extend lost its >=10x edge over a full "
            << "re-ground: " << extend_s << "s vs " << ground_s << "s";
      }
      CARL_CHECK(extend.median_heap_bytes <= kMaxExtendHeapBytes)
          << "a single-admission extend requested "
          << extend.median_heap_bytes << " heap bytes (median of 10), "
          << "over the " << kMaxExtendHeapBytes << " byte bound: graph-"
          << "sized work crept back into ExtendGroundedModel";
      bench::EmitJson(kBenchName, wl.name, "grounding_incremental_extend_s",
                      extend_s);
      bench::EmitJson(kBenchName, wl.name,
                      "grounding_incremental_extend_heap_bytes",
                      extend.median_heap_bytes);

      // The extends above admitted fewer than 1,000 patients; this one
      // takes a fresh name.
      const AnswerPathCounts path =
          MeasureAnswerPathCounts(*wl.dataset, *model, wl.query, 1000);
      const AnswerCounts& counts = path.extended;
      std::printf("%-18sanswer after 1 admission: %llu rows resolved, %llu "
                  "embedded, %llu summed; %llu extend, %llu unit-row "
                  "resume (repeat: %llu grounding hit)\n",
                  wl.name,
                  static_cast<unsigned long long>(counts.rows_resolved),
                  static_cast<unsigned long long>(counts.rows_embedded),
                  static_cast<unsigned long long>(counts.rows_summed),
                  static_cast<unsigned long long>(counts.ground_extends),
                  static_cast<unsigned long long>(counts.unit_rows_resumes),
                  static_cast<unsigned long long>(path.repeat.ground_hits));
      bench::EmitJson(kBenchName, wl.name, "unit_table_rows_resolved",
                      static_cast<double>(counts.rows_resolved));
      bench::EmitJson(kBenchName, wl.name, "unit_table_rows_embedded",
                      static_cast<double>(counts.rows_embedded));
      bench::EmitJson(kBenchName, wl.name, "unit_table_rows_summed",
                      static_cast<double>(counts.rows_summed));
      bench::EmitJson(kBenchName, wl.name, "query_session_repeat_ground_hits",
                      static_cast<double>(path.repeat.ground_hits));
      bench::EmitJson(kBenchName, wl.name,
                      "query_session_extend_ground_extends",
                      static_cast<double>(counts.ground_extends));
      bench::EmitJson(kBenchName, wl.name,
                      "query_session_extend_unit_rows_resumes",
                      static_cast<double>(counts.unit_rows_resumes));
    }

    std::printf("%-18s%-14.3f%-14.3f%-14.3f%-16llu%-16llu\n", wl.name,
                ground_s, table_s, answer_s,
                static_cast<unsigned long long>(ground_allocs),
                static_cast<unsigned long long>(table_allocs));
    // Grounding phase breakdown of the warm pass: enumeration (binding
    // evaluation) vs graph build, with the build's merge share broken out.
    std::printf("%-18s  enumerate %.3fs | graph build %.3fs (merge %.3fs)\n",
                wl.name, enumerate_s, graph_build_s, merge_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_s", ground_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_graph_build_s",
                    graph_build_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_enumerate_s",
                    enumerate_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_merge_s", merge_s);
    bench::EmitJson(kBenchName, wl.name, "grounding_allocs",
                    static_cast<double>(ground_allocs));
    bench::EmitJson(kBenchName, wl.name, "grounding_eval_result_allocs",
                    static_cast<double>(ground_eval_allocs));
    bench::EmitJson(kBenchName, wl.name, "grounding_graph_node_allocs",
                    static_cast<double>(ground_node_allocs));
    bench::EmitJson(kBenchName, wl.name, "unit_table_s", table_s);
    bench::EmitJson(kBenchName, wl.name, "unit_table_allocs",
                    static_cast<double>(table_allocs));
    bench::EmitJson(kBenchName, wl.name, "unit_table_nodes_expanded",
                    static_cast<double>(nodes_expanded));
    bench::EmitJson(kBenchName, wl.name, "criterion_s", criterion_s);
    bench::EmitJson(kBenchName, wl.name, "criterion_allocs",
                    static_cast<double>(criterion_allocs));
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
