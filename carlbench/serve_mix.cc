// serve_mix: open-loop query traffic against a warm carl_serve over
// loopback TCP, one process.
//
// Three mid-size datasets are served: MIMIC (5k patients), NIS (10k
// admissions) and realistic REVIEW. Every shard is grounded during
// set-up, so the measured window runs the unit table, the estimators,
// queueing and the serving layer, and almost no grounding. The mix is
// repeat-skewed: 60% of requests ask the hot MIMIC question; the rest
// are NIS and two REVIEW questions on the derived §4.3 rule AVG_Score
// (a share of them with bootstrap replicates), one of them the
// WHEN MORE THAN 1/3 PEERS TREATED form. The REVIEW pair that trips the
// history-dependent-answer bug (Score[S] <= Prestige[A]? followed by
// Score[S] <= Blind[C]?) is left out: its failures depend on arrival
// order, and a count that moves with arrival order is no measurement.
//
// One pipelined connection carries the requests. The window repeats one
// cycle, generated once from the seed, until --seconds have passed:
//   1. saturation: kSaturationBlocks blocks of kSaturationRequests
//      requests, each sent as a closed loop keeping kSaturationDepth in
//      flight — throughput_ops;
//   2. fixed rate: kOpenRequests requests at the scheduled times of a
//      (stratified) Poisson process of kFixedRate requests/s — latency_p50_ms,
//      latency_tail_ms, and the per-layer split. Latency runs from each
//      request's scheduled send time, so a stall also delays the
//      requests behind it.
// Every cycle sends the same requests at the same offsets, so a request
// of the schedule has one latency per cycle; its latency is the fastest
// of those (FastestTime), and the saturation rate the highest of the
// blocks' (FastestRate).
// Traced runs then probe a ladder of rates kLadderBase * kLadderStep^k
// around the saturation throughput for the highest whose tail meets
// kTailLimitMs with no growing backlog — max_qps_at_slo, a per-layer
// metric: the knee moves with the host's speed more than any bound the
// benchmark may set.
// Every answer is compared bit for bit with a fresh direct engine's
// answer to the same request, computed before the window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "serving.h"

namespace carlbench {
namespace {

constexpr size_t kMimicPatients = 5000;
constexpr size_t kNisAdmissions = 10000;
// One worker over a one-thread engine pool (run.py sets CARL_THREADS=1)
// and one connection: the serving path then needs one core, so its
// capacity does not move with how many cores the host lends the machine
// at the moment.
constexpr int kWorkers = 1;
constexpr int kConnections = 1;
constexpr int kSetups = 9;
constexpr int kSaturationDepth = 16;
constexpr size_t kSaturationRequests = 20;  // one deck
constexpr int kSaturationBlocks = 2;         // per cycle
constexpr double kFixedRate = 25.0;  // requests/s, about a third of capacity
constexpr size_t kOpenRequests = 60;  // the tail over them is p83
// The latency limit of the ladder, on the highest percentile a probe's
// sample supports (ten samples beyond it; p96 to p97 for a probe). A p99
// over a few hundred samples rests on two or three of them.
constexpr double kTailLimitMs = 250.0;  // about 20 mean service times
constexpr double kLadderBase = 10.0;  // requests/s
constexpr double kLadderStep = 1.05;  // 5% rungs
constexpr int kProbes = 4;
constexpr double kProbeSeconds = 4.0;
// The generator is behind, and the run invalid, when its sends run this
// late at p99.
constexpr double kLagLimitMs = 25.0;
// Traced runs trace alternating blocks of this many requests.
constexpr uint64_t kTraceBlock = 8;

struct Kind {
  const char* instance;
  const char* query;
  uint32_t bootstrap_replicates;
  int per_deck;  // requests of this kind in every kDeck consecutive ones
};

constexpr int kDeck = 20;
const Kind kKinds[] = {
    {"mimic", "Len[P] <= SelfPay[P]?", 0, 12},
    {"nis", "HighBill[P] <= AdmittedToLarge[P]?", 0, 3},
    {"review", "AVG_Score[A] <= Prestige[A]?", 0, 2},
    {"review", "AVG_Score[A] <= Prestige[A]?", 10, 1},
    {"review",
     "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED", 0, 2},
};

// What a segment sends: request kinds in order and, for an open loop,
// their arrival offsets.
struct Schedule {
  std::vector<size_t> kinds;
  std::vector<uint64_t> offsets_ns;
};

// `n` kinds in seeded shuffles of a fixed deck, so every schedule sends
// the same mix and only the order varies with the seed.
std::vector<size_t> DeckKinds(size_t n, carl::Rng* rng) {
  std::vector<size_t> deck;
  for (size_t k = 0; k < sizeof(kKinds) / sizeof(kKinds[0]); ++k) {
    deck.insert(deck.end(), static_cast<size_t>(kKinds[k].per_deck), k);
  }
  std::vector<size_t> kinds(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % deck.size() == 0) rng->Shuffle(&deck);
    kinds[i] = deck[i % deck.size()];
  }
  return kinds;
}

// `n` arrivals at `rate`: the gaps are the n strata midpoints of the
// exponential distribution, in seeded order. Every seed's schedule so has
// the same gaps, and only where its bursts fall varies; independent
// exponential draws made some seeds' tails a third longer than others'.
Schedule Arrivals(double rate, size_t n, carl::Rng* rng) {
  std::vector<double> gaps(n);
  for (size_t j = 0; j < n; ++j) {
    gaps[j] = -std::log(1.0 - (static_cast<double>(j) + 0.5) /
                                  static_cast<double>(n)) / rate;
  }
  rng->Shuffle(&gaps);
  Schedule schedule;
  double t = 0.0;
  for (double gap : gaps) {
    t += gap;
    schedule.offsets_ns.push_back(static_cast<uint64_t>(t * 1e9));
  }
  schedule.kinds = DeckKinds(n, rng);
  return schedule;
}

// One request of a segment. The loadgen thread writes the send fields,
// the reader thread that receives the response writes the rest.
struct Slot {
  size_t kind = 0;
  uint64_t sched_ns = 0;
  uint64_t send_ns = 0;
  uint64_t encode_ns = 0;
  uint64_t outstanding = 0;  // requests in flight when this one was sent
  uint64_t read_ns = 0;
  uint64_t decode_ns = 0;
  bool ok = false;  // OK status and bit-identical to the reference
  double queue_ms = 0.0;
  carl::QueryTiming timing;
};

// A contiguous range of request ids with their pregenerated kinds and
// arrival offsets. `completed` counts responses, guarded by mu.
struct Segment {
  uint64_t base = 0;
  std::vector<Slot> slots;
  std::vector<uint64_t> offsets_ns;  // open loop: arrival offsets
  size_t sent = 0;                   // loadgen thread only
  uint64_t start_ns = 0;
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
};

class LoadGen {
 public:
  LoadGen(const std::vector<carl::serve::ServeRequest>* requests,
          const std::vector<carl::serve::ServeResponse>* references)
      : requests_(requests), references_(references) {}

  carl::Status Connect(uint16_t port, int connections) {
    return client_.Connect(
        port, connections,
        [this](const carl::serve::ServeResponse& response, uint64_t read_ns,
               uint64_t decode_ns) { OnResponse(response, read_ns, decode_ns); });
  }

  // Sends `schedule` at its offsets from now.
  Segment* RunOpen(const Schedule& schedule) {
    Segment* seg = NewSegment(schedule);
    seg->offsets_ns = schedule.offsets_ns;
    seg->start_ns = NowNs() + 1000000;
    for (size_t i = 0; i < seg->slots.size(); ++i) {
      uint64_t sched = seg->start_ns + seg->offsets_ns[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(sched)));
      Send(seg, i, sched);
    }
    return seg;
  }

  // Sends `schedule` as a closed loop keeping `depth` requests in flight.
  Segment* RunClosed(const Schedule& schedule, int depth) {
    Segment* seg = NewSegment(schedule);
    seg->start_ns = NowNs();
    for (size_t i = 0; i < seg->slots.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(seg->mu);
        seg->cv.wait(lock, [&] { return i - seg->completed < size_t(depth); });
      }
      Send(seg, i, NowNs());
    }
    return seg;
  }

  // Waits until every sent request of `seg` has its response; false on
  // timeout (the missing ones count as failed).
  bool Drain(Segment* seg, double timeout_s) {
    std::unique_lock<std::mutex> lock(seg->mu);
    return seg->cv.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [&] { return seg->completed == seg->sent; });
  }

  void Close() { client_.Close(); }

 private:
  // A segment of `schedule`'s kinds, published to the readers.
  Segment* NewSegment(const Schedule& schedule) {
    segments_.push_back(std::make_unique<Segment>());
    Segment* seg = segments_.back().get();
    seg->base = next_id_;
    seg->slots.resize(schedule.kinds.size());
    for (size_t i = 0; i < seg->slots.size(); ++i) {
      seg->slots[i].kind = schedule.kinds[i];
    }
    next_id_ += seg->slots.size();
    current_.store(seg, std::memory_order_release);
    return seg;
  }

  void Send(Segment* seg, size_t i, uint64_t sched_ns) {
    Slot& slot = seg->slots[i];
    slot.sched_ns = sched_ns;
    {
      std::lock_guard<std::mutex> lock(seg->mu);
      slot.outstanding = i - seg->completed;
    }
    carl::serve::ServeRequest request = (*requests_)[slot.kind];
    request.request_id = seg->base + i;
    slot.send_ns = NowNs();
    carl::Status status = client_.Send(
        static_cast<int>(i % static_cast<size_t>(client_.connections())),
        request, &slot.encode_ns);
    CARL_CHECK_OK(status);
    seg->sent = i + 1;
  }

  void OnResponse(const carl::serve::ServeResponse& response, uint64_t read_ns,
                  uint64_t decode_ns) {
    Segment* seg = current_.load(std::memory_order_acquire);
    if (seg == nullptr || response.request_id < seg->base ||
        response.request_id - seg->base >= seg->slots.size()) {
      return;  // a straggler of an earlier, timed-out segment
    }
    Slot& slot = seg->slots[response.request_id - seg->base];
    slot.read_ns = read_ns;
    slot.decode_ns = decode_ns;
    slot.queue_ms = response.queue_ms;
    slot.timing = response.timing;
    std::string mismatch =
        AnswerMismatch(response, (*references_)[slot.kind]);
    slot.ok = response.ok() && mismatch.empty();
    if (!slot.ok) {
      std::fprintf(stderr, "serve_mix request %llu (%s): %s\n",
                   static_cast<unsigned long long>(response.request_id),
                   kKinds[slot.kind].query,
                   response.ok() ? mismatch.c_str() : response.message.c_str());
    }
    std::lock_guard<std::mutex> lock(seg->mu);
    ++seg->completed;
    seg->cv.notify_all();
  }

  const std::vector<carl::serve::ServeRequest>* requests_;
  const std::vector<carl::serve::ServeResponse>* references_;
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::atomic<Segment*> current_{nullptr};
  WireClient client_;  // last: its readers use the members above
};

double LatencyMs(const Slot& slot) {
  return NsToMs(slot.read_ns + slot.decode_ns - slot.sched_ns);
}

// What an open-loop segment measured.
struct OpenStats {
  double rate = 0.0;
  size_t sent = 0, failed = 0;
  double p50_ms = 0.0;
  Tail tail;
  double backlog_end = 0.0;
  bool meets_slo = false;
};

OpenStats Summarize(const Segment& seg, double rate, int connections) {
  OpenStats stats;
  stats.rate = rate;
  stats.sent = seg.sent;
  std::vector<double> latencies;
  for (size_t i = 0; i < seg.sent; ++i) {
    const Slot& slot = seg.slots[i];
    if (slot.read_ns == 0 || !slot.ok) {
      ++stats.failed;
      // A failed request misses any latency limit.
      latencies.push_back(std::numeric_limits<double>::infinity());
    } else {
      latencies.push_back(LatencyMs(slot));
    }
  }
  stats.p50_ms = Quantile(latencies, 0.5);
  stats.tail = TailOf(latencies);
  if (seg.sent > 0) {
    stats.backlog_end = static_cast<double>(seg.slots[seg.sent - 1].outstanding);
  }
  // A backlog beyond what the latency limit allows at this rate grows.
  double allowed = rate * kTailLimitMs / 1e3 + connections;
  stats.meets_slo = stats.failed == 0 && stats.tail.value <= kTailLimitMs &&
                    stats.backlog_end <= allowed;
  return stats;
}

double Rung(int k) { return kLadderBase * std::pow(kLadderStep, k); }

}  // namespace

RunResult RunServeMix(const Flags& flags, const Machine& machine) {
  // --- Set-up: generate, serve, warm every shard (ground) — repeated,
  // median reported.
  std::vector<double> setup_s;
  std::unique_ptr<ServedDatasets> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    uint64_t start = NowNs();
    ServedDatasets::Named named;
    named.emplace_back("mimic", MakeMimic(kMimicPatients, flags.seed));
    named.emplace_back("nis", MakeNis(kNisAdmissions, flags.seed));
    named.emplace_back("review", MakeReview(flags.seed));
    served = std::make_unique<ServedDatasets>(std::move(named), kWorkers);
    SyncClient warm;
    CARL_CHECK_OK(warm.Connect(served->port()));
    std::vector<Exchange> exchanges;
    for (const char* instance : {"mimic", "nis", "review"}) {
      for (const Kind& kind : kKinds) {
        if (std::string(kind.instance) != instance) continue;
        Exchange exchange;
        exchange.request.request_id = exchanges.size() + 1;
        exchange.request.instance = instance;
        exchange.request.program = served->dataset(instance).model_text;
        exchange.request.query = kind.query;
        exchanges.push_back(exchange);
        break;
      }
    }
    CARL_CHECK_OK(warm.Call(&exchanges));
    for (const Exchange& exchange : exchanges) {
      CARL_CHECK(exchange.response.ok()) << exchange.response.message;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // --- References, outside the window: one fresh direct engine per kind.
  std::vector<carl::serve::ServeRequest> requests;
  std::vector<carl::serve::ServeResponse> references;
  std::vector<DirectAnswer> directs;
  for (const Kind& kind : kKinds) {
    const carl::datagen::Dataset& data = served->dataset(kind.instance);
    carl::serve::ServeRequest request;
    request.instance = kind.instance;
    request.program = data.model_text;
    request.query = kind.query;
    request.bootstrap_replicates = kind.bootstrap_replicates;
    requests.push_back(request);
    directs.push_back(AnswerDirect(*data.schema, data.instance.get(),
                                   data.model_text, kind.query,
                                   kind.bootstrap_replicates, request.seed));
    CARL_CHECK(directs.back().answer.ok())
        << kind.query << ": " << directs.back().answer.message;
    references.push_back(directs.back().answer);
  }

  LoadGen loadgen(&requests, &references);
  CARL_CHECK_OK(loadgen.Connect(served->port(), kConnections));
  carl::Rng rng(flags.seed * 7919 + 5);
  Schedule saturation;
  saturation.kinds = DeckKinds(kSaturationRequests, &rng);
  Schedule open = Arrivals(kFixedRate, kOpenRequests, &rng);
  bool drained = true;
  std::vector<Segment*> all_segments;
  auto run = [&](Segment* seg) {
    drained = loadgen.Drain(seg, 60.0) && drained;
    all_segments.push_back(seg);
    return seg;
  };
  // Warm-up, untimed: one saturation block.
  run(loadgen.RunClosed(saturation, kSaturationDepth));

  // The window: cycles of a saturation block then the open schedule, at
  // least two, until --seconds have passed.
  carl::serve::ServeStats stats_before = served->service().Snapshot();
  std::vector<double> saturation_rates;
  std::vector<Segment*> fixed_segments;
  RegistryWindow registry;
  HeapCounts heap;
  uint64_t deadline = NowNs() + static_cast<uint64_t>(flags.seconds * 1e9);
  while (fixed_segments.size() < 2 || NowNs() < deadline) {
    for (int b = 0; b < kSaturationBlocks; ++b) {
      Segment* sat = run(loadgen.RunClosed(saturation, kSaturationDepth));
      uint64_t last_ns = sat->start_ns;
      for (const Slot& slot : sat->slots) {
        last_ns = std::max(last_ns, slot.read_ns);
      }
      saturation_rates.push_back(
          static_cast<double>(sat->slots.size()) /
          (static_cast<double>(last_ns - sat->start_ns) / 1e9));
    }

    registry.Begin();
    HeapCounts before = HeapNow();
    fixed_segments.push_back(run(loadgen.RunOpen(open)));
    HeapCounts after = HeapNow();
    registry.End();
    heap.allocs += after.allocs - before.allocs;
    heap.bytes += after.bytes - before.bytes;
  }
  carl::serve::ServeStats stats_after = served->service().Snapshot();

  // Ladder (traced runs): bisect the rungs between half the saturation
  // throughput (taken to meet the limit) and 1.15 times it (taken to
  // miss).
  double fastest_rate = FastestRate(saturation_rates);
  std::vector<OpenStats> ladder;
  auto probe = [&](int k) {
    Segment* seg = run(loadgen.RunOpen(Arrivals(
        Rung(k), static_cast<size_t>(Rung(k) * kProbeSeconds), &rng)));
    ladder.push_back(Summarize(*seg, Rung(k), kConnections));
    return ladder.back().meets_slo;
  };
  auto rung_below = [](double rate) {
    return static_cast<int>(
        std::floor(std::log(std::max(rate, kLadderBase) / kLadderBase) /
                   std::log(kLadderStep)));
  };
  int lo = rung_below(0.5 * fastest_rate);
  int hi = rung_below(1.15 * fastest_rate) + 1;
  bool lo_met = false;
  for (int p = 0; flags.trace && p < kProbes; ++p) {
    if (hi - lo <= 1) break;
    int mid = (lo + hi) / 2;
    if (probe(mid)) {
      lo = mid;
      lo_met = true;
    } else {
      hi = mid;
    }
  }
  // No probe met the limit: walk down, at most kProbes more probes.
  for (int extra = 0; flags.trace && !lo_met && lo >= 0 && extra < kProbes;
       ++extra) {
    lo_met = probe(lo);
    if (!lo_met) --lo;
  }
  loadgen.Close();
  double max_qps = lo_met ? Rung(lo) : 0.0;

  // --- Validity of the generator, totals, and the report.
  std::vector<double> lags;
  double backlog_max = 0.0;
  uint64_t attempted = 0, failed = 0;
  for (const Segment* seg : all_segments) {
    attempted += seg->sent;
    bool open_loop = !seg->offsets_ns.empty();
    for (size_t i = 0; i < seg->sent; ++i) {
      const Slot& slot = seg->slots[i];
      if (!slot.ok) ++failed;
      if (!open_loop) continue;
      lags.push_back(NsToMs(slot.send_ns - slot.sched_ns));
      backlog_max =
          std::max(backlog_max, static_cast<double>(slot.outstanding));
    }
  }
  double lag_p99 = Quantile(lags, 0.99);
  // A request of the schedule: its latency in every cycle, and the
  // fastest of them.
  std::vector<double> fastest;
  std::vector<double> cycle_p50;
  std::vector<const Slot*> fixed_slots;
  for (size_t i = 0; i < open.kinds.size(); ++i) {
    std::vector<double> cycles;
    for (const Segment* seg : fixed_segments) {
      const Slot& slot = seg->slots[i];
      cycles.push_back(slot.read_ns == 0 || !slot.ok
                           ? std::numeric_limits<double>::infinity()
                           : LatencyMs(slot));
    }
    fastest.push_back(FastestTime(cycles));
  }
  for (const Segment* seg : fixed_segments) {
    cycle_p50.push_back(Summarize(*seg, kFixedRate, kConnections).p50_ms);
    for (size_t i = 0; i < seg->sent; ++i) fixed_slots.push_back(&seg->slots[i]);
  }
  Tail tail = TailOf(fastest);
  std::printf("serve_mix: %zu cycles; saturation per block",
              fixed_segments.size());
  for (double rate : saturation_rates) std::printf(" %.1f", rate);
  std::printf(" req/s; at %.0f req/s p50 per cycle", kFixedRate);
  for (double ms : cycle_p50) std::printf(" %.2f", ms);
  std::printf(" ms; fastest p50 %.2f ms, p%.1f %.2f ms, saturation %.1f "
              "req/s; peak RSS %.1f MiB\n",
              Median(fastest), tail.percentile, tail.value, fastest_rate,
              PeakRssMb());
  for (size_t k = 0; k < sizeof(kKinds) / sizeof(kKinds[0]); ++k) {
    std::vector<double> engine_ms;
    for (const Slot* slot : fixed_slots) {
      if (slot->kind == k) engine_ms.push_back(slot->timing.total_s * 1e3);
    }
    std::printf("  engine p50 %6.2f ms: %s %s (bootstrap %u)\n",
                Median(engine_ms), kKinds[k].instance, kKinds[k].query,
                kKinds[k].bootstrap_replicates);
  }
  for (const OpenStats& step : ladder) {
    std::printf("  ladder %.1f req/s: p%.1f %.2f ms, backlog at end %.0f, "
                "%zu failed of %zu -> %s\n",
                step.rate, step.tail.percentile, step.tail.value,
                step.backlog_end, step.failed,
                step.sent, step.meets_slo ? "meets" : "misses");
  }
  std::printf("serve_mix: max_qps_at_slo %.1f req/s (tail <= %.0f ms); "
              "loadgen lag p99 %.3f ms, backlog max %.0f\n",
              max_qps, kTailLimitMs, lag_p99, backlog_max);
  if (!drained) std::fprintf(stderr, "serve_mix: responses missing\n");
  if (lag_p99 > kLagLimitMs) {
    std::fprintf(stderr,
                 "serve_mix: INVALID run: the load generator fell behind "
                 "(send lag p99 %.1f ms > %.0f ms)\n",
                 lag_p99, kLagLimitMs);
    std::exit(6);
  }

  RunResult result;
  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0;
  if (!flags.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.latency_p50_ms = Median(fastest);
    e2e.latency_tail_ms = tail.value;
    e2e.throughput_ops = fastest_rate;
    AddEndToEnd(e2e, &result);
    return result;
  }

  // --- Per-layer split over the fixed-rate segments. The spans are rebuilt
  // after the window from the timestamps and response fields every run
  // records, for alternating blocks of requests.
  Tracer tracer(true);
  Layers layers;
  layers.latency_tail_percentile = tail.percentile;
  layers.max_qps_at_slo = max_qps;
  layers.failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<double> queue, transport, unit_table;
  double codec_ns = 0.0, parse = 0.0, resolve = 0.0, estimate = 0.0;
  double nodes = 0.0, edges = 0.0;
  double traced_ms = 0.0, untraced_ms = 0.0;
  size_t traced_n = 0, untraced_n = 0;
  size_t n = fixed_slots.size();
  for (size_t i = 0; i < n; ++i) {
    const Slot& slot = *fixed_slots[i];
    double server_ms = slot.queue_ms + slot.timing.total_s * 1e3;
    queue.push_back(slot.queue_ms);
    transport.push_back(
        NsToMs(slot.read_ns - slot.send_ns - slot.encode_ns) - server_ms);
    unit_table.push_back(slot.timing.unit_table_s * 1e3);
    codec_ns += static_cast<double>(slot.encode_ns + slot.decode_ns);
    parse += slot.timing.parse_s * 1e3;
    resolve += slot.timing.resolve_s * 1e3;
    estimate += slot.timing.estimate_s * 1e3;
    nodes += static_cast<double>(directs[slot.kind].nodes);
    edges += static_cast<double>(directs[slot.kind].edges);
    bool traced = (i / kTraceBlock) % 2 == 1;
    (traced ? traced_ms : untraced_ms) += LatencyMs(slot);
    ++(traced ? traced_n : untraced_n);
    if (traced) {
      int root = tracer.Add("client.request", i, slot.sched_ns,
                            slot.read_ns + slot.decode_ns);
      tracer.Add("serve.encode", i, slot.send_ns,
                 slot.send_ns + slot.encode_ns, root);
      tracer.AddServed(root, i, slot.send_ns + slot.encode_ns, slot.read_ns,
                       slot.queue_ms, slot.timing);
      tracer.Add("serve.decode", i, slot.read_ns,
                 slot.read_ns + slot.decode_ns, root);
    }
  }
  double count = static_cast<double>(std::max<size_t>(n, 1));
  layers.queue_p50_ms = Quantile(queue, 0.5);
  layers.queue_p99_ms = Quantile(queue, 0.99);
  layers.transport_p50_ms = Quantile(transport, 0.5);
  layers.transport_p99_ms = Quantile(transport, 0.99);
  layers.codec_us = codec_ns / count / 1e3;
  uint64_t admitted = stats_after.admitted - stats_before.admitted;
  layers.coalesced_ratio =
      admitted > 0 ? static_cast<double>(stats_after.coalesced -
                                         stats_before.coalesced) /
                         static_cast<double>(admitted)
                   : 0.0;
  layers.rejected =
      static_cast<double>(stats_after.rejected - stats_before.rejected);
  layers.deadline_preempted = static_cast<double>(
      stats_after.deadline_preempted - stats_before.deadline_preempted);
  layers.parse_ms = parse / count;
  layers.resolve_ms = resolve / count;
  layers.unit_table_p50_ms = Quantile(unit_table, 0.5);
  layers.unit_table_p99_ms = Quantile(unit_table, 0.99);
  layers.estimate_ms = estimate / count;
  // Shards are warm: nothing grounds inside the window.
  layers.nodes = nodes / count;
  layers.edges = edges / count;
  layers.lag_p99_ms = lag_p99;
  layers.backlog_max = backlog_max;
  if (traced_n > 0 && untraced_n > 0) {
    layers.overhead_ratio = (traced_ms / static_cast<double>(traced_n)) /
                            (untraced_ms / static_cast<double>(untraced_n));
  }
  AddLayers(layers, registry, n, heap, n, tracer, machine, &result);
  WriteTrace(flags, tracer);
  return result;
}

}  // namespace carlbench
