// carl_obs metrics registry: named counters, gauges, and fixed-bucket
// histograms shared by every layer of the engine.
//
// Design constraints, in order:
//   1. Hot-path cost: an increment is one relaxed atomic RMW on a handle
//      that was resolved ONCE at registration. No string hashing, no map
//      lookup, no lock ever appears on an instrumented path — call sites
//      cache the handle in a function-local static:
//
//        static obs::Counter& passes = obs::Registry::Global().GetCounter(
//            "grounding.ground_model_passes");
//        passes.Increment();
//
//   2. Concurrent correctness: counters and histograms are incremented
//      from ParallelFor workers; every mutation is an atomic op, every
//      read a relaxed load, so Snapshot() can run concurrently with
//      increments and always observes a consistent (if slightly stale)
//      value per metric.
//   3. Stable reporting: Snapshot() drains the registry into plain
//      structs in registration order, and ToBenchJson() renders metrics
//      as the same one-line `BENCH_JSON {...}` records bench_timer.h has
//      always emitted — byte-compatible with check_bench_regression.py
//      and the committed BENCH_table*.json baselines.
//
// Handles returned by GetCounter/GetGauge/GetHistogram live for the
// process lifetime (deque-backed, pointer-stable). Registering the same
// name twice returns the same handle; registering one name as two
// different types is a programming error (CARL_CHECK).
//
// An object that keeps its own stats (a QuerySession, a ServeService)
// counts them in a CounterBlock instead: one relaxed atomic per name,
// read by the object's stats view without a lock. The registry lists
// each block name as a counter whose value is the sum of the live blocks
// that name it plus the final counts of destroyed ones, so an event is
// counted once and both views read it. A name is either a plain counter
// or block-owned, never both: GetCounter on a block-owned name aborts,
// and so does a block on a plain counter's name. Block-owned names are
// read through TakeSnapshot/SnapshotDelta.

#ifndef CARL_OBS_METRICS_H_
#define CARL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace carl {
namespace obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonic event count. Relaxed increments; cross-thread visibility of
/// the *final* value is established by whatever joins the threads (the
/// pool join at the end of a ParallelFor), not by the counter itself.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Test/bench hook; never used on a hot path.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins double value (queue depths, configuration, the result
/// of a measurement). Stored as bit-punned uint64 so C++17 builds stay
/// lock-free without std::atomic<double>::fetch_add.
class Gauge {
 public:
  void Set(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    __builtin_memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// v <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket
/// catches v > bounds.back(). Bounds are fixed at registration so
/// Record() is a branch-light scan plus one relaxed RMW — no allocation,
/// no lock, safe from any thread.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_count(i) for i in [0, bounds().size()]: the last slot is the
  /// overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Exponential bucket ladder: count bounds starting at `start`, each
  /// `factor` times the previous. The default phase-duration ladder used
  /// by the engine's *_s histograms is ExponentialBounds(1e-6, 4, 12)
  /// (1 us .. ~4.2 s).
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);

 private:
  std::vector<double> bounds_;                      // ascending
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-punned double, CAS-accumulated
};

/// One metric drained out of the registry: plain data, safe to hold, sort,
/// or serialize after the fact.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  double value = 0.0;  // counter value (as double) or gauge value
  // Histogram-only fields.
  std::vector<double> bucket_bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  double sum = 0.0;
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  // registration order

  const MetricSnapshot* Find(std::string_view name) const;
  /// Value of a counter/gauge metric, or `fallback` when absent.
  double ValueOr(std::string_view name, double fallback) const;
};

/// Counter movement between two snapshots of the same registry: every
/// counter's change over a measured region. It keeps pointers to both
/// snapshots, so it takes no temporary: hold each in a named variable
/// that outlives the delta.
class SnapshotDelta {
 public:
  SnapshotDelta(const Snapshot& before, const Snapshot& after)
      : before_(&before), after_(&after) {}
  SnapshotDelta(Snapshot&&, const Snapshot&) = delete;
  SnapshotDelta(const Snapshot&, Snapshot&&) = delete;
  SnapshotDelta(Snapshot&&, Snapshot&&) = delete;
  /// after - before of counter `name`; 0 when the counter is absent from
  /// the after-side snapshot (a metric registered mid-window reads as its
  /// own value, since an absent before-side counts as 0).
  uint64_t CounterDelta(std::string_view name) const;

 private:
  const Snapshot* before_;
  const Snapshot* after_;
};

class CounterBlock;

class Registry {
 public:
  /// The process-wide registry every engine layer registers into.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Interned handle resolution: one mutex-guarded map lookup at
  /// registration, pointer-stable for the registry's lifetime. Same name
  /// -> same handle; a name registered under a different type, or owned
  /// by counter blocks, aborts.
  class Counter& GetCounter(std::string_view name);
  class Gauge& GetGauge(std::string_view name);
  /// `bounds` must be non-empty and strictly ascending; a re-registration
  /// under the same name ignores `bounds` and returns the original.
  class Histogram& GetHistogram(std::string_view name,
                                std::vector<double> bounds);

  /// Drains every metric into plain structs, registration order. Safe to
  /// call concurrently with hot-path increments.
  Snapshot TakeSnapshot() const;

  size_t num_metrics() const;

 private:
  friend class CounterBlock;

  struct Entry {
    std::string name;
    MetricType type;
    class Counter* counter = nullptr;
    class Gauge* gauge = nullptr;
    class Histogram* histogram = nullptr;
    // Block-owned: `counter` holds the final counts of destroyed blocks,
    // and a snapshot adds the live blocks' counts to it.
    bool block_owned = false;
  };
  Entry* FindLocked(std::string_view name);
  // The counter entry of `name`, registered when new; aborts when the
  // name has another type or the other kind of owner.
  Entry& CounterEntryLocked(std::string_view name, bool block_owned);

  mutable std::mutex mu_;
  // Deques give pointer stability without per-metric allocations showing
  // up anywhere a unique_ptr would.
  std::deque<class Counter> counters_;
  std::deque<class Gauge> gauges_;
  std::deque<class Histogram> histograms_;
  std::vector<Entry> entries_;  // registration order
  std::vector<const CounterBlock*> blocks_;  // live blocks
};

/// The counters one object owns (see the file comment). Slot i counts
/// the i-th name given to the constructor; the registry holds the
/// block's address while it lives, so it neither copies nor moves.
class CounterBlock {
 public:
  /// Attaches to `registry`, registering each name as block-owned.
  explicit CounterBlock(std::initializer_list<std::string_view> names,
                        Registry& registry = Registry::Global());
  /// Folds the counts into the names' totals and detaches.
  ~CounterBlock();
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  void Increment(size_t slot) {
    counts_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t value(size_t slot) const {
    return counts_[slot].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;

  Registry* registry_;
  std::vector<std::atomic<uint64_t>> counts_;  // zeroed
  std::vector<size_t> entries_;  // per slot: its name's registry entry
};

/// Renders one BENCH_JSON line, byte-identical to the historical
/// bench_timer.h printf format (%g values, label omitted when empty).
/// The trailing newline is NOT included.
std::string BenchJsonLine(const std::string& bench, const std::string& label,
                          const std::string& metric, double value);

/// Renders every counter and gauge of `snapshot` whose name passes
/// `prefix` (empty = all) as BENCH_JSON lines under `bench`/`label`, one
/// per line, newline-terminated. Histograms emit their count and sum as
/// `<name>_count` / `<name>_sum`. This is how benches report registry
/// contents instead of hand-rolled fields.
std::string ToBenchJson(const Snapshot& snapshot, const std::string& bench,
                        const std::string& label,
                        const std::string& prefix = "");

}  // namespace obs
}  // namespace carl

#endif  // CARL_OBS_METRICS_H_
