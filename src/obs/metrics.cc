#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace carl {
namespace obs {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  CARL_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  CARL_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
             std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                 bounds_.end())
      << "histogram bounds must be strictly ascending";
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double v) {
  size_t bucket = bounds_.size();  // overflow unless a bound catches it
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS-accumulate the sum: contention here is bounded by Record()
  // frequency, which for the engine's histograms is per-phase, not
  // per-tuple.
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      observed, DoubleBits(BitsDouble(observed) + v),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  CARL_CHECK(start > 0 && factor > 1 && count > 0)
      << "exponential bounds need start > 0, factor > 1, count > 0";
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Entry* Registry::FindLocked(std::string_view name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Registry::Entry& Registry::CounterEntryLocked(std::string_view name,
                                              bool block_owned) {
  if (Entry* e = FindLocked(name)) {
    CARL_CHECK(e->type == MetricType::kCounter)
        << "metric '" << e->name << "' already registered as a non-counter";
    CARL_CHECK(e->block_owned == block_owned)
        << "metric '" << e->name
        << (e->block_owned
                ? "' is owned by counter blocks; read it through TakeSnapshot"
                : "' is already registered as a plain counter");
    return *e;
  }
  counters_.emplace_back();
  Entry entry;
  entry.name = std::string(name);
  entry.type = MetricType::kCounter;
  entry.counter = &counters_.back();
  entry.block_owned = block_owned;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *CounterEntryLocked(name, /*block_owned=*/false).counter;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindLocked(name)) {
    CARL_CHECK(e->type == MetricType::kGauge)
        << "metric '" << e->name << "' already registered as a non-gauge";
    return *e->gauge;
  }
  gauges_.emplace_back();
  Entry entry;
  entry.name = std::string(name);
  entry.type = MetricType::kGauge;
  entry.gauge = &gauges_.back();
  entries_.push_back(std::move(entry));
  return gauges_.back();
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindLocked(name)) {
    CARL_CHECK(e->type == MetricType::kHistogram)
        << "metric '" << e->name << "' already registered as a non-histogram";
    return *e->histogram;
  }
  histograms_.emplace_back(std::move(bounds));
  Entry entry;
  entry.name = std::string(name);
  entry.type = MetricType::kHistogram;
  entry.histogram = &histograms_.back();
  entries_.push_back(std::move(entry));
  return histograms_.back();
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Per entry, the counts of the live blocks that name it.
  std::vector<uint64_t> live(entries_.size());
  for (const CounterBlock* block : blocks_) {
    for (size_t slot = 0; slot < block->entries_.size(); ++slot) {
      live[block->entries_[slot]] += block->value(slot);
    }
  }
  Snapshot snapshot;
  snapshot.metrics.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    MetricSnapshot m;
    m.name = e.name;
    m.type = e.type;
    switch (e.type) {
      case MetricType::kCounter:
        m.value = static_cast<double>(e.counter->value() + live[i]);
        break;
      case MetricType::kGauge:
        m.value = e.gauge->value();
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *e.histogram;
        m.bucket_bounds = h.bounds();
        m.bucket_counts.reserve(h.bounds().size() + 1);
        for (size_t b = 0; b <= h.bounds().size(); ++b) {
          m.bucket_counts.push_back(h.bucket_count(b));
        }
        m.count = h.count();
        m.sum = h.sum();
        m.value = m.sum;
        break;
      }
    }
    snapshot.metrics.push_back(std::move(m));
  }
  return snapshot;
}

CounterBlock::CounterBlock(std::initializer_list<std::string_view> names,
                           Registry& registry)
    : registry_(&registry), counts_(names.size()) {
  std::lock_guard<std::mutex> lock(registry.mu_);
  for (std::string_view name : names) {
    const Registry::Entry& e =
        registry.CounterEntryLocked(name, /*block_owned=*/true);
    entries_.push_back(static_cast<size_t>(&e - registry.entries_.data()));
  }
  registry.blocks_.push_back(this);
}

CounterBlock::~CounterBlock() {
  std::lock_guard<std::mutex> lock(registry_->mu_);
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    registry_->entries_[entries_[slot]].counter->Add(value(slot));
  }
  std::vector<const CounterBlock*>& blocks = registry_->blocks_;
  blocks.erase(std::find(blocks.begin(), blocks.end(), this));
}

size_t Registry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

const MetricSnapshot* Snapshot::Find(std::string_view name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Snapshot::ValueOr(std::string_view name, double fallback) const {
  const MetricSnapshot* m = Find(name);
  return m != nullptr ? m->value : fallback;
}

uint64_t SnapshotDelta::CounterDelta(std::string_view name) const {
  const MetricSnapshot* after = after_->Find(name);
  if (after == nullptr || after->type != MetricType::kCounter) return 0;
  const MetricSnapshot* before = before_->Find(name);
  double base = (before != nullptr && before->type == MetricType::kCounter)
                    ? before->value
                    : 0.0;
  double delta = after->value - base;
  return delta > 0 ? static_cast<uint64_t>(delta) : 0;
}

std::string BenchJsonLine(const std::string& bench, const std::string& label,
                          const std::string& metric, double value) {
  char buf[512];
  if (label.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "BENCH_JSON {\"bench\":\"%s\",\"metric\":\"%s\","
                  "\"value\":%g}",
                  bench.c_str(), metric.c_str(), value);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "BENCH_JSON {\"bench\":\"%s\",\"label\":\"%s\","
                  "\"metric\":\"%s\",\"value\":%g}",
                  bench.c_str(), label.c_str(), metric.c_str(), value);
  }
  return std::string(buf);
}

std::string ToBenchJson(const Snapshot& snapshot, const std::string& bench,
                        const std::string& label, const std::string& prefix) {
  std::string out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!prefix.empty() && m.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    switch (m.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += BenchJsonLine(bench, label, m.name, m.value);
        out += '\n';
        break;
      case MetricType::kHistogram:
        out += BenchJsonLine(bench, label, m.name + "_count",
                             static_cast<double>(m.count));
        out += '\n';
        out += BenchJsonLine(bench, label, m.name + "_sum", m.sum);
        out += '\n';
        break;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace carl
