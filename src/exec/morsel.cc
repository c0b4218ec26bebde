#include "exec/morsel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carl {
namespace exec {
namespace {

obs::Counter& StealCounter() {
  static obs::Counter& steals =
      obs::Registry::Global().GetCounter("exec.morsel_steals");
  return steals;
}

// One participant's morsel-index range, packed begin << 32 | end so both
// halves move under a single CAS. Empty when begin >= end.
constexpr uint64_t Pack(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
constexpr uint32_t RangeBegin(uint64_t r) {
  return static_cast<uint32_t>(r >> 32);
}
constexpr uint32_t RangeEnd(uint64_t r) {
  return static_cast<uint32_t>(r & 0xFFFFFFFFu);
}

// Shared between the calling thread and pool helpers. Heap-allocated and
// reference-counted so a helper scheduled after the run already finished
// can still safely observe empty ranges and exit.
struct MorselRun {
  std::vector<std::pair<size_t, size_t>> morsels;
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  // The caller's guard token, installed in every participating thread for
  // the duration of the run so bodies see the same ambient token on pool
  // helpers as on the calling thread.
  guard::ExecToken* token = nullptr;
  std::unique_ptr<std::atomic<uint64_t>[]> ranges;
  size_t participants = 0;
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = 0;

  // Owner side: pops the front morsel of `p`'s own range.
  bool PopFront(size_t p, uint32_t* m) {
    std::atomic<uint64_t>& range = ranges[p];
    uint64_t cur = range.load(std::memory_order_relaxed);
    while (RangeBegin(cur) < RangeEnd(cur)) {
      uint64_t next = Pack(RangeBegin(cur) + 1, RangeEnd(cur));
      if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        *m = RangeBegin(cur);
        return true;
      }
    }
    return false;
  }

  // Thief side: pops the BACK morsel of the victim with the most work
  // left. Rescans until a steal lands or every range is empty.
  bool StealBack(size_t thief, uint32_t* m) {
    for (;;) {
      size_t victim = participants;  // sentinel: none found
      uint32_t victim_left = 0;
      for (size_t v = 0; v < participants; ++v) {
        if (v == thief) continue;
        uint64_t cur = ranges[v].load(std::memory_order_relaxed);
        uint32_t left = RangeEnd(cur) > RangeBegin(cur)
                            ? RangeEnd(cur) - RangeBegin(cur)
                            : 0;
        if (left > victim_left) {
          victim_left = left;
          victim = v;
        }
      }
      if (victim == participants) return false;
      std::atomic<uint64_t>& range = ranges[victim];
      uint64_t cur = range.load(std::memory_order_relaxed);
      while (RangeBegin(cur) < RangeEnd(cur)) {
        uint64_t next = Pack(RangeBegin(cur), RangeEnd(cur) - 1);
        if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          *m = RangeEnd(cur) - 1;
          StealCounter().Increment();
          return true;
        }
      }
      // Lost the race on this victim; rescan — another range may still
      // hold work.
    }
  }

  void RunMorsel(uint32_t m) {
    // Morsel boundary: a stopped token skips the remaining bodies (the
    // pass is abandoned; its partial outputs are dropped whole by the
    // caller), but the countdown still runs so the run terminates.
    if (token == nullptr || !token->CheckDeadline()) {
      (*body)(morsels[m].first, morsels[m].second, m);
    }
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) done_cv.notify_all();
  }

  void RunWorker(size_t p) {
    guard::ScopedToken scoped(token);
    CARL_TRACE_SCOPE("morsel.run");
    uint32_t m = 0;
    while (PopFront(p, &m)) RunMorsel(m);
    while (StealBack(p, &m)) RunMorsel(m);
  }
};

}  // namespace

void RunMorsels(ExecContext& ctx,
                std::vector<std::pair<size_t, size_t>> morsels,
                const std::function<void(size_t, size_t, size_t)>& body) {
  CARL_CHECK(ctx.threads() > 1) << "RunMorsels requires a parallel context";
  CARL_CHECK(morsels.size() < 0xFFFFFFFFull)
      << "morsel count must fit the packed 32-bit range";
  if (morsels.empty()) return;

  auto run = std::make_shared<MorselRun>();
  run->morsels = std::move(morsels);
  run->body = &body;
  run->token = guard::CurrentToken();
  run->remaining = run->morsels.size();

  size_t helpers = std::min(static_cast<size_t>(ctx.threads()) - 1,
                            run->morsels.size() - 1);
  // Fault site: a failed helper dispatch degrades the run to the calling
  // thread. Morsel outputs merge in morsel-index order, so the degraded
  // run produces identical results, just serially.
  if (guard::FaultFired("exec.pool_dispatch")) helpers = 0;
  run->participants = helpers + 1;

  // Static partition of morsel indices into one contiguous range per
  // participant (caller is participant 0): the starting ownership, which
  // drained participants then steal from.
  size_t count = run->morsels.size();
  size_t base = count / run->participants;
  size_t extra = count % run->participants;
  run->ranges =
      std::make_unique<std::atomic<uint64_t>[]>(run->participants);
  size_t next_begin = 0;
  for (size_t p = 0; p < run->participants; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    run->ranges[p].store(
        Pack(static_cast<uint32_t>(next_begin),
             static_cast<uint32_t>(next_begin + len)),
        std::memory_order_relaxed);
    next_begin += len;
  }
  CARL_CHECK(next_begin == count);

  // `body` is captured by pointer: the cv-wait below keeps it (and the
  // caller's frame) alive until every morsel has drained, and a helper
  // scheduled after that only ever sees empty ranges.
  for (size_t h = 0; h < helpers; ++h) {
    ctx.pool().Submit([run, h] { run->RunWorker(h + 1); });
  }
  run->RunWorker(0);

  std::unique_lock<std::mutex> lock(run->mu);
  run->done_cv.wait(lock, [&] { return run->remaining == 0; });
}

uint64_t MorselStealCount() { return StealCounter().value(); }

}  // namespace exec
}  // namespace carl
