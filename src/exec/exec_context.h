// ExecContext: the global execution configuration of the carl_exec runtime.
//
// Holds the thread count (CARL_THREADS env override, hardware concurrency
// by default), a lazily-created shared ThreadPool, the deterministic chunk
// plan used by ParallelFor/ParallelReduce, and per-task RNG stream
// derivation.
//
// Determinism contract: the chunk plan is a pure function of the item
// count — it never depends on the thread count — and every parallel
// primitive merges chunk results in chunk-index order. Code built on these
// primitives therefore produces identical results for any thread count,
// including 1. No call site keeps a separate serial loop: at one thread
// the same chunk plan runs inline (see ParallelFor).

#ifndef CARL_EXEC_EXEC_CONTEXT_H_
#define CARL_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace carl {

class ExecContext {
 public:
  /// Process-wide context. Thread count comes from the CARL_THREADS
  /// environment variable when set (clamped to >= 1), otherwise from
  /// std::thread::hardware_concurrency().
  static ExecContext& Global();

  /// `threads` <= 0 selects the automatic count described above.
  explicit ExecContext(int threads = 0);

  int threads() const { return threads_; }
  bool serial() const { return threads_ == 1; }

  /// Reconfigures the thread count (test hook; also honors <= 0 = auto).
  /// Must not be called while parallel work is in flight.
  void set_threads(int threads);

  /// Re-reads CARL_THREADS (falling back to hardware concurrency when
  /// unset) and reconfigures. The global context samples the environment
  /// once at first use; tests that change the variable afterwards must
  /// call this, or their setting is silently ignored. Must not be called
  /// while parallel work is in flight.
  void RefreshFromEnv() { set_threads(0); }

  /// The shared pool, created on first use with threads()-1 workers (the
  /// calling thread always participates in parallel loops). Only valid
  /// when threads() > 1.
  ThreadPool& pool();

  /// Deterministic chunk plan over [0, n): an ordered, contiguous,
  /// non-overlapping cover. Depends only on `n` — never on the thread
  /// count — so chunked reductions are reproducible on any machine.
  std::vector<std::pair<size_t, size_t>> Chunks(size_t n) const;
  size_t NumChunks(size_t n) const;

  /// Derives an independent RNG stream seed for task `stream_index` of a
  /// computation seeded with `base_seed` (splitmix64 finalizer; stable
  /// across platforms). Parallel call sites give each task its own stream
  /// instead of sharing one sequential generator.
  static uint64_t StreamSeed(uint64_t base_seed, uint64_t stream_index);

 private:
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::mutex pool_mu_;
};

}  // namespace carl

#endif  // CARL_EXEC_EXEC_CONTEXT_H_
