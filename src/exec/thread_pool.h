// ThreadPool: a fixed-size worker pool with a simple FIFO task queue.
//
// ParallelFor submits one helper task per extra participant; each helper
// claims chunks from the loop's shared counter until the plan runs out.
// Balancing happens in that counter, not in the pool, and which worker
// runs a chunk never affects results.

#ifndef CARL_EXEC_THREAD_POOL_H_
#define CARL_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace carl {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace carl

#endif  // CARL_EXEC_THREAD_POOL_H_
