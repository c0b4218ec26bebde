#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "guard/guard.h"

namespace carl {
namespace {

// One loop's state, shared by the caller and its pool helpers. Held by
// shared_ptr so a helper that starts after the loop returned still finds
// a valid, exhausted counter and exits.
struct Loop {
  std::vector<std::pair<size_t, size_t>> chunks;
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  // The caller's guard token, installed in every participant.
  guard::ExecToken* token = nullptr;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = 0;  // chunks not yet finished, guarded by mu

  // Claims chunks until the plan runs out. A stopped token skips the
  // remaining bodies, but every claimed chunk still counts down, so the
  // loop terminates.
  void Drain() {
    guard::ScopedToken scoped(token);
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) return;
      if (token == nullptr || !token->CheckDeadline()) {
        (*body)(chunks[c].first, chunks[c].second, c);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_all();
    }
  }
};

}  // namespace

void ParallelFor(ExecContext& ctx, size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  auto loop = std::make_shared<Loop>();
  loop->chunks = ctx.Chunks(n);
  if (loop->chunks.empty()) return;
  loop->body = &body;
  loop->token = guard::CurrentToken();
  loop->remaining = loop->chunks.size();

  size_t helpers = std::min(static_cast<size_t>(ctx.threads()) - 1,
                            loop->chunks.size() - 1);
  // Fault site: a failed helper dispatch degrades the loop to the calling
  // thread. Chunks do not depend on who runs them, so results match.
  if (helpers > 0 && guard::FaultFired("exec.pool_dispatch")) helpers = 0;
  for (size_t h = 0; h < helpers; ++h) {
    ctx.pool().Submit([loop] { loop->Drain(); });
  }
  loop->Drain();

  // `body` lives in the caller's frame: wait until every claimed chunk
  // has finished before returning.
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->done_cv.wait(lock, [&] { return loop->remaining == 0; });
}

}  // namespace carl
