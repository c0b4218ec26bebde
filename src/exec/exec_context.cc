#include "exec/exec_context.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace carl {
namespace {

// The plan for n items is ceil(n / chunk_size) chunks with
// chunk_size = min(ceil(n / kMaxChunks), kMaxChunkItems): at most 64
// chunks up to n = 131072, fixed 2048-item chunks past that, so a skewed
// loop still splits into many claimable pieces. Both constants are
// thread-count-independent, so the plan stays a pure function of n.
constexpr size_t kMaxChunks = 64;
constexpr size_t kMaxChunkItems = 2048;

size_t ChunkSizeFor(size_t n) {
  return std::min((n + kMaxChunks - 1) / kMaxChunks, kMaxChunkItems);
}

int AutoThreads() {
  if (const char* env = std::getenv("CARL_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ExecContext& ExecContext::Global() {
  static ExecContext* context = new ExecContext(0);
  return *context;
}

ExecContext::ExecContext(int threads) { set_threads(threads); }

void ExecContext::set_threads(int threads) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  threads_ = threads <= 0 ? AutoThreads() : threads;
  pool_.reset();  // rebuilt lazily at the new size
}

ThreadPool& ExecContext::pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  CARL_CHECK(threads_ > 1) << "pool() requires a parallel context";
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  return *pool_;
}

std::vector<std::pair<size_t, size_t>> ExecContext::Chunks(size_t n) const {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (n == 0) return chunks;
  size_t chunk_size = ChunkSizeFor(n);
  chunks.reserve((n + chunk_size - 1) / chunk_size);
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    chunks.emplace_back(begin, std::min(n, begin + chunk_size));
  }
  return chunks;
}

uint64_t ExecContext::StreamSeed(uint64_t base_seed, uint64_t stream_index) {
  return SplitMix64(base_seed ^ SplitMix64(stream_index + 1));
}

}  // namespace carl
