#include "guard/guard.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace carl {
namespace guard {

namespace {

// Registry mirrors of the guard events. Function-local statics resolve
// the name lookup once; increments are relaxed RMWs.
struct GuardCounters {
  obs::Counter& cancelled =
      obs::Registry::Global().GetCounter("guard_cancelled");
  obs::Counter& deadline_exceeded =
      obs::Registry::Global().GetCounter("guard_deadline_exceeded");
  obs::Counter& budget_exceeded =
      obs::Registry::Global().GetCounter("guard_budget_exceeded");
  obs::Counter& fault_injected =
      obs::Registry::Global().GetCounter("fault_injected");

  static GuardCounters& Get() {
    static GuardCounters counters;
    return counters;
  }
};

thread_local ExecToken* g_current_token = nullptr;

}  // namespace

QueryBudget QueryBudget::FromEnv() {
  QueryBudget budget;
  if (const char* ms = std::getenv("CARL_DEADLINE_MS")) {
    char* end = nullptr;
    double v = std::strtod(ms, &end);
    if (end != ms && v > 0.0) budget.deadline_ms = v;
  }
  if (const char* bytes = std::getenv("CARL_MEM_BUDGET")) {
    char* end = nullptr;
    // strtoull wraps a leading '-' to a huge positive value; a negative
    // budget must read as unparsable, not as near-infinite.
    unsigned long long v = std::strtoull(bytes, &end, 10);
    if (end != bytes && v > 0 && std::strchr(bytes, '-') == nullptr) {
      budget.memory_bytes = static_cast<size_t>(v);
    }
  }
  return budget;
}

QueryBudget QueryBudget::WithEnvDefaults() const {
  QueryBudget merged = *this;
  if (merged.deadline_ms <= 0.0 || merged.memory_bytes == 0) {
    QueryBudget env = FromEnv();
    if (merged.deadline_ms <= 0.0) merged.deadline_ms = env.deadline_ms;
    if (merged.memory_bytes == 0) merged.memory_bytes = env.memory_bytes;
  }
  return merged;
}

ExecToken::ExecToken(const QueryBudget& budget) : budget_(budget) {
  if (!(budget_.deadline_ms > 0.0)) return;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const Clock::rep headroom = (Clock::time_point::max() - now).count();
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(budget_.deadline_ms))
          .count();
  // A deadline the clock cannot represent (inf, or ~9.2e12 ms and up on
  // a nanosecond clock) means no deadline; converting it to clock ticks
  // would be undefined. The double check keeps the cast defined; the
  // integer one catches rounding at the edge.
  if (!(ticks < static_cast<double>(headroom))) return;
  const Clock::rep whole = static_cast<Clock::rep>(ticks);
  if (whole >= headroom) return;
  has_deadline_ = true;
  deadline_ = now + Clock::duration(whole);
}

void ExecToken::Trip(StopReason reason, const char* fault_site) {
  uint8_t expected = 0;
  // The winner publishes fault_site_ before the release store; losers
  // (and readers seeing a nonzero code via acquire) never write it.
  if (fault_site != nullptr) fault_site_ = fault_site;
  if (!stop_code_.compare_exchange_strong(
          expected, static_cast<uint8_t>(reason), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    return;  // already stopped; first reason wins
  }
  GuardCounters& counters = GuardCounters::Get();
  switch (reason) {
    case StopReason::kCancelled:
      counters.cancelled.Increment();
      break;
    case StopReason::kDeadline:
      counters.deadline_exceeded.Increment();
      break;
    case StopReason::kMemory:
    case StopReason::kBindings:
      counters.budget_exceeded.Increment();
      break;
    case StopReason::kFault:
      // Accounted by fault_injected at the firing site.
      break;
    case StopReason::kNone:
      break;
  }
}

bool ExecToken::CheckDeadline() {
  if (stopped()) return true;
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    Trip(StopReason::kDeadline, nullptr);
  }
  return stopped();
}

bool ExecToken::ChargeBytes(size_t n) {
  size_t total = bytes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (budget_.memory_bytes > 0 && total > budget_.memory_bytes) {
    Trip(StopReason::kMemory, nullptr);
  }
  return stopped();
}

bool ExecToken::ChargeBindings(size_t n) {
  size_t total = bindings_.fetch_add(n, std::memory_order_relaxed) + n;
  if (budget_.max_bindings > 0 && total > budget_.max_bindings) {
    Trip(StopReason::kBindings, nullptr);
  }
  return stopped();
}

Status ExecToken::ToStatus() const {
  switch (reason()) {
    case StopReason::kNone:
      return Status::OK();
    case StopReason::kCancelled:
      return Status::Cancelled("query cancelled");
    case StopReason::kDeadline:
      return Status::DeadlineExceeded("query deadline exceeded");
    case StopReason::kMemory:
      return Status::ResourceExhausted(
          "query memory budget exceeded (" +
          std::to_string(charged_bytes()) + " bytes charged, budget " +
          std::to_string(budget_.memory_bytes) + ")");
    case StopReason::kBindings:
      return Status::ResourceExhausted(
          "query binding budget exceeded (" +
          std::to_string(charged_bindings()) + " bindings charged, budget " +
          std::to_string(budget_.max_bindings) + ")");
    case StopReason::kFault:
      return Status::ResourceExhausted("injected fault at " + fault_site_);
  }
  return Status::Internal("unreachable stop reason");
}

ExecToken* CurrentToken() { return g_current_token; }

ScopedToken::ScopedToken(ExecToken* token) {
  if (token == nullptr) return;
  prev_ = g_current_token;
  g_current_token = token;
  installed_ = true;
}

ScopedToken::~ScopedToken() {
  if (installed_) g_current_token = prev_;
}

Status CheckPoint() {
  ExecToken* t = g_current_token;
  if (t == nullptr) return Status::OK();
  t->CheckDeadline();
  return t->ToStatus();
}

void OnArenaGrowth(size_t bytes) {
  ExecToken* t = g_current_token;
  if (t != nullptr) {
    t->ChargeBytes(bytes);
    if (FaultFired("relational.arena_grow")) {
      t->InjectFault("relational.arena_grow");
    }
  }
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    auto* r = new FaultRegistry();
    r->ArmFromEnv();
    return r;
  }();
  return *registry;
}

void FaultRegistry::Arm(const std::string& site, uint64_t countdown) {
  std::lock_guard<std::mutex> lock(mu_);
  site_ = site;
  countdown_ = countdown == 0 ? 1 : countdown;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  site_.clear();
  countdown_ = 0;
  armed_.store(false, std::memory_order_relaxed);
}

void FaultRegistry::ArmFromEnv() {
  const char* spec = std::getenv("CARL_FAULT");
  if (spec == nullptr || *spec == '\0') return;
  std::string s(spec);
  uint64_t countdown = 1;
  size_t colon = s.rfind(':');
  if (colon != std::string::npos) {
    char* end = nullptr;
    unsigned long long n = std::strtoull(s.c_str() + colon + 1, &end, 10);
    if (end != s.c_str() + colon + 1 && *end == '\0' && n > 0) {
      countdown = n;
      s.resize(colon);
    }
  }
  CARL_LOG(WARN) << "fault injection armed from CARL_FAULT: site=" << s
                 << " countdown=" << countdown;
  Arm(s, countdown);
}

bool FaultRegistry::MaybeFire(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (countdown_ == 0 || site_ != site) return false;
  if (--countdown_ > 0) return false;
  // Fired: self-disarm so exactly one fault per arming.
  armed_.store(false, std::memory_order_relaxed);
  obs::Counter& fired = GuardCounters::Get().fault_injected;
  fired.Increment();
  CARL_LOG(WARN) << "injected fault fired at site " << site_;
  return true;
}

uint64_t FaultRegistry::fired_count() const {
  return GuardCounters::Get().fault_injected.value();
}

Status InjectedFault(const char* site) {
  if (FaultFired(site)) {
    if (ExecToken* t = g_current_token) t->InjectFault(site);
    return Status::ResourceExhausted(std::string("injected fault at ") +
                                     site);
  }
  return Status::OK();
}

}  // namespace guard
}  // namespace carl
