// Work-stealing morsel scheduler: the execution engine under
// ParallelFor/ParallelReduce.
//
// A parallel loop's chunk plan (a pure function of the item count, see
// exec_context.h) is treated as a list of *morsels*. Each participating
// thread owns a contiguous range of morsel indices, packed into one
// 64-bit atomic (begin << 32 | end): the owner pops from the front with a
// CAS, and a thread whose own range ran dry steals from the BACK of the
// fullest victim's range — the Chase-Lev discipline collapsed onto a
// range, which is all a pre-sized morsel list needs (there is no dynamic
// push, so the full deque machinery would buy nothing).
//
// Determinism contract: stealing moves *where* a morsel executes, never
// *what* it computes or how results merge. Bodies address output slots by
// morsel index and every consumer combines them in morsel-index order, so
// results are bit-identical for any thread count and any steal schedule
// (see docs/execution.md). Guard parity with the historical chunk path:
// workers install the caller's ScopedToken, poll CheckDeadline at every
// morsel boundary (a stopped token skips bodies but the completion count
// still drains), and a fired `exec.pool_dispatch` fault degrades the run
// to the calling thread.
//
// Observability: each worker's drain loop runs under a `morsel.run` trace
// span; every successful steal ticks the `exec.morsel_steals` counter.

#ifndef CARL_EXEC_MORSEL_H_
#define CARL_EXEC_MORSEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "exec/exec_context.h"

namespace carl {
namespace exec {

/// Runs `body(begin, end, morsel_index)` over every morsel, distributing
/// morsels across the context's threads with work stealing. The caller
/// participates; the call returns only after every morsel completed.
/// Morsels must be non-empty and their count must fit in 32 bits.
/// Requires a parallel context (ctx.threads() > 1) — serial callers run
/// the plan inline themselves (see ParallelFor).
void RunMorsels(ExecContext& ctx,
                std::vector<std::pair<size_t, size_t>> morsels,
                const std::function<void(size_t, size_t, size_t)>& body);

/// Total morsels stolen since process start (mirrors the
/// `exec.morsel_steals` counter; test/bench hook).
uint64_t MorselStealCount();

}  // namespace exec
}  // namespace carl

#endif  // CARL_EXEC_MORSEL_H_
