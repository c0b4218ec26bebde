// ParallelFor: the chunked data-parallel loop of carl_exec.
//
// ParallelFor splits [0, n) into the ExecContext's deterministic chunk
// plan (a pure function of n, see exec_context.h). The calling thread and
// up to threads - 1 pool helpers claim chunks from one shared atomic
// next-chunk index until the plan runs out. Which thread runs a chunk
// depends on timing; what the chunk computes does not. Bodies that write
// disjoint slots addressed by item or chunk index therefore produce
// results independent of the thread count (see docs/execution.md).
//
// Bodies must not throw; propagate failures through Result slots instead.

#ifndef CARL_EXEC_PARALLEL_H_
#define CARL_EXEC_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "exec/exec_context.h"

namespace carl {

/// Runs `body(begin, end, chunk_index)` over every chunk of [0, n) and
/// returns once all chunks have run. The caller takes part; pool helpers
/// run with the caller's guard token installed. A stopped token skips the
/// remaining bodies, so the caller must check it before reading results.
void ParallelFor(ExecContext& ctx, size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body);

}  // namespace carl

#endif  // CARL_EXEC_PARALLEL_H_
