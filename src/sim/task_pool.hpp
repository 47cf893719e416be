#pragma once
// The process-wide simulation task pool.
//
// One set of persistent worker threads, started lazily on the first call
// that fans out, runs every piece of simulation work that is split across
// threads: a batch's per-program density simulations (sim/executor.cpp)
// and the chunks of a kern::parallel_for issued outside the pool. Its
// width is the ambient kern::parallel_threads() cap at first use
// (QUCP_KERNEL_THREADS, else the hardware concurrency, 0 mapped to 1), so
// however many threads submit work, at most that many simulate at once.
//
// A caller's thread-local cap (kern::set_parallel_threads, ExecOptions::
// kernel_threads) bounds how many of its tasks run concurrently; a cap of
// 1 runs every task inline on the caller. A call made from a pool thread
// also runs inline, so nested fan-out can never wait on the pool it is
// occupying.

#include <cstddef>
#include <functional>

namespace qucp::kern {

/// Run fn(i) for every i in [0, count) and return when all have finished.
/// Tasks run on the pool, at most parallel_threads() of this call's at a
/// time, while the caller blocks; they run inline, in index order, when
/// the cap is 1 or the caller is itself a pool thread. fn must be safe to
/// call concurrently for distinct i. When a task throws, tasks not yet
/// started are skipped, and the first exception is rethrown on the caller
/// once every started task of the call has finished.
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn);

/// True on a pool worker thread (inside a task).
[[nodiscard]] bool in_pool_task() noexcept;

}  // namespace qucp::kern
