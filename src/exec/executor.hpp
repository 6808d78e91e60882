#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>

namespace dcv::exec {

/// `configured`, or for 0 the hardware default: the number of CPUs the
/// calling thread may run on (its affinity mask; the hardware concurrency
/// if that cannot be read), clamped to [1, 16]. The one place a thread
/// count of 0 is resolved.
[[nodiscard]] unsigned default_threads(unsigned configured = 0);

/// Calls job(w) once for each w in [0, workers), each on a thread of its
/// own, so jobs may block on each other: w = 0 on the caller, the others
/// on threads of one process-wide cache, parked after a call and reused by
/// the next. Nested and concurrent calls each claim their own threads.
/// Returns once every job(w) has returned, after everything they wrote;
/// then rethrows the first exception a worker threw, if any.
void run(unsigned workers, const std::function<void(unsigned)>& job);

/// Calls fn(worker, i) once for each i in [0, n), handing the indices out
/// from one counter to min(workers, n) workers of run(), or inline on the
/// caller when that leaves one. `worker` < max(1, min(workers, n)), so
/// per-worker state indexed by it needs no lock.
template <typename Fn>
void for_each(unsigned workers, std::size_t n, Fn&& fn) {
  const auto used = static_cast<unsigned>(std::min<std::size_t>(workers, n));
  if (used <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0u, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  run(used, [&](unsigned worker) {
    for (std::size_t i = next++; i < n; i = next++) fn(worker, i);
  });
}

}  // namespace dcv::exec
