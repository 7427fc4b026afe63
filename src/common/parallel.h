// Deterministic data-parallel loops on top of ThreadPool::Run.
//
// ParallelFor splits [0, n) into `num_shards` *fixed* contiguous ranges -
// a shard's range is ShardOf(n, num_shards, shard), a function of those
// three numbers only, never of worker count or scheduling - and invokes
// the body once per shard. Callers write each index's result into a
// pre-sized output slot (or accumulate per-shard and merge in shard
// order), which makes the parallel result bit-identical to the serial
// one: every existing unit test doubles as a parallel-correctness oracle.
//
// num_threads <= 1 (or n == 1) bypasses the pool entirely and runs the
// loop on the calling thread, so `num_threads = 1` is exactly the serial
// code path, not a 1-worker simulation of it. A threaded call allocates
// nothing either: the shard ranges are computed, not stored.

#ifndef SUDOWOODO_COMMON_PARALLEL_H_
#define SUDOWOODO_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstdint>

#include "common/thread_pool.h"

namespace sudowoodo {

/// Half-open index range [begin, end) handled by one shard.
struct ShardRange {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Shard `shard` (0 <= shard < num_shards) of the fixed decomposition of
/// [0, n) into `num_shards` near-equal contiguous ranges: the first
/// n % num_shards shards get one index more than the rest. Shards past n
/// (num_shards > n) are empty.
inline ShardRange ShardOf(int64_t n, int num_shards, int shard) {
  const int64_t base = n / num_shards;
  const int64_t extra = n % num_shards;
  const int64_t begin = base * shard + std::min<int64_t>(shard, extra);
  return {begin, begin + base + (shard < extra ? 1 : 0)};
}

/// Runs body(begin, end, shard) over the fixed shard decomposition of
/// [0, n) into min(num_threads, n) shards, on `pool` (defaulting to
/// ThreadPool::Global() when nullptr) with the calling thread taking part.
/// Blocks until every shard finishes; the exception of the lowest-numbered
/// throwing shard is rethrown.
template <typename Body>
void ParallelFor(int64_t n, int num_threads, const Body& body,
                 ThreadPool* pool_override = nullptr) {
  if (n <= 0) return;
  if (num_threads <= 1 || n == 1) {
    // Serial fast path: never touches (or creates) the global pool.
    body(0, n, 0);
    return;
  }
  // Clamp in 64-bit: casting n to int first would overflow for
  // n > 2^31-1 and (sign-wrapped negative) silently collapse the
  // decomposition to a single shard. num_threads itself always fits.
  const int num_shards = static_cast<int>(std::min<int64_t>(num_threads, n));
  ThreadPool& pool =
      pool_override != nullptr ? *pool_override : ThreadPool::Global();
  pool.Run(num_shards, [&](int shard) {
    const ShardRange r = ShardOf(n, num_shards, shard);
    body(r.begin, r.end, shard);
  });
}

/// Element-wise convenience: body(i) for each i in [0, n).
template <typename Body>
void ParallelForEach(int64_t n, int num_threads, const Body& body) {
  ParallelFor(n, num_threads, [&body](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace sudowoodo

#endif  // SUDOWOODO_COMMON_PARALLEL_H_
