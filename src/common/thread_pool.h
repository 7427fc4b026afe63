// A fixed team of worker threads for fork-join over fixed shards.
//
// Design goals, in order:
//   1. Determinism of the *callers* that use it: Run(num_shards, body)
//      calls body(s) once per shard, and callers derive a shard's work
//      from (n, num_shards, s) alone and write disjoint output slots. So
//      which thread runs a shard never matters, and the merged result is
//      bit-identical to the serial path for any worker count or schedule.
//   2. A fan-out allocates nothing: the job is a function pointer and the
//      address of the caller's body, published under the pool mutex, and
//      only the workers the job can use are woken.
//   3. No deadlock, ever: Run never waits for the team to become free. A
//      call that cannot have it runs every shard inline on the calling
//      thread, in shard order. Those calls are: num_shards <= 1, a pool
//      with 0 workers or one that has been shut down, a nested call from
//      inside a shard, and a call that finds another thread's job running.
//   4. Exceptions propagate: every shard runs even when some throw, and
//      Run rethrows the exception of the lowest-numbered throwing shard.
//
// A pool with 0 workers is valid and degenerates to inline execution on the
// calling thread - callers can treat `ThreadPool(options.num_threads - 1)`
// uniformly without special-casing the serial configuration.

#ifndef SUDOWOODO_COMMON_THREAD_POOL_H_
#define SUDOWOODO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sudowoodo {

class ThreadPool {
 public:
  /// Spawns `num_workers` threads. 0 is valid: every Run is inline.
  explicit ThreadPool(int num_workers);

  /// Calls Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Calls body(s) once for each s in [0, num_shards) and returns when
  /// every call has finished. The calling thread claims shards alongside
  /// up to min(num_shards - 1, num_workers()) woken workers, or runs them
  /// all inline (see the header comment).
  template <typename Body>
  void Run(int num_shards, const Body& body) {
    RunJob(num_shards, &body, [](const void* b, int shard) {
      (*static_cast<const Body*>(b))(shard);
    });
  }

  /// Waits for the job in flight, then joins the workers. Idempotent and
  /// safe to call from several threads and concurrently with Run: a Run
  /// that starts once Shutdown has begun runs inline, so after Shutdown
  /// the pool behaves like the 0-worker pool. The caller still owns the
  /// object's lifetime: Run must not be called on a destroyed pool.
  void Shutdown();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Process-wide shared pool, lazily created with
  /// max(hardware_concurrency - 1, 1) workers. Used by ParallelFor so hot
  /// paths do not pay thread-spawn cost per call.
  static ThreadPool& Global();

 private:
  using ShardFn = void (*)(const void* body, int shard);

  /// One Run call's shards; it lives on the calling thread's stack.
  struct Job {
    Job(ShardFn f, const void* b, int n) : fn(f), body(b), num_shards(n) {}
    const ShardFn fn;
    const void* const body;
    const int num_shards;
    std::atomic<int> next_shard{0};
    // Guarded by mu_: the exception of the lowest-numbered throwing shard.
    std::exception_ptr error;
    int error_shard = 0;
  };

  void RunJob(int num_shards, const void* body, ShardFn fn);
  /// Claims and runs the job's shards until none is left.
  void Claim(Job* job);
  void WorkerLoop();

  std::mutex mu_;
  std::mutex join_mu_;               // serializes concurrent Shutdown joins
  std::condition_variable work_cv_;  // workers: a job opened, or shutdown
  std::condition_variable done_cv_;  // joined workers left; a job ended
  Job* job_ = nullptr;  // the job in flight; at most one at a time
  int open_ = 0;        // workers that may still join job_
  int joined_ = 0;      // workers claiming job_'s shards
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sudowoodo

#endif  // SUDOWOODO_COMMON_THREAD_POOL_H_
