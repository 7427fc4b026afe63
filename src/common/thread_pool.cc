#include "common/thread_pool.h"

#include <algorithm>

namespace sudowoodo {

ThreadPool::ThreadPool(int num_workers) {
  num_workers = std::max(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    // Every Run from here on is inline. Wait out the job in flight, so
    // that no shard of this pool runs once Shutdown returns.
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    done_cv_.wait(lock, [this] { return job_ == nullptr; });
  }
  work_cv_.notify_all();
  // Serialize concurrent Shutdown calls; joinable() makes repeats no-ops.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::RunJob(int num_shards, const void* body, ShardFn fn) {
  Job job(fn, body, num_shards);
  int wake = std::min(num_shards - 1, num_workers());
  if (wake > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_ != nullptr || shutdown_) {
      wake = 0;  // a nested call, another thread's job, or shut down
    } else {
      job_ = &job;
      open_ = wake;
    }
  }
  for (int i = 0; i < wake; ++i) work_cv_.notify_one();
  Claim(&job);  // inline (wake == 0), this thread alone: in shard order
  if (wake > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = 0;  // close the job: no worker joins it from here on
    done_cv_.wait(lock, [this] { return joined_ == 0; });
    job_ = nullptr;  // no worker reads `job` after this
    if (shutdown_) done_cv_.notify_all();
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::Claim(Job* job) {
  for (int s; (s = job->next_shard++) < job->num_shards;) {
    try {
      job->fn(job->body, s);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job->error || s < job->error_shard) {
        job->error = std::current_exception();
        job->error_shard = s;
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return open_ > 0 || shutdown_; });
    if (open_ == 0) return;  // shut down
    --open_;
    ++joined_;
    Job* job = job_;
    lock.unlock();
    Claim(job);
    lock.lock();
    // notify_all: a Shutdown waiting for the job shares done_cv_.
    if (--joined_ == 0) done_cv_.notify_all();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new ThreadPool(std::max(1, static_cast<int>(hw) - 1));
  }();
  return *pool;
}

}  // namespace sudowoodo
