// Bounded MPSC queue with batch-forming pops - the buffering half of the
// serving front door (src/serving/server.h owns the dispatch half).
//
// Producers are client threads calling Server::Submit; the consumer is a
// worker that wants *batches*, not items. PopBatch waits for the first
// item, then keeps collecting until the first of:
//   - `max_batch` items are in hand;
//   - `max_wait` has passed since the first item of the batch entered
//     the queue;
//   - for a worker that came back to an empty queue (it was idle, so the
//     traffic is light), the queue has stayed empty for kLinger since the
//     batch last took an item: company that has not come by then is not
//     counted on.
// A worker that comes back to a queue that already holds a request is
// saturated at that moment, so it batches for throughput: it waits for
// company up to `max_wait`, with no linger. On a
// model whose flush cost is mostly streaming the weights, the linger
// alone doubled bench_serving's open-loop p99 at a 500 us window and
// cost its closed loop more throughput than it does with this exception
// (EXPERIMENTS.md).
// Anchoring the deadline at enqueue time (items are timestamped on Push)
// bounds the latency the batcher can add to any request at `max_wait`,
// whether the time was spent queued behind a busy worker or waiting for
// co-batch company. The linger only ever closes a batch earlier.
//
// An idle worker sleeps on no timer. The linger is timed by spinning on
// an atomic count of queued items, not by a timed condition-variable wait,
// which would overshoot by the kernel's timer slack (50 us by default on
// Linux, more than the linger itself). A worker that finds the queue empty
// spins on the same count for up to kParkSpin before it parks on the
// condition variable, so a request that arrives soon after the previous
// flush is picked up without a wake-up; a producer signals only a parked
// or waiting worker. When the process can run on one CPU only, a spinning
// worker would just keep the producers off that CPU, so neither spin
// happens: the worker parks at once, and the linger is a timed wait.
//
// Boundedness is backpressure, not loss: Push blocks while the queue is
// full, so an open-loop client that outruns the worker stalls rather than
// growing the heap without bound.
//
// Close() is the graceful-shutdown half: it wakes everyone, makes further
// pushes fail without consuming the item, and lets PopBatch drain what
// was already accepted (flushing immediately, no lingering) before
// returning false. Nothing accepted before Close is ever dropped.

#ifndef SUDOWOODO_SERVING_REQUEST_QUEUE_H_
#define SUDOWOODO_SERVING_REQUEST_QUEUE_H_

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sudowoodo::serving {

namespace queue_internal {

/// Tells the core that the caller is in a spin-wait loop.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// CPUs the calling process may run on (its affinity mask where the OS
/// exposes one, else the hardware count).
inline int AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace queue_internal

template <typename T>
class BoundedBatchQueue {
 public:
  /// How long an idle worker's batch waits for its next item before it
  /// closes. Chosen from a sweep of 5, 10, 20 and 50 us on perfbench's
  /// resolve and ingest workloads and bench_serving (EXPERIMENTS.md).
  static constexpr std::chrono::microseconds kLinger{20};
  /// How long a worker that finds the queue empty spins before it parks.
  /// Chosen from a sweep of 0, 50, 100 and 200 us on the same runs:
  /// resolve's latency did not move, and bench_serving's closed loop lost
  /// the least throughput at 200 us. The price is CPU time: an idle
  /// worker spins this long after every flush (EXPERIMENTS.md).
  static constexpr std::chrono::microseconds kParkSpin{200};

  /// `capacity` > 0: the maximum number of queued (not yet popped) items.
  explicit BoundedBatchQueue(size_t capacity)
      : capacity_(capacity), spin_(queue_internal::AvailableCpus() > 1) {}

  BoundedBatchQueue(const BoundedBatchQueue&) = delete;
  BoundedBatchQueue& operator=(const BoundedBatchQueue&) = delete;

  /// Blocks while the queue is full. Returns true once `item` is queued;
  /// false when the queue is (or becomes) closed - in that case `item` is
  /// left untouched, so the caller can still complete it with an error.
  bool Push(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return false;
    queue_.push_back(Entry{Clock::now(), std::move(item)});
    count_.store(queue_.size(), std::memory_order_release);
    if (waiting_ > 0) not_empty_.notify_one();
    return true;
  }

  /// Forms one batch into `out` (cleared first). Waits until at least
  /// one item is available, then collects up to `max_batch` items, never
  /// waiting past `max_wait` after the first item's enqueue time (a first
  /// item that already sat in the queue that long flushes with whatever
  /// is queued behind it). If the queue was empty when PopBatch was
  /// called, the batch also closes once the queue has stayed empty for
  /// kLinger. After Close, never waits: drains whatever is queued and
  /// finally returns false when closed and empty - the only false return.
  bool PopBatch(int max_batch, std::chrono::microseconds max_wait,
                std::vector<T>* out) {
    out->clear();
    const bool saturated = count_.load(std::memory_order_acquire) > 0;
    if (spin_ && !saturated) SpinForItem(Clock::now() + kParkSpin);
    std::unique_lock<std::mutex> lock(mu_);
    while (queue_.empty() && !closed_) {
      ++waiting_;
      not_empty_.wait(lock);
      --waiting_;
    }
    if (queue_.empty()) return false;  // closed and fully drained
    const auto deadline = queue_.front().enqueued + max_wait;
    const size_t limit = static_cast<size_t>(max_batch);
    while (true) {
      while (!queue_.empty() && out->size() < limit) {
        out->push_back(std::move(queue_.front().item));
        queue_.pop_front();
      }
      count_.store(queue_.size(), std::memory_order_relaxed);
      const auto now = Clock::now();
      if (out->size() >= limit || closed_ || now >= deadline) break;
      bool more;
      if (spin_ && !saturated) {
        lock.unlock();
        more = SpinForItem(std::min(now + kLinger, deadline));
        lock.lock();
      } else {
        const auto until = saturated ? deadline : std::min(now + kLinger,
                                                           deadline);
        ++waiting_;
        more = not_empty_.wait_until(
            lock, until, [&] { return !queue_.empty() || closed_; });
        --waiting_;
      }
      if (!more) break;
    }
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// Closes the queue: wakes all blocked producers and consumers, fails
  /// subsequent pushes, and lets PopBatch drain the remainder. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    Clock::time_point enqueued;
    T item;
  };

  /// Spins without the lock until an item is queued, the queue is closed,
  /// or `until` passes; returns false only in the last case.
  bool SpinForItem(Clock::time_point until) const {
    while (true) {
      if (count_.load(std::memory_order_acquire) > 0 ||
          closed_.load(std::memory_order_acquire)) {
        return true;
      }
      if (Clock::now() >= until) return false;
      queue_internal::CpuRelax();
    }
  }

  const size_t capacity_;
  /// False when the process can run on one CPU only (see the header).
  const bool spin_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Entry> queue_;
  /// queue_.size(), written under mu_ and read without it by the spins.
  std::atomic<size_t> count_{0};
  /// Written under mu_; read without it by the spins and closed().
  std::atomic<bool> closed_{false};
  /// Consumers blocked on not_empty_ (guarded by mu_).
  int waiting_ = 0;
};

}  // namespace sudowoodo::serving

#endif  // SUDOWOODO_SERVING_REQUEST_QUEUE_H_
