// Bounded MPSC queue with batch-forming pops - the buffering half of the
// serving front door (src/serving/server.h owns the dispatch half).
//
// Producers are client threads calling Server::Submit; the consumer is a
// worker that wants *batches*, not items: PopBatch blocks for the first
// item, then keeps collecting until either `max_batch` items are in hand
// or `max_wait` has elapsed since the first item of the batch entered the
// queue. Anchoring the deadline at enqueue time (items are timestamped on
// Push) bounds the latency the batcher can add to any request at
// `max_wait`, whether the time was spent queued behind a busy worker or
// waiting for co-batch company.
//
// Boundedness is backpressure, not loss: Push blocks while the queue is
// full, so an open-loop client that outruns the worker stalls rather than
// growing the heap without bound.
//
// Close() is the graceful-shutdown half: it wakes everyone, makes further
// pushes fail without consuming the item, and lets PopBatch drain what
// was already accepted (flushing immediately, no deadline waits) before
// returning false. Nothing accepted before Close is ever dropped.

#ifndef SUDOWOODO_SERVING_REQUEST_QUEUE_H_
#define SUDOWOODO_SERVING_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace sudowoodo::serving {

template <typename T>
class BoundedBatchQueue {
 public:
  /// `capacity` > 0: the maximum number of queued (not yet popped) items.
  explicit BoundedBatchQueue(size_t capacity) : capacity_(capacity) {}

  BoundedBatchQueue(const BoundedBatchQueue&) = delete;
  BoundedBatchQueue& operator=(const BoundedBatchQueue&) = delete;

  /// Blocks while the queue is full. Returns true once `item` is queued;
  /// false when the queue is (or becomes) closed - in that case `item` is
  /// left untouched, so the caller can still complete it with an error.
  bool Push(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return false;
    queue_.push_back(Entry{Clock::now(), std::move(item)});
    not_empty_.notify_one();
    return true;
  }

  /// Forms one batch into `out` (cleared first). Blocks until at least
  /// one item is available, then collects up to `max_batch` items,
  /// waiting at most until `max_wait` past the first item's enqueue time
  /// for stragglers (a first item that already sat in the queue that long
  /// flushes immediately). After Close, never waits: drains whatever is
  /// queued and finally returns false when closed and empty - the only
  /// false return.
  bool PopBatch(int max_batch, std::chrono::microseconds max_wait,
                std::vector<T>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return false;  // closed and fully drained
    const auto deadline = queue_.front().enqueued + max_wait;
    while (static_cast<int>(out->size()) < max_batch) {
      if (!queue_.empty()) {
        out->push_back(std::move(queue_.front().item));
        queue_.pop_front();
        continue;
      }
      if (closed_) break;
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
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

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

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

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Entry> queue_;
  bool closed_ = false;
};

}  // namespace sudowoodo::serving

#endif  // SUDOWOODO_SERVING_REQUEST_QUEUE_H_
