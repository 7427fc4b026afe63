// The one top-k selector behind every index query: the top-k of the
// exact scan and of probed cells, IVF probe selection, the int8
// candidate stage and its fp32 re-rank, and nearest-cell assignment all
// rank through it.
//
// Order: score descending, then id ascending, with NaN scores last as one
// id-ordered class. A NaN-oblivious float comparator is not a strict weak
// order, so NaN needs its own rule. The order is total over distinct ids,
// so the kept set and its sorted order are a function of the offered
// (score, id) pairs alone - not of the order they are offered in. That is
// what lets an IVF query push each probed cell's scores as they come and
// still rank exactly like the exact scan.
//
// Bounded: a size-k heap whose root is the worst kept entry. Once k
// entries are kept, a score below the root's is rejected by one compare,
// so a scan of n scores costs O(n) plus O(log k) per replacement.
// Retained storage: Reset keeps the heap's capacity, so a selector reused
// across queries stops allocating once it has held k entries.

#ifndef SUDOWOODO_INDEX_TOP_K_H_
#define SUDOWOODO_INDEX_TOP_K_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "index/vector_index.h"

namespace sudowoodo::index {

class TopKSelector {
 public:
  /// One kept candidate: its score and id, plus where its row is stored
  /// (table and position) for callers that revisit the row.
  struct Entry {
    float score;
    int id;
    int table;
    int pos;
  };

  /// Whether `a` ranks before `b` (see the file comment).
  static bool Better(const Entry& a, const Entry& b) {
    const bool nan_a = std::isnan(a.score), nan_b = std::isnan(b.score);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  /// Starts a selection of the best `k` (>= 0) offered entries.
  void Reset(int k) {
    k_ = k;
    heap_.clear();
    floor_ = -std::numeric_limits<float>::infinity();
  }

  /// Offers one candidate.
  void Push(float score, int id, int table = 0, int pos = 0) {
    if (static_cast<int>(heap_.size()) < k_) {
      Fill({score, id, table, pos});
    } else if (!(score < floor_)) {
      Offer({score, id, table, pos});
    }
  }

  /// Offers the n positions pos0..pos0+n-1 of table `table`: scores[i]
  /// and ids[i] belong to position pos0 + i, and a negative id is a
  /// tombstone, skipped. ids == nullptr means each position is its own
  /// id.
  void PushScores(const float* scores, const int* ids, int n, int table = 0,
                  int pos0 = 0) {
    int i = 0;
    for (; i < n && static_cast<int>(heap_.size()) < k_; ++i) {
      const int id = ids != nullptr ? ids[i] : pos0 + i;
      if (id >= 0) Fill({scores[i], id, table, pos0 + i});
    }
    // Full: a score strictly below the worst kept one cannot enter, which
    // is one compare for most candidates. NaN never compares below, so it
    // takes the full comparison in Offer.
    for (; i < n; ++i) {
      if (scores[i] < floor_) continue;
      const int id = ids != nullptr ? ids[i] : pos0 + i;
      if (id >= 0) Offer({scores[i], id, table, pos0 + i});
    }
  }

  /// The kept entries, in heap order (unspecified). Valid until the next
  /// Reset or Push.
  const std::vector<Entry>& entries() const { return heap_; }

  /// Sorts the kept entries best first and returns them. Ends the
  /// selection: call Reset before offering more.
  const std::vector<Entry>& Sorted() {
    std::sort(heap_.begin(), heap_.end(), Better);
    return heap_;
  }

  /// Writes the kept entries best first as neighbours into `*out`,
  /// reusing its capacity. Ends the selection like Sorted().
  void SortedInto(std::vector<Neighbor>* out) {
    Sorted();
    out->resize(heap_.size());
    for (size_t i = 0; i < heap_.size(); ++i) {
      (*out)[i] = {heap_[i].id, heap_[i].score};
    }
  }

 private:
  /// Adds `e` while fewer than k are kept.
  void Fill(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Better);
    if (static_cast<int>(heap_.size()) == k_) UpdateFloor();
  }

  /// Replaces the worst kept entry with `e` when `e` ranks before it:
  /// one sift-down from the root.
  void Offer(const Entry& e) {
    if (k_ == 0 || !Better(e, heap_[0])) return;
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      // The worse child; it moves up if it ranks after `e`.
      if (child + 1 < n && Better(heap_[child], heap_[child + 1])) ++child;
      if (!Better(e, heap_[child])) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
    UpdateFloor();
  }

  void UpdateFloor() {
    const float worst = heap_.front().score;
    floor_ = std::isnan(worst) ? -std::numeric_limits<float>::infinity()
                               : worst;
  }

  int k_ = 0;
  // Lowest score that can still enter once full; -inf while the worst
  // kept score is NaN (then every non-NaN score beats it).
  float floor_ = -std::numeric_limits<float>::infinity();
  std::vector<Entry> heap_;  // max-heap under Better: front is the worst
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_TOP_K_H_
