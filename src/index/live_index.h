// A live (mutable, concurrently queried) blocking corpus: the layer the
// serving front door points at. It owns
//
//   - a BlockingIndex (by default kAuto: the exact scan below the
//     threshold, IVF cells once growth reaches it; kIvf partitions the
//     rows of its first upsert),
//   - the external-id <-> internal-id translation: callers address items
//     by their own non-negative item ids (upsert/remove/result ids),
//     while the index underneath keeps its dense monotone internal ids
//     (which is what makes mutated-vs-rebuilt results bitwise identical,
//     see vector_index.h),
//   - cache invalidation: each live item remembers the token-id key its
//     embedding was cached under, and an upsert that changes an item's
//     content (or a remove) erases the *old* key from the
//     EmbeddingCache, so a later encode of different content for the
//     same item can never be served a stale vector. (The cache is
//     content-keyed and pure, so two items sharing identical content
//     share a key; erasing it degrades the survivor to one re-encode
//     miss, never a wrong vector.)
//
// Concurrency: a shared_mutex - queries take it shared (the indexes are
// internally unsynchronized but const-safe), mutations take it
// exclusive. Mutations are applied in call order; the server
// (serving/server.h) applies each flush's index operations in submission
// order, so a client observes its own write within a flush, and across
// flushes once the write's future is ready.

#ifndef SUDOWOODO_INDEX_LIVE_INDEX_H_
#define SUDOWOODO_INDEX_LIVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "index/vector_index.h"

namespace sudowoodo::index {

/// Mutation counters, surfaced by the serving stats endpoint.
struct LiveIndexStats {
  uint64_t upserts = 0;
  uint64_t replacements = 0;  // upserts that overwrote an existing item
  uint64_t removes = 0;
  uint64_t cache_erasures = 0;
  int live_items = 0;
  bool using_ivf = false;
  int retrains = 0;
  /// Index payload bytes (rows + ids + IVF structures), ~0.28x smaller
  /// under int8 storage - see BlockingIndex::bytes_resident.
  size_t index_bytes_resident = 0;
};

/// One arriving item: the caller's id, the token-id serialization its
/// embedding was encoded from (the cache key; may be empty when the row
/// was not encoded through a cache), and the L2-normalized embedding row.
struct LiveItem {
  int item_id = -1;
  std::vector<int> token_key;
};

/// Thread-safe mutable blocking corpus over external item ids.
class LiveBlockingIndex {
 public:
  /// Starts empty at width `dim`. `cache` (optional, borrowed) is the
  /// embedding cache upserts/removes invalidate; it must outlive this
  /// object when set.
  LiveBlockingIndex(int dim, const BlockingIndexOptions& options,
                    EmbeddingCache* cache = nullptr);

  /// Inserts or replaces `n` items. `rows` is [n, dim] row-major; items
  /// and rows pair up by position. A replacement removes the old row
  /// from the index and erases its old cache key (when it changed).
  /// InvalidArgument on shape/negative-id errors, applied atomically per
  /// call (validation first).
  Status Upsert(const LiveItem* items, const float* rows, int n, int dim);

  /// Removes items by external id; NotFound (and no mutation) if any id
  /// is not live. Erases each removed item's cache key.
  Status Remove(const int* item_ids, int n);

  /// Top-k over the live corpus; neighbour ids are *external* item ids.
  /// Query into a retained `*out` allocates nothing in steady state
  /// (BlockingIndex::Query).
  Status Query(const float* query, int dim, int k,
               std::vector<Neighbor>* out) const;
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const;

  bool Contains(int item_id) const;
  int size() const;
  int dim() const;
  LiveIndexStats stats() const;

 private:
  struct ItemState {
    int internal_id = -1;
    std::vector<int> token_key;
  };

  /// Erases `key` from the cache (if set and non-empty), counting it.
  void EraseCacheKey(const std::vector<int>& key);
  /// Rewrites a result row's internal ids as external item ids.
  void TranslateIds(std::vector<Neighbor>* row) const;

  mutable std::shared_mutex mu_;
  std::unique_ptr<BlockingIndex> index_;
  std::unordered_map<int, ItemState> items_;      // external -> state
  std::unordered_map<int, int> external_by_internal_;
  EmbeddingCache* cache_ = nullptr;
  uint64_t upserts_ = 0;
  uint64_t replacements_ = 0;
  uint64_t removes_ = 0;
  uint64_t cache_erasures_ = 0;
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_LIVE_INDEX_H_
