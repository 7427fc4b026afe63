// Content-keyed embedding cache for repeated serving-time encodings.
//
// The cleaning pipeline's pair scoring and EM blocking re-encode identical
// serialized entries many times per run (a cell's serialization appears
// once per candidate correction; identity pairs repeat it again). Since
// inference encoding is a pure function of the token-id sequence and the
// (frozen) weights, those repeats can be served from a cache - and because
// the batched inference paths are bit-identical per row regardless of
// batch composition (tests/batch_encode_test.cc), a cache hit returns
// exactly the floats a fresh encode would have produced, so cached and
// uncached pipeline outputs are bit-identical (tests/embedding_cache_test
// .cc, tests/pipeline_test.cc).
//
// Keys are the full token-id sequences (compared by value on lookup, so
// hash collisions degrade to misses, never to wrong vectors). The cache is
// sharded by key hash, each shard holding an independent mutex + LRU list,
// so concurrent hits from pipeline worker threads do not serialize on one
// lock. Staleness is the *caller's* contract: nn::Encoder clears the
// cache on the first serving call after any training-mode encode (weights
// may have changed), see Encoder::set_embedding_cache.

#ifndef SUDOWOODO_INDEX_EMBEDDING_CACHE_H_
#define SUDOWOODO_INDEX_EMBEDDING_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sudowoodo::index {

/// Aggregated counters, surfaced in the pipeline run results.
struct EmbeddingCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Targeted Erase() hits (live-index invalidation), distinct from
  /// capacity evictions.
  uint64_t erasures = 0;
  uint64_t entries = 0;
  /// Payload bytes held (keys + stored vectors).
  uint64_t bytes_resident = 0;
};

/// Sharded LRU map from token-id sequence to embedding vector.
class EmbeddingCache {
 public:
  /// `capacity` is the total entry budget across shards - a hard cap:
  /// the sum of live entries never exceeds it (per-shard slices are a
  /// floor split with the remainder spread, not a ceiling). 0 disables the
  /// cache entirely (Lookup always misses without counting, Insert is a
  /// no-op) so a zero-capacity cache behaves exactly like no cache.
  explicit EmbeddingCache(size_t capacity, int num_shards = 8);

  /// On hit, copies the cached `dim`-wide vector into `out` (refreshing
  /// LRU recency) and returns true. On miss returns false; `out` is
  /// untouched.
  bool Lookup(const std::vector<int>& ids, float* out, int dim);

  /// Stores a copy of vec[0..dim) under `ids`, evicting the shard's
  /// least-recently used entry when it is full; the evicted entry's nodes
  /// and buffers are reused for the new one. Re-inserting an existing key
  /// refreshes its value and recency.
  void Insert(const std::vector<int>& ids, const float* vec, int dim);

  /// Drops the entry stored under `ids` if present; returns whether one
  /// was dropped. This is the targeted invalidation hook for a live
  /// corpus (index/live_index.h): when an item is removed or its content
  /// replaced, its old serialization's embedding must not be served from
  /// cache. A no-op false on a zero-capacity cache.
  bool Erase(const std::vector<int>& ids);

  /// Drops every entry (stats are kept; `entries` resets).
  void Clear();

  size_t capacity() const { return capacity_; }
  EmbeddingCacheStats stats() const;

  /// FNV-1a over a token-id sequence; public so cache users (the
  /// encoder's miss dedupe) hash keys the same single way.
  struct IdsHash {
    size_t operator()(const std::vector<int>& ids) const;
  };

 private:
  struct Entry {
    std::vector<int> key;
    size_t hash = 0;  // IdsHash of key
    std::vector<float> value;
  };
  /// A map key viewing a token-id vector and carrying its IdsHash, so
  /// each call hashes its ids once, for the shard and the map alike.
  struct KeyRef {
    const std::vector<int>* ids;
    size_t hash;
  };
  struct KeyRefHash {
    size_t operator()(KeyRef k) const { return k.hash; }
  };
  struct KeyRefEq {
    bool operator()(KeyRef a, KeyRef b) const {
      return a.hash == b.hash && *a.ids == *b.ids;
    }
  };
  struct Shard {
    std::mutex mu;
    /// This shard's slice of the global entry budget. Slices sum to
    /// exactly capacity() (floor split, remainder spread one-per-shard
    /// from the front) - never more, so the cache as a whole honors its
    /// stated capacity.
    size_t capacity = 0;
    // LRU order: front = most recent. Each key is stored once, in its
    // list entry; the map's keys point at those vectors (list nodes never
    // move), so a lookup views the caller's ids without copying them.
    std::list<Entry> lru;
    std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyRefHash,
                       KeyRefEq>
        by_key;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t erasures = 0;
  };

  /// `ids` viewed as a map key, and the shard that holds it.
  KeyRef KeyOf(const std::vector<int>& ids) const {
    return KeyRef{&ids, IdsHash{}(ids)};
  }
  Shard& ShardOf(KeyRef key) { return shards_[key.hash % shards_.size()]; }

  size_t capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_EMBEDDING_CACHE_H_
