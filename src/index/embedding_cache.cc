#include "index/embedding_cache.h"

#include <algorithm>
#include <iterator>

namespace sudowoodo::index {

size_t EmbeddingCache::IdsHash::operator()(const std::vector<int>& ids) const {
  // FNV-1a over the id words; collisions only cost a (value-compared)
  // map probe, never a wrong hit.
  uint64_t h = 1469598103934665603ULL;
  for (int id : ids) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(id));
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

EmbeddingCache::EmbeddingCache(size_t capacity, int num_shards)
    : capacity_(capacity) {
  const size_t n = static_cast<size_t>(std::max(1, num_shards));
  // Don't spread a tiny budget so thin that shards round down to nothing.
  const size_t used = std::min(n, std::max<size_t>(capacity, 1));
  shards_ = std::vector<Shard>(capacity > 0 ? used : 1);
  // Distribute the budget exactly: base entries everywhere plus one spare
  // for the first (capacity % used) shards. Ceiling every shard instead
  // would let the *total* exceed capacity() by up to used - 1 entries.
  const size_t base = capacity / used;
  const size_t rem = capacity % used;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = capacity > 0 ? base + (i < rem ? 1 : 0) : 0;
  }
}

bool EmbeddingCache::Lookup(const std::vector<int>& ids, float* out,
                            int dim) {
  if (capacity_ == 0) return false;
  const KeyRef key = KeyOf(ids);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  // A stored vector of the wrong width (e.g. two encoders of different
  // dims sharing one cache) is a miss, never a truncated hit: the caller
  // re-encodes and Insert refreshes the entry at the new width.
  if (it == shard.by_key.end() ||
      it->second->value.size() != static_cast<size_t>(dim)) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  const std::vector<float>& value = it->second->value;
  std::copy(value.begin(), value.end(), out);
  return true;
}

void EmbeddingCache::Insert(const std::vector<int>& ids, const float* vec,
                            int dim) {
  if (capacity_ == 0) return;
  const KeyRef key = KeyOf(ids);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    it->second->value.assign(vec, vec + dim);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (!shard.lru.empty() && shard.lru.size() >= shard.capacity) {
    // A full shard evicts its least recently used entry and recycles it
    // for the new key: its list node, its map node (extracted, re-keyed
    // and re-inserted) and its key and value buffers. Eviction then
    // allocates nothing once those buffers are wide enough.
    const Entry& oldest = shard.lru.back();
    auto node = shard.by_key.extract(KeyRef{&oldest.key, oldest.hash});
    shard.lru.splice(shard.lru.begin(), shard.lru, std::prev(shard.lru.end()));
    Entry& e = shard.lru.front();
    e.key.assign(ids.begin(), ids.end());
    e.hash = key.hash;
    e.value.assign(vec, vec + dim);
    node.key() = KeyRef{&e.key, key.hash};
    node.mapped() = shard.lru.begin();
    shard.by_key.insert(std::move(node));
    ++shard.evictions;
    return;
  }
  shard.lru.emplace_front();
  Entry& e = shard.lru.front();
  e.key = ids;
  e.hash = key.hash;
  e.value.assign(vec, vec + dim);
  shard.by_key.emplace(KeyRef{&e.key, key.hash}, shard.lru.begin());
}

bool EmbeddingCache::Erase(const std::vector<int>& ids) {
  if (capacity_ == 0) return false;
  const KeyRef key = KeyOf(ids);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) return false;
  // The map entry first: its key points into the list entry.
  const auto entry = it->second;
  shard.by_key.erase(it);
  shard.lru.erase(entry);
  ++shard.erasures;
  return true;
}

void EmbeddingCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.by_key.clear();
    shard.lru.clear();
  }
}

EmbeddingCacheStats EmbeddingCache::stats() const {
  EmbeddingCacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard&>(shard).mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.erasures += shard.erasures;
    out.entries += shard.lru.size();
    for (const Entry& e : shard.lru) {
      out.bytes_resident +=
          e.key.size() * sizeof(int) + e.value.size() * sizeof(float);
    }
  }
  return out;
}

}  // namespace sudowoodo::index
