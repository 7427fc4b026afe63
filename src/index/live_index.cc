#include "index/live_index.h"

#include <string>
#include <utility>

namespace sudowoodo::index {

LiveBlockingIndex::LiveBlockingIndex(int dim,
                                     const BlockingIndexOptions& options,
                                     EmbeddingCache* cache)
    : cache_(cache) {
  SUDO_CHECK(dim > 0);
  index_ = std::make_unique<BlockingIndex>(nullptr, 0, dim, options);
}

void LiveBlockingIndex::EraseCacheKey(const std::vector<int>& key) {
  if (cache_ == nullptr || key.empty()) return;
  if (cache_->Erase(key)) ++cache_erasures_;
}

Status LiveBlockingIndex::Upsert(const LiveItem* items, const float* rows,
                                 int n, int dim) {
  if (n < 0) return Status::InvalidArgument("negative upsert count");
  if (n == 0) return Status::OK();
  if (items == nullptr || rows == nullptr) {
    return Status::InvalidArgument("null upsert buffer");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (dim != index_->dim()) {
    return Status::InvalidArgument(
        "upsert dim " + std::to_string(dim) + " != index dim " +
        std::to_string(index_->dim()));
  }
  for (int i = 0; i < n; ++i) {
    if (items[i].item_id < 0) {
      return Status::InvalidArgument("negative item id");
    }
    for (int j = 0; j < i; ++j) {
      if (items[j].item_id == items[i].item_id) {
        return Status::InvalidArgument(
            "item id " + std::to_string(items[i].item_id) +
            " appears twice in one upsert");
      }
    }
  }

  // Replacements first: drop every overwritten item's old row so the
  // index never holds two rows for one external id, then append the new
  // rows in arrival order (internal ids stay monotone with arrival,
  // which is the determinism contract's ordering).
  std::vector<int> stale_internal;
  for (int i = 0; i < n; ++i) {
    auto it = items_.find(items[i].item_id);
    if (it == items_.end()) continue;
    stale_internal.push_back(it->second.internal_id);
    // Invalidate only a *changed* serialization: re-upserting identical
    // content keeps the (still correct, content-keyed) cache entry.
    if (it->second.token_key != items[i].token_key) {
      EraseCacheKey(it->second.token_key);
    }
    ++replacements_;
  }
  if (!stale_internal.empty()) {
    SUDO_RETURN_IF_ERROR(index_->Remove(stale_internal.data(),
                                        static_cast<int>(
                                            stale_internal.size())));
    for (int internal : stale_internal) {
      external_by_internal_.erase(internal);
    }
  }
  const int first_internal = index_->next_id();
  SUDO_RETURN_IF_ERROR(index_->Insert(rows, n, dim));
  for (int i = 0; i < n; ++i) {
    const int internal = first_internal + i;
    items_[items[i].item_id] =
        ItemState{internal, items[i].token_key};
    external_by_internal_[internal] = items[i].item_id;
  }
  upserts_ += static_cast<uint64_t>(n);
  return Status::OK();
}

Status LiveBlockingIndex::Remove(const int* item_ids, int n) {
  if (n < 0) return Status::InvalidArgument("negative remove count");
  if (n == 0) return Status::OK();
  if (item_ids == nullptr) return Status::InvalidArgument("null remove ids");
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<int> internal(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto it = items_.find(item_ids[i]);
    if (it == items_.end()) {
      return Status::NotFound("item " + std::to_string(item_ids[i]) +
                              " not in live index");
    }
    internal[static_cast<size_t>(i)] = it->second.internal_id;
  }
  // The index validates duplicates-within-call atomically; only after it
  // commits do we drop the translation entries and cache keys.
  SUDO_RETURN_IF_ERROR(index_->Remove(internal.data(), n));
  for (int i = 0; i < n; ++i) {
    auto it = items_.find(item_ids[i]);
    EraseCacheKey(it->second.token_key);
    external_by_internal_.erase(it->second.internal_id);
    items_.erase(it);
  }
  removes_ += static_cast<uint64_t>(n);
  return Status::OK();
}

Status LiveBlockingIndex::QueryBatch(
    const float* queries, int n_queries, int dim, int k,
    std::vector<std::vector<Neighbor>>* out, int num_threads) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SUDO_RETURN_IF_ERROR(
      index_->QueryBatch(queries, n_queries, dim, k, out, num_threads));
  for (auto& row : *out) TranslateIds(&row);
  return Status::OK();
}

Status LiveBlockingIndex::Query(const float* query, int dim, int k,
                                std::vector<Neighbor>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SUDO_RETURN_IF_ERROR(index_->Query(query, dim, k, out));
  TranslateIds(out);
  return Status::OK();
}

void LiveBlockingIndex::TranslateIds(std::vector<Neighbor>* row) const {
  for (Neighbor& nb : *row) {
    const auto it = external_by_internal_.find(nb.id);
    // Every live internal id has a translation entry by construction.
    SUDO_CHECK(it != external_by_internal_.end());
    nb.id = it->second;
  }
}

bool LiveBlockingIndex::Contains(int item_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return items_.find(item_id) != items_.end();
}

int LiveBlockingIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_->size();
}

int LiveBlockingIndex::dim() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_->dim();
}

LiveIndexStats LiveBlockingIndex::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  LiveIndexStats s;
  s.upserts = upserts_;
  s.replacements = replacements_;
  s.removes = removes_;
  s.cache_erasures = cache_erasures_;
  s.live_items = index_->size();
  s.using_ivf = index_->using_ivf();
  s.retrains = index_->retrain_count();
  s.index_bytes_resident = index_->bytes_resident();
  return s;
}

}  // namespace sudowoodo::index
