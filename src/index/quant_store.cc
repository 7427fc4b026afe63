#include "index/quant_store.h"

#include <algorithm>
#include <string>

#include "common/status.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

void QuantRowStore::Reset(int dim, IndexStorage mode) {
  SUDO_CHECK(dim >= 0);
  dim_ = dim;
  n_ = 0;
  mode_ = mode;
  f_.clear();
  q_.clear();
  scale_.clear();
}

void QuantRowStore::Reserve(int n) {
  if (int8_mode()) {
    q_.reserve(static_cast<size_t>(n) * dim_);
    scale_.reserve(static_cast<size_t>(n));
  } else {
    f_.reserve(ks::PackedFloats(n, dim_));
  }
}

void QuantRowStore::Append(const float* rows, int n) {
  SUDO_CHECK(n >= 0 && (n == 0 || rows != nullptr));
  const int old = n_;
  ResizeRows(old + n);
  if (int8_mode()) {
    ks::QuantizeRowsI8(n, dim_, rows, q_.data() + static_cast<size_t>(old) * dim_,
                       scale_.data() + old);
  } else {
    ks::PackRows(n, dim_, rows, old, f_.data());
  }
}

void QuantRowStore::AppendFrom(const QuantRowStore& src, int src_pos) {
  const int dst = n_;
  ResizeRows(n_ + 1);
  PlaceFrom(src, src_pos, dst);
}

void QuantRowStore::ResizeRows(int n) {
  SUDO_CHECK(n >= 0);
  const int old = n_;
  n_ = n;
  if (int8_mode()) {
    q_.resize(static_cast<size_t>(n) * dim_);
    scale_.resize(static_cast<size_t>(n));
  } else {
    f_.resize(ks::PackedFloats(n, dim_));
    // A shrink leaves dropped rows in the last kept panel: zero them, so
    // the padding rows are zero whatever the history.
    const int kept_rows = static_cast<int>(ks::PackedFloats(n, 1));
    for (int r = n; r < std::min(old, kept_rows); ++r) {
      const size_t at = ks::PackedRowOffset(r, dim_);
      for (int l = 0; l < dim_; ++l) {
        f_[at + static_cast<size_t>(l) * ks::kPackedPanelRows] = 0.0f;
      }
    }
  }
}

void QuantRowStore::PlaceFrom(const QuantRowStore& src, int src_pos,
                              int dst_pos) {
  SUDO_CHECK(src.dim_ == dim_ && src.mode_ == mode_);
  SUDO_CHECK(src_pos >= 0 && src_pos < src.n_ && dst_pos >= 0 &&
             dst_pos < n_);
  if (int8_mode()) {
    std::copy(src.q_.begin() + static_cast<size_t>(src_pos) * dim_,
              src.q_.begin() + static_cast<size_t>(src_pos + 1) * dim_,
              q_.begin() + static_cast<size_t>(dst_pos) * dim_);
    scale_[static_cast<size_t>(dst_pos)] =
        src.scale_[static_cast<size_t>(src_pos)];
  } else {
    const size_t from = ks::PackedRowOffset(src_pos, dim_);
    const size_t to = ks::PackedRowOffset(dst_pos, dim_);
    for (int l = 0; l < dim_; ++l) {
      const size_t step = static_cast<size_t>(l) * ks::kPackedPanelRows;
      f_[to + step] = src.f_[from + step];
    }
  }
}

void QuantRowStore::MoveRow(int from, int to) {
  if (from == to) return;
  PlaceFrom(*this, from, to);
}

void QuantRowStore::Truncate(int n) {
  SUDO_CHECK(n >= 0 && n <= n_);
  ResizeRows(n);
}

const float* QuantRowStore::panels() const {
  SUDO_CHECK(!int8_mode());
  return f_.data();
}

const int8_t* QuantRowStore::q_data() const {
  SUDO_CHECK(int8_mode());
  return q_.data();
}

const float* QuantRowStore::scales() const {
  SUDO_CHECK(int8_mode());
  return scale_.data();
}

void QuantRowStore::DequantizeRowInto(int pos, float* out) const {
  SUDO_CHECK(pos >= 0 && pos < n_);
  if (int8_mode()) {
    ks::DequantizeRowsI8(1, dim_, q_.data() + static_cast<size_t>(pos) * dim_,
                         scale_.data() + pos, out);
  } else {
    ks::UnpackRow(dim_, f_.data(), pos, out);
  }
}

size_t QuantRowStore::bytes_resident() const {
  if (int8_mode()) {
    return static_cast<size_t>(n_) * dim_ * sizeof(int8_t) +
           static_cast<size_t>(n_) * sizeof(float);
  }
  return ks::PackedFloats(n_, dim_) * sizeof(float);
}

RowSet::RowSet(int dim, IndexStorage mode, int tables)
    : dim_(dim), mode_(mode), tables_(static_cast<size_t>(tables)) {
  for (Table& t : tables_) t.store.Reset(dim, mode);
}

void RowSet::Append(int t, const float* rows, int n, const int* ids) {
  Table& table = tables_[static_cast<size_t>(t)];
  table.store.Append(rows, n);
  // A bulk load sizes the id list and the id map once. Later appends
  // push_back, which grows geometrically; reserving the exact new size
  // there would copy the whole id list on every one-row insert.
  if (table.ids.empty()) table.ids.reserve(static_cast<size_t>(n));
  if (where_.empty()) where_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int id = ids != nullptr ? ids[i] : next_id_;
    SUDO_CHECK(id >= next_id_);
    where_.emplace(id, RowRef{t, static_cast<int>(table.ids.size())});
    table.ids.push_back(id);
    next_id_ = id + 1;
  }
  table.live += n;
  stored_ += n;
}

Status RowSet::Remove(const int* ids, int n, float compact_fraction) {
  if (n < 0) return Status::InvalidArgument("negative remove count");
  if (n == 0) return Status::OK();
  if (ids == nullptr) return Status::InvalidArgument("null remove ids");
  // Validate the whole batch first so a NotFound removes nothing
  // (duplicates within one call count as unknown on the second hit).
  for (int i = 0; i < n; ++i) {
    if (where_.find(ids[i]) == where_.end()) {
      return Status::NotFound("id " + std::to_string(ids[i]) +
                              " not in index");
    }
    for (int j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) {
        return Status::NotFound("id " + std::to_string(ids[i]) +
                                " removed twice in one call");
      }
    }
  }
  std::vector<int> touched(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto it = where_.find(ids[i]);
    Table& table = tables_[static_cast<size_t>(it->second.table)];
    table.ids[static_cast<size_t>(it->second.pos)] = -1;
    --table.live;
    touched[static_cast<size_t>(i)] = it->second.table;
    where_.erase(it);
  }
  for (int t : touched) CompactIfNeeded(t, compact_fraction);
  return Status::OK();
}

void RowSet::CompactIfNeeded(int t, float compact_fraction) {
  Table& table = tables_[static_cast<size_t>(t)];
  const int stored = static_cast<int>(table.ids.size());
  const int dead = stored - table.live;
  if (dead == 0 || static_cast<float>(dead) <=
                       compact_fraction * static_cast<float>(stored)) {
    return;
  }
  // Stable erase: live rows keep their relative (ascending-id) order, so
  // compaction is invisible to query results.
  int w = 0;
  for (int pos = 0; pos < stored; ++pos) {
    const int id = table.ids[static_cast<size_t>(pos)];
    if (id < 0) continue;
    if (w != pos) {
      table.store.MoveRow(pos, w);
      table.ids[static_cast<size_t>(w)] = id;
    }
    where_[id].pos = w;
    ++w;
  }
  table.store.Truncate(w);
  table.ids.resize(static_cast<size_t>(w));
  stored_ -= dead;
}

std::vector<std::pair<int, RowRef>> RowSet::LiveInIdOrder() const {
  // Ascending-id order, not storage order: what is built from it depends
  // only on the live (row, id) set, never on the table layout history.
  std::vector<std::pair<int, RowRef>> live;
  live.reserve(where_.size());
  for (int t = 0; t < num_tables(); ++t) {
    const Table& table = tables_[static_cast<size_t>(t)];
    for (int pos = 0; pos < static_cast<int>(table.ids.size()); ++pos) {
      const int id = table.ids[static_cast<size_t>(pos)];
      if (id >= 0) live.push_back({id, RowRef{t, pos}});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return live;
}

void RowSet::ExportLive(std::vector<float>* rows, std::vector<int>* ids) const {
  const auto live = LiveInIdOrder();
  rows->resize(live.size() * static_cast<size_t>(dim_));
  ids->clear();
  ids->reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const RowRef at = live[i].second;
    tables_[static_cast<size_t>(at.table)].store.DequantizeRowInto(
        at.pos, rows->data() + i * static_cast<size_t>(dim_));
    ids->push_back(live[i].first);
  }
}

RowSet RowSet::Repartition(const std::vector<int>& table_of,
                           int tables) const {
  const auto live = LiveInIdOrder();
  SUDO_CHECK(table_of.size() == live.size());
  RowSet out(dim_, mode_, tables);
  std::vector<int> counts(static_cast<size_t>(tables), 0);
  for (int t : table_of) ++counts[static_cast<size_t>(t)];
  for (int t = 0; t < tables; ++t) {
    out.tables_[static_cast<size_t>(t)].store.Reserve(
        counts[static_cast<size_t>(t)]);
    out.tables_[static_cast<size_t>(t)].ids.reserve(
        static_cast<size_t>(counts[static_cast<size_t>(t)]));
  }
  out.where_.reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const auto& [id, at] = live[i];
    const int t = table_of[i];
    Table& dst = out.tables_[static_cast<size_t>(t)];
    out.where_.emplace(id, RowRef{t, static_cast<int>(dst.ids.size())});
    dst.ids.push_back(id);
    ++dst.live;
    // Verbatim (codes, scale) move - a layout change never re-quantizes.
    dst.store.AppendFrom(tables_[static_cast<size_t>(at.table)].store,
                         at.pos);
  }
  out.stored_ = static_cast<int>(live.size());
  out.next_id_ = next_id_;
  return out;
}

size_t RowSet::bytes_resident() const {
  size_t bytes = 0;
  for (const Table& t : tables_) {
    bytes += t.store.bytes_resident() + t.ids.size() * sizeof(int);
  }
  return bytes;
}

}  // namespace sudowoodo::index
