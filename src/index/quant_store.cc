#include "index/quant_store.h"

#include <algorithm>

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
    f_.reserve(static_cast<size_t>(n) * dim_);
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
    std::copy(rows, rows + static_cast<size_t>(n) * dim_,
              f_.begin() + static_cast<size_t>(old) * dim_);
  }
}

void QuantRowStore::AppendFrom(const QuantRowStore& src, int src_pos) {
  const int dst = n_;
  ResizeRows(n_ + 1);
  PlaceFrom(src, src_pos, dst);
}

void QuantRowStore::ResizeRows(int n) {
  SUDO_CHECK(n >= 0);
  n_ = n;
  if (int8_mode()) {
    q_.resize(static_cast<size_t>(n) * dim_);
    scale_.resize(static_cast<size_t>(n));
  } else {
    f_.resize(static_cast<size_t>(n) * dim_);
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
    std::copy(src.f_.begin() + static_cast<size_t>(src_pos) * dim_,
              src.f_.begin() + static_cast<size_t>(src_pos + 1) * dim_,
              f_.begin() + static_cast<size_t>(dst_pos) * dim_);
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

const float* QuantRowStore::fp32_data() const {
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
    std::copy(f_.begin() + static_cast<size_t>(pos) * dim_,
              f_.begin() + static_cast<size_t>(pos + 1) * dim_, out);
  }
}

void QuantRowStore::DequantizeAllInto(float* out) const {
  if (int8_mode()) {
    ks::DequantizeRowsI8(n_, dim_, q_.data(), scale_.data(), out);
  } else {
    std::copy(f_.begin(), f_.end(), out);
  }
}

size_t QuantRowStore::bytes_resident() const {
  if (int8_mode()) {
    return static_cast<size_t>(n_) * dim_ * sizeof(int8_t) +
           static_cast<size_t>(n_) * sizeof(float);
  }
  return static_cast<size_t>(n_) * dim_ * sizeof(float);
}

}  // namespace sudowoodo::index
