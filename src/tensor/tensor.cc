#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/kernels.h"

namespace sudowoodo::tensor {

namespace {

thread_local int g_no_grad_depth = 0;

std::shared_ptr<TensorImpl> NewNode(int rows, int cols) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value.assign(static_cast<size_t>(rows) * cols, 0.0f);
  return impl;
}

bool AnyRequiresGrad(
    const std::vector<std::shared_ptr<TensorImpl>>& parents) {
  if (!GradEnabled()) return false;
  for (const auto& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

/// Wires autograd metadata into `out` if any parent participates in the
/// graph. `fn` must add into each parent's grad buffer.
void Attach(const std::shared_ptr<TensorImpl>& out,
            std::vector<std::shared_ptr<TensorImpl>> parents,
            std::function<void()> fn) {
  if (!AnyRequiresGrad(parents)) return;
  out->requires_grad = true;
  out->parents = std::move(parents);
  out->backward_fn = std::move(fn);
}

}  // namespace

Tensor WrapNode(std::shared_ptr<TensorImpl> impl) {
  return Tensor(std::move(impl));
}

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }
bool GradEnabled() { return g_no_grad_depth == 0; }

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  auto impl = NewNode(rows, cols);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGrad();
  return WrapNode(impl);
}

Tensor Tensor::Constant(int rows, int cols, float v) {
  auto impl = NewNode(rows, cols);
  std::fill(impl->value.begin(), impl->value.end(), v);
  return WrapNode(impl);
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data,
                        bool requires_grad) {
  SUDO_CHECK(data.size() == static_cast<size_t>(rows) * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGrad();
  return WrapNode(impl);
}

Tensor Tensor::Randn(int rows, int cols, float stddev, Rng* rng,
                     bool requires_grad) {
  auto impl = NewNode(rows, cols);
  for (auto& v : impl->value) {
    v = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGrad();
  return WrapNode(impl);
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float v : impl_->value) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

void Backward(const Tensor& loss) {
  SUDO_CHECK(loss.rows() == 1 && loss.cols() == 1);
  TensorImpl* root = loss.impl().get();
  if (!root->requires_grad) return;

  // Iterative postorder DFS to topologically order the graph.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      TensorImpl* p = node->parents[idx].get();
      ++idx;
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  for (TensorImpl* n : order) n->EnsureGrad();
  root->grad[0] = 1.0f;

  // `order` is postorder, so reverse iteration visits consumers before
  // producers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

// --------------------------------------------------------------------------
// Ops
// --------------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMul(a, b, /*pool=*/nullptr, /*num_shards=*/1);
}

Tensor MatMul(const Tensor& a, const Tensor& b, ThreadPool* pool,
              int num_shards) {
  SUDO_CHECK(a.cols() == b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  auto out = NewNode(m, n);
  kernels::Gemm(m, n, k, a.data(), b.data(), out->value.data(), pool,
                num_shards);
  auto ai = a.impl(), bi = b.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, bi}, [ai, bi, o, m, k, n, pool, num_shards]() {
    const float* g = o->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      // dA[m,k] += dC[m,n] * B[k,n]^T
      kernels::GemmBT(m, k, n, g, bi->value.data(), ai->grad.data(), pool,
                      num_shards);
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      // dB[k,n] += A[m,k]^T * dC[m,n]
      kernels::GemmAT(k, n, m, ai->value.data(), g, bi->grad.data(), pool,
                      num_shards);
    }
  });
  return WrapNode(out);
}

Tensor MatMulBT(const Tensor& a, const Tensor& b) {
  SUDO_CHECK(a.cols() == b.cols());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  auto out = NewNode(m, n);
  kernels::GemmBT(m, n, k, a.data(), b.data(), out->value.data());
  auto ai = a.impl(), bi = b.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, bi}, [ai, bi, o, m, k, n]() {
    const float* g = o->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      // dA[m,k] += dC[m,n] * B[n,k]
      kernels::Gemm(m, k, n, g, bi->value.data(), ai->grad.data());
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      // dB[n,k] += dC[m,n]^T * A[m,k]
      kernels::GemmAT(n, k, m, g, ai->value.data(), bi->grad.data());
    }
  });
  return WrapNode(out);
}

Tensor MatMulAT(const Tensor& a, const Tensor& b) {
  SUDO_CHECK(a.rows() == b.rows());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  auto out = NewNode(m, n);
  kernels::GemmAT(m, n, k, a.data(), b.data(), out->value.data());
  auto ai = a.impl(), bi = b.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, bi}, [ai, bi, o, m, k, n]() {
    const float* g = o->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      // dA[k,m] += B[k,n] * dC[m,n]^T
      kernels::GemmBT(k, m, n, bi->value.data(), g, ai->grad.data());
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      // dB[k,n] += A[k,m] * dC[m,n]
      kernels::Gemm(k, n, m, ai->value.data(), g, bi->grad.data());
    }
  });
  return WrapNode(out);
}

namespace {
template <typename FwdFn, typename BwdFn>
Tensor Elementwise2(const Tensor& a, const Tensor& b, FwdFn fwd, BwdFn bwd) {
  SUDO_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto out = NewNode(a.rows(), a.cols());
  const size_t sz = out->size();
  for (size_t i = 0; i < sz; ++i) {
    out->value[i] = fwd(a.data()[i], b.data()[i]);
  }
  auto ai = a.impl(), bi = b.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, bi}, [ai, bi, o, bwd, sz]() {
    for (size_t i = 0; i < sz; ++i) {
      float da = 0.0f, db = 0.0f;
      bwd(ai->value[i], bi->value[i], o->grad[i], &da, &db);
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ai->grad[i] += da;
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        bi->grad[i] += db;
      }
    }
  });
  return WrapNode(out);
}

template <typename FwdFn, typename BwdFn>
Tensor Elementwise1(const Tensor& a, FwdFn fwd, BwdFn bwd) {
  auto out = NewNode(a.rows(), a.cols());
  const size_t sz = out->size();
  for (size_t i = 0; i < sz; ++i) out->value[i] = fwd(a.data()[i]);
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, bwd, sz]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < sz; ++i) {
      ai->grad[i] += bwd(ai->value[i], o->value[i]) * o->grad[i];
    }
  });
  return WrapNode(out);
}
}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Elementwise2(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float g, float* da, float* db) {
        *da = g;
        *db = g;
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Elementwise2(
      a, b, [](float x, float y) { return x - y; },
      [](float, float, float g, float* da, float* db) {
        *da = g;
        *db = -g;
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Elementwise2(
      a, b, [](float x, float y) { return x * y; },
      [](float x, float y, float g, float* da, float* db) {
        *da = g * y;
        *db = g * x;
      });
}

Tensor Scale(const Tensor& a, float s) {
  return Elementwise1(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  SUDO_CHECK(row.rows() == 1 && row.cols() == a.cols());
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out->value[static_cast<size_t>(i) * n + j] = a.at(i, j) + row.at(0, j);
    }
  }
  auto ai = a.impl(), ri = row.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, ri}, [ai, ri, o, m, n]() {
    if (ai->requires_grad) {
      ai->EnsureGrad();
      for (size_t i = 0; i < o->size(); ++i) ai->grad[i] += o->grad[i];
    }
    if (ri->requires_grad) {
      ri->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ri->grad[j] += o->grad[static_cast<size_t>(i) * n + j];
        }
      }
    }
  });
  return WrapNode(out);
}

Tensor Transpose(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(n, m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out->value[static_cast<size_t>(j) * m + i] = a.at(i, j);
    }
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        ai->grad[static_cast<size_t>(i) * n + j] +=
            o->grad[static_cast<size_t>(j) * m + i];
      }
    }
  });
  return WrapNode(out);
}

Tensor Abs(const Tensor& a) {
  return Elementwise1(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Tensor Relu(const Tensor& a) {
  return Elementwise1(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation of GELU. The forward is one call into
  // kernels::GeluForward - the same compiled float chain the workspace
  // inference paths run - so graph and graph-free GELU are bit-identical.
  // The backward is kernels::GeluBackward, in its own expression order.
  auto out = NewNode(a.rows(), a.cols());
  const int sz = static_cast<int>(out->size());
  kernels::GeluForward(sz, a.data(), out->value.data());
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, sz]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    kernels::GeluBackward(sz, ai->value.data(), o->grad.data(),
                          ai->grad.data());
  });
  return WrapNode(out);
}

Tensor DropoutAt(const Tensor& a, float p, const std::vector<uint64_t>& keys,
                 int rows_per_key, bool training) {
  if (!training || p <= 0.0f) return a;
  SUDO_CHECK(p < 1.0f);
  SUDO_CHECK(rows_per_key > 0);
  const int m = a.rows(), n = a.cols();
  SUDO_CHECK(static_cast<int>(keys.size()) * rows_per_key >= m);
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(a.size());
  for (int i = 0; i < m; ++i) {
    const CounterRng stream(
        keys[static_cast<size_t>(i / rows_per_key)]);
    const uint64_t base =
        static_cast<uint64_t>(i % rows_per_key) * static_cast<uint64_t>(n);
    float* mrow = mask->data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      mrow[j] = stream.BernoulliAt(base + static_cast<uint64_t>(j), p)
                    ? 0.0f
                    : scale;
    }
  }
  auto out = NewNode(m, n);
  for (size_t i = 0; i < a.size(); ++i) {
    out->value[i] = a.data()[i] * (*mask)[i];
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, mask]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o->size(); ++i) {
      ai->grad[i] += o->grad[i] * (*mask)[i];
    }
  });
  return WrapNode(out);
}

namespace {
/// Shared body of ConcatRows/JoinRows; `ascending_backward` reverses the
/// autograd parent listing so the backward DFS sweeps part subgraphs in
/// ascending part order (the grad scatter itself is order-free - each
/// part owns disjoint output rows).
Tensor ConcatRowsImpl(const std::vector<Tensor>& parts,
                      bool ascending_backward) {
  SUDO_CHECK(!parts.empty());
  const int n = parts[0].cols();
  int m = 0;
  for (const auto& p : parts) {
    SUDO_CHECK(p.cols() == n);
    m += p.rows();
  }
  auto out = NewNode(m, n);
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  int r = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(),
              out->value.data() + static_cast<size_t>(r) * n);
    r += p.rows();
    impls.push_back(p.impl());
  }
  TensorImpl* o = out.get();
  auto parents = impls;
  if (ascending_backward) std::reverse(parents.begin(), parents.end());
  Attach(out, std::move(parents), [impls, o, n]() {
    int r = 0;
    for (const auto& pi : impls) {
      if (pi->requires_grad) {
        pi->EnsureGrad();
        const float* g = o->grad.data() + static_cast<size_t>(r) * n;
        for (size_t i = 0; i < pi->size(); ++i) pi->grad[i] += g[i];
      }
      r += pi->rows;
    }
  });
  return WrapNode(out);
}
}  // namespace

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  return ConcatRowsImpl(parts, /*ascending_backward=*/false);
}

Tensor JoinRows(const std::vector<Tensor>& parts) {
  return ConcatRowsImpl(parts, /*ascending_backward=*/true);
}

Tensor PadPackRows(const std::vector<Tensor>& parts, int t) {
  SUDO_CHECK(!parts.empty() && t > 0);
  const int n = parts[0].cols();
  const int b = static_cast<int>(parts.size());
  auto out = NewNode(b * t, n);  // NewNode zero-fills: padding is exact 0
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (int i = 0; i < b; ++i) {
    SUDO_CHECK(parts[static_cast<size_t>(i)].cols() == n);
    SUDO_CHECK(parts[static_cast<size_t>(i)].rows() <= t);
    std::copy(parts[static_cast<size_t>(i)].data(),
              parts[static_cast<size_t>(i)].data() +
                  parts[static_cast<size_t>(i)].size(),
              out->value.data() + static_cast<size_t>(i) * t * n);
    impls.push_back(parts[static_cast<size_t>(i)].impl());
  }
  TensorImpl* o = out.get();
  auto parents = impls;
  std::reverse(parents.begin(), parents.end());
  Attach(out, std::move(parents), [impls, o, t, n]() {
    for (size_t i = 0; i < impls.size(); ++i) {
      const auto& pi = impls[i];
      if (!pi->requires_grad) continue;
      pi->EnsureGrad();
      const float* g = o->grad.data() + i * static_cast<size_t>(t) * n;
      for (size_t j = 0; j < pi->size(); ++j) pi->grad[j] += g[j];
    }
  });
  return WrapNode(out);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  SUDO_CHECK(!parts.empty());
  const int m = parts[0].rows();
  int n = 0;
  for (const auto& p : parts) {
    SUDO_CHECK(p.rows() == m);
    n += p.cols();
  }
  auto out = NewNode(m, n);
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  int c = 0;
  for (const auto& p : parts) {
    for (int i = 0; i < m; ++i) {
      std::copy(p.data() + static_cast<size_t>(i) * p.cols(),
                p.data() + static_cast<size_t>(i + 1) * p.cols(),
                out->value.data() + static_cast<size_t>(i) * n + c);
    }
    c += p.cols();
    impls.push_back(p.impl());
  }
  TensorImpl* o = out.get();
  auto parents = impls;
  Attach(out, std::move(parents), [impls, o, m, n]() {
    int c = 0;
    for (const auto& pi : impls) {
      if (pi->requires_grad) {
        pi->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          const float* g = o->grad.data() + static_cast<size_t>(i) * n + c;
          float* dst = pi->grad.data() + static_cast<size_t>(i) * pi->cols;
          for (int j = 0; j < pi->cols; ++j) dst[j] += g[j];
        }
      }
      c += pi->cols;
    }
  });
  return WrapNode(out);
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  SUDO_CHECK(start >= 0 && len > 0 && start + len <= a.cols());
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, len);
  for (int i = 0; i < m; ++i) {
    std::copy(a.data() + static_cast<size_t>(i) * n + start,
              a.data() + static_cast<size_t>(i) * n + start + len,
              out->value.data() + static_cast<size_t>(i) * len);
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, start, len, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* g = o->grad.data() + static_cast<size_t>(i) * len;
      float* dst = ai->grad.data() + static_cast<size_t>(i) * n + start;
      for (int j = 0; j < len; ++j) dst[j] += g[j];
    }
  });
  return WrapNode(out);
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  SUDO_CHECK(start >= 0 && len > 0 && start + len <= a.rows());
  const int n = a.cols();
  auto out = NewNode(len, n);
  std::copy(a.data() + static_cast<size_t>(start) * n,
            a.data() + static_cast<size_t>(start + len) * n,
            out->value.data());
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, start, len, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = o->grad.data();
    float* dst = ai->grad.data() + static_cast<size_t>(start) * n;
    for (size_t i = 0; i < static_cast<size_t>(len) * n; ++i) dst[i] += g[i];
  });
  return WrapNode(out);
}

Tensor GatherRows(const Tensor& table, const std::vector<int>& ids) {
  const int n = table.cols();
  auto out = NewNode(static_cast<int>(ids.size()), n);
  for (size_t i = 0; i < ids.size(); ++i) {
    SUDO_CHECK(ids[i] >= 0 && ids[i] < table.rows());
    std::copy(table.data() + static_cast<size_t>(ids[i]) * n,
              table.data() + static_cast<size_t>(ids[i] + 1) * n,
              out->value.data() + i * n);
  }
  auto ti = table.impl();
  TensorImpl* o = out.get();
  auto ids_copy = std::make_shared<std::vector<int>>(ids);
  Attach(out, {ti}, [ti, o, ids_copy, n]() {
    if (!ti->requires_grad) return;
    ti->EnsureGrad();
    for (size_t i = 0; i < ids_copy->size(); ++i) {
      const float* g = o->grad.data() + i * n;
      float* dst = ti->grad.data() + static_cast<size_t>((*ids_copy)[i]) * n;
      for (int j = 0; j < n; ++j) dst[j] += g[j];
    }
  });
  return WrapNode(out);
}

Tensor RowMean(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, 1);
  for (int i = 0; i < m; ++i) {
    float s = 0.0f;
    for (int j = 0; j < n; ++j) s += a.at(i, j);
    out->value[static_cast<size_t>(i)] = s / n;
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float g = o->grad[static_cast<size_t>(i)] / n;
      float* dst = ai->grad.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) dst[j] += g;
    }
  });
  return WrapNode(out);
}

Tensor BagPairFeatures(const Tensor& table, std::vector<int> ids,
                       std::vector<int> offsets, std::vector<int> splits,
                       std::vector<float> mask) {
  const int n = static_cast<int>(splits.size()), d = table.cols();
  SUDO_CHECK(n > 0 && offsets.size() == splits.size() + 1 &&
             offsets[0] == 0 && offsets.back() == static_cast<int>(ids.size()));
  SUDO_CHECK(mask.empty() || mask.size() == ids.size() * d);
  for (size_t i = 0; i < splits.size(); ++i) {
    const int len = offsets[i + 1] - offsets[i], s = splits[i];
    SUDO_CHECK(len >= 1 && (s == -1 || (s > 0 && s + 1 < len)));
  }
  for (int id : ids) SUDO_CHECK(id >= 0 && id < table.rows());
  auto out = NewNode(n, 4 * d);
  kernels::BagPairFeatures(n, d, table.data(), ids.data(), offsets.data(),
                           splits.data(), mask.empty() ? nullptr : mask.data(),
                           out->value.data());
  struct Rows {
    std::vector<int> ids, offsets, splits;
    std::vector<float> mask;
  };
  auto rows = std::make_shared<Rows>(Rows{std::move(ids), std::move(offsets),
                                          std::move(splits), std::move(mask)});
  auto ti = table.impl();
  TensorImpl* o = out.get();
  Attach(out, {ti}, [ti, o, rows, n, d]() {
    if (!ti->requires_grad) return;
    ti->EnsureGrad();
    const Rows& rs = *rows;
    // Adds positions [r0, r1)'s emb grads, 0 + q, or 0 + ((0 + q) * m)
    // through the cutoff mask, into their table rows, positions
    // ascending: what a segment mean's backward, the mask Mul's and
    // GatherRows' scatter add in the per-row chain.
    auto scatter = [&](int r0, int r1, int j0, int w, const float* q) {
      for (int r = r0; r < r1; ++r) {
        float* dst = ti->grad.data() + static_cast<size_t>(rs.ids[r]) * d + j0;
        if (rs.mask.empty()) {
          for (int j = 0; j < w; ++j) dst[j] += 0.0f + q[j];
        } else {
          const float* m = rs.mask.data() + static_cast<size_t>(r) * d + j0;
          for (int j = 0; j < w; ++j) dst[j] += 0.0f + (0.0f + q[j]) * m[j];
        }
      }
    };
    // Rows ascending. m1's and m2's gradients accumulate in the order the
    // per-row subgraph's sweep adds into them - ConcatCols, then Mul, then
    // Abs -> Sub - and a one-segment row's m2 aliases m1, which takes
    // both halves of each; then q = (0 + g) / count. The separator's
    // position would add +0, which changes only a -0, and a table grad
    // never holds -0 (ZeroGrad writes +0; a sum is -0 only when both
    // operands are), so it is skipped. Quotients go in 64-column stack
    // chunks; every grad element still sees its adds in (row, position)
    // order.
    constexpr int kChunk = 64;
    float q1[kChunk], q2[kChunk];
    for (int i = 0; i < n; ++i) {
      const int begin = rs.offsets[i], len = rs.offsets[i + 1] - begin;
      const int s = rs.splits[i];
      const float* g = o->grad.data() + static_cast<size_t>(i) * 4 * d;
      const float* a = o->value.data() + static_cast<size_t>(i) * 4 * d;
      const float* c = a + d;
      for (int j0 = 0; j0 < d; j0 += kChunk) {
        const int w = std::min(kChunk, d - j0);
        for (int k = 0; k < w; ++k) {
          const int j = j0 + k;
          const float g0 = g[j], g1 = g[d + j], g3 = g[3 * d + j];
          const float gs =
              0.0f + (a[j] - c[j] >= 0.0f ? 1.0f : -1.0f) * g[2 * d + j];
          if (s >= 0) {
            const float ga = ((0.0f + g0) + g3 * c[j]) + gs;
            const float gc = ((0.0f + g1) + g3 * a[j]) + -gs;
            q1[k] = (0.0f + ga) / static_cast<float>(s);
            q2[k] = (0.0f + gc) / static_cast<float>(len - s - 1);
          } else {
            const float ga =
                (((((0.0f + g0) + g1) + g3 * a[j]) + g3 * a[j]) + gs) + -gs;
            q1[k] = (0.0f + ga) / static_cast<float>(len);
          }
        }
        scatter(begin, begin + (s >= 0 ? s : len), j0, w, q1);
        if (s >= 0) scatter(begin + s + 1, begin + len, j0, w, q2);
      }
    }
  });
  return WrapNode(out);
}

Tensor SumAll(const Tensor& a) {
  auto out = NewNode(1, 1);
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a.data()[i];
  out->value[0] = static_cast<float>(s);
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = o->grad[0];
    for (size_t i = 0; i < ai->size(); ++i) ai->grad[i] += g;
  });
  return WrapNode(out);
}

Tensor MeanAll(const Tensor& a) {
  return Scale(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

Tensor RowSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, n);
  kernels::RowSoftmax(m, n, a.data(), out->value.data());
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* y = o->value.data() + static_cast<size_t>(i) * n;
      const float* gy = o->grad.data() + static_cast<size_t>(i) * n;
      const float dot = kernels::Dot(y, gy, n);
      float* gx = ai->grad.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) gx[j] += y[j] * (gy[j] - dot);
    }
  });
  return WrapNode(out);
}

Tensor RowSoftmaxMasked(const Tensor& a, const std::vector<int>& valid) {
  const int m = a.rows(), n = a.cols();
  SUDO_CHECK(static_cast<int>(valid.size()) == m);
  auto out = NewNode(m, n);
  kernels::RowSoftmaxMasked(m, n, a.data(), valid.data(), out->value.data());
  auto ai = a.impl();
  TensorImpl* o = out.get();
  auto v = std::make_shared<std::vector<int>>(valid);
  Attach(out, {ai}, [ai, o, v, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const int len = (*v)[static_cast<size_t>(i)];
      const float* y = o->value.data() + static_cast<size_t>(i) * n;
      const float* gy = o->grad.data() + static_cast<size_t>(i) * n;
      // The y·gy reduction runs over the valid prefix only, so it is the
      // same length (and rounding) as RowSoftmax's backward on an
      // unpadded [*, len] row; padded columns get no gradient at all.
      const float dot = kernels::Dot(y, gy, len);
      float* gx = ai->grad.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < len; ++j) gx[j] += y[j] * (gy[j] - dot);
    }
  });
  return WrapNode(out);
}

Tensor LogRowSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, n);
  for (int i = 0; i < m; ++i) {
    const float* x = a.data() + static_cast<size_t>(i) * n;
    float* y = out->value.data() + static_cast<size_t>(i) * n;
    float mx = x[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, x[j]);
    float z = 0.0f;
    for (int j = 0; j < n; ++j) z += std::exp(x[j] - mx);
    const float lz = std::log(z) + mx;
    for (int j = 0; j < n; ++j) y[j] = x[j] - lz;
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* y = o->value.data() + static_cast<size_t>(i) * n;
      const float* gy = o->grad.data() + static_cast<size_t>(i) * n;
      float gsum = 0.0f;
      for (int j = 0; j < n; ++j) gsum += gy[j];
      float* gx = ai->grad.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) gx[j] += gy[j] - std::exp(y[j]) * gsum;
    }
  });
  return WrapNode(out);
}

Tensor LayerNormRows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                     float eps) {
  SUDO_CHECK(gamma.rows() == 1 && gamma.cols() == a.cols());
  SUDO_CHECK(beta.rows() == 1 && beta.cols() == a.cols());
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, n);
  auto xhat = std::make_shared<std::vector<float>>(a.size());
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(m));
  // One kernel call owns the layer-norm float chain; the workspace
  // inference paths call the same kernel, so graph and graph-free
  // layer-norm are bit-identical by construction.
  kernels::LayerNormRows(m, n, a.data(), gamma.data(), beta.data(), eps,
                         out->value.data(), xhat->data(), inv_std->data());
  auto ai = a.impl(), gi = gamma.impl(), bi = beta.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai, gi, bi}, [ai, gi, bi, o, xhat, inv_std, m, n]() {
    for (int i = 0; i < m; ++i) {
      const float* gy = o->grad.data() + static_cast<size_t>(i) * n;
      const float* xh = xhat->data() + static_cast<size_t>(i) * n;
      if (gi->requires_grad) {
        gi->EnsureGrad();
        for (int j = 0; j < n; ++j) gi->grad[j] += gy[j] * xh[j];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (int j = 0; j < n; ++j) bi->grad[j] += gy[j];
      }
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dxhat = gy * gamma; dx = istd*(dxhat - mean(dxhat) - xh*mean(dxhat*xh))
        float mean_dxh = 0.0f, mean_dxh_xh = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float dxh = gy[j] * gi->value[static_cast<size_t>(j)];
          mean_dxh += dxh;
          mean_dxh_xh += dxh * xh[j];
        }
        mean_dxh /= n;
        mean_dxh_xh /= n;
        const float istd = (*inv_std)[static_cast<size_t>(i)];
        float* gx = ai->grad.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float dxh = gy[j] * gi->value[static_cast<size_t>(j)];
          gx[j] += istd * (dxh - mean_dxh - xh[j] * mean_dxh_xh);
        }
      }
    }
  });
  return WrapNode(out);
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  const int m = a.rows(), n = a.cols();
  auto out = NewNode(m, n);
  auto inv_norm = std::make_shared<std::vector<float>>(static_cast<size_t>(m));
  kernels::L2NormRows(m, n, a.data(), inv_norm->data());
  for (int i = 0; i < m; ++i) {
    const float inv = 1.0f / ((*inv_norm)[static_cast<size_t>(i)] + eps);
    (*inv_norm)[static_cast<size_t>(i)] = inv;
    kernels::ScaleAdd(n, inv, a.data() + static_cast<size_t>(i) * n, 0.0f,
                      out->value.data() + static_cast<size_t>(i) * n);
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, inv_norm, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* y = o->value.data() + static_cast<size_t>(i) * n;
      const float* gy = o->grad.data() + static_cast<size_t>(i) * n;
      const float dot = kernels::Dot(y, gy, n);
      const float inv = (*inv_norm)[static_cast<size_t>(i)];
      float* gx = ai->grad.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) gx[j] += inv * (gy[j] - y[j] * dot);
    }
  });
  return WrapNode(out);
}

Tensor StandardizeCols(const Tensor& a, float eps) {
  const int m = a.rows(), n = a.cols();
  SUDO_CHECK(m > 1);
  auto out = NewNode(m, n);
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    float mean = 0.0f;
    for (int i = 0; i < m; ++i) mean += a.at(i, j);
    mean /= m;
    float var = 0.0f;
    for (int i = 0; i < m; ++i) {
      var += (a.at(i, j) - mean) * (a.at(i, j) - mean);
    }
    var /= m;
    const float istd = 1.0f / std::sqrt(var + eps);
    (*inv_std)[static_cast<size_t>(j)] = istd;
    for (int i = 0; i < m; ++i) {
      out->value[static_cast<size_t>(i) * n + j] = (a.at(i, j) - mean) * istd;
    }
  }
  auto ai = a.impl();
  TensorImpl* o = out.get();
  Attach(out, {ai}, [ai, o, inv_std, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int j = 0; j < n; ++j) {
      float mean_g = 0.0f, mean_g_xh = 0.0f;
      for (int i = 0; i < m; ++i) {
        const float g = o->grad[static_cast<size_t>(i) * n + j];
        const float xh = o->value[static_cast<size_t>(i) * n + j];
        mean_g += g;
        mean_g_xh += g * xh;
      }
      mean_g /= m;
      mean_g_xh /= m;
      const float istd = (*inv_std)[static_cast<size_t>(j)];
      for (int i = 0; i < m; ++i) {
        const float g = o->grad[static_cast<size_t>(i) * n + j];
        const float xh = o->value[static_cast<size_t>(i) * n + j];
        ai->grad[static_cast<size_t>(i) * n + j] +=
            istd * (g - mean_g - xh * mean_g_xh);
      }
    }
  });
  return WrapNode(out);
}

Tensor PickNegLogLikelihood(const Tensor& log_probs,
                            const std::vector<int>& targets) {
  const int m = log_probs.rows(), n = log_probs.cols();
  SUDO_CHECK(static_cast<int>(targets.size()) == m);
  auto out = NewNode(1, 1);
  double s = 0.0;
  for (int i = 0; i < m; ++i) {
    SUDO_CHECK(targets[static_cast<size_t>(i)] >= 0 &&
               targets[static_cast<size_t>(i)] < n);
    s -= log_probs.at(i, targets[static_cast<size_t>(i)]);
  }
  out->value[0] = static_cast<float>(s / m);
  auto li = log_probs.impl();
  TensorImpl* o = out.get();
  auto tgt = std::make_shared<std::vector<int>>(targets);
  Attach(out, {li}, [li, o, tgt, m, n]() {
    if (!li->requires_grad) return;
    li->EnsureGrad();
    const float g = o->grad[0] / static_cast<float>(m);
    for (int i = 0; i < m; ++i) {
      li->grad[static_cast<size_t>(i) * n + (*tgt)[static_cast<size_t>(i)]] -= g;
    }
  });
  return WrapNode(out);
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets) {
  return PickNegLogLikelihood(LogRowSoftmax(logits), targets);
}

Tensor BarlowTwinsLoss(const Tensor& c, float lambda) {
  SUDO_CHECK(c.rows() == c.cols());
  const int d = c.rows();
  auto out = NewNode(1, 1);
  double invariance = 0.0, redundancy = 0.0;
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) {
      const float v = c.at(i, j);
      if (i == j) {
        invariance += (1.0f - v) * (1.0f - v);
      } else {
        redundancy += static_cast<double>(v) * v;
      }
    }
  }
  out->value[0] = static_cast<float>(invariance + lambda * redundancy);
  auto ci = c.impl();
  TensorImpl* o = out.get();
  Attach(out, {ci}, [ci, o, lambda, d]() {
    if (!ci->requires_grad) return;
    ci->EnsureGrad();
    const float g = o->grad[0];
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        const size_t idx = static_cast<size_t>(i) * d + j;
        const float v = ci->value[idx];
        if (i == j) {
          ci->grad[idx] += g * (-2.0f * (1.0f - v));
        } else {
          ci->grad[idx] += g * (2.0f * lambda * v);
        }
      }
    }
  });
  return WrapNode(out);
}

float NumericGradient(const std::function<Tensor()>& f, Tensor x, int r, int c,
                      float eps) {
  const float orig = x.at(r, c);
  x.set(r, c, orig + eps);
  float up;
  {
    NoGradGuard ng;
    up = f().item();
  }
  x.set(r, c, orig - eps);
  float down;
  {
    NoGradGuard ng;
    down = f().item();
  }
  x.set(r, c, orig);
  return (up - down) / (2.0f * eps);
}

}  // namespace sudowoodo::tensor
