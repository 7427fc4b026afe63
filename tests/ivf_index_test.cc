// Tests for the dense k-means trainer and the blocking index
// (index/ivf_index.h): its IVF cells against its exact scan, and the kind
// that decides when it partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "cluster/dense_kmeans.h"
#include "common/rng.h"
#include "index/ivf_index.h"
#include "tensor/kernels.h"

namespace sudowoodo {
namespace {

using index::BlockingIndex;
using index::BlockingIndexKind;
using index::BlockingIndexOptions;
using index::IvfOptions;
using index::Neighbor;

// Clustered unit vectors: `n_clusters` random directions, each item is a
// cluster direction plus Gaussian noise, re-normalized. Mirrors what IVF
// sees in practice (contrastively trained embeddings cluster by entity).
std::vector<float> ClusteredUnitRows(int n, int dim, int n_clusters,
                                     float noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> centers(static_cast<size_t>(n_clusters) * dim);
  for (auto& v : centers) v = static_cast<float>(rng.Gaussian());
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    const float* c = centers.data() + static_cast<size_t>(i % n_clusters) * dim;
    float* r = rows.data() + static_cast<size_t>(i) * dim;
    double norm = 0.0;
    for (int j = 0; j < dim; ++j) {
      r[j] = c[j] + noise * static_cast<float>(rng.Gaussian());
      norm += static_cast<double>(r[j]) * r[j];
    }
    norm = std::sqrt(std::max(norm, 1e-20));
    for (int j = 0; j < dim; ++j) {
      r[j] = static_cast<float>(r[j] / norm);
    }
  }
  return rows;
}

void ExpectBitIdentical(const std::vector<std::vector<Neighbor>>& a,
                        const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t j = 0; j < a[q].size(); ++j) {
      EXPECT_EQ(a[q][j].id, b[q][j].id) << "query " << q << " rank " << j;
      // Bitwise, not approximate: the determinism contract.
      EXPECT_EQ(a[q][j].sim, b[q][j].sim) << "query " << q << " rank " << j;
    }
  }
}

/// The exact scan: an index that never partitions into cells.
BlockingIndexOptions Exact() {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kExact;
  return o;
}

/// An index partitioned into cells from its first row.
BlockingIndexOptions Ivf(const IvfOptions& ivf = {}) {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kIvf;
  o.ivf = ivf;
  return o;
}

/// Top-k of every row of `q`, probing the index's default nprobe.
std::vector<std::vector<Neighbor>> StatusQuery(const BlockingIndex& idx,
                                               const std::vector<float>& q,
                                               int dim, int k) {
  std::vector<std::vector<Neighbor>> out;
  const int nq = static_cast<int>(q.size()) / dim;
  EXPECT_TRUE(idx.QueryBatch(q.data(), nq, dim, k, &out).ok());
  return out;
}

/// IVF top-k of every row of `q`, probing `nprobe` cells.
std::vector<std::vector<Neighbor>> ProbeQuery(const BlockingIndex& ivf,
                                              const std::vector<float>& q,
                                              int dim, int k, int nprobe,
                                              int threads = 1) {
  std::vector<std::vector<Neighbor>> out;
  const int nq = static_cast<int>(q.size()) / dim;
  EXPECT_TRUE(ivf.QueryBatch(q.data(), nq, dim, k, nprobe, &out, threads).ok());
  return out;
}

double RecallAtK(const std::vector<std::vector<Neighbor>>& exact,
                 const std::vector<std::vector<Neighbor>>& approx) {
  double hit = 0.0;
  double total = 0.0;
  for (size_t q = 0; q < exact.size(); ++q) {
    std::set<int> found;
    for (const auto& nb : approx[q]) found.insert(nb.id);
    for (const auto& nb : exact[q]) {
      total += 1.0;
      hit += found.count(nb.id) ? 1.0 : 0.0;
    }
  }
  return total > 0 ? hit / total : 1.0;
}

TEST(IvfDenseKMeansTest, SeparatesClusteredRows) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(200, dim, 4, 0.02f, 11);
  cluster::DenseKMeansOptions opts;
  opts.k = 4;
  opts.max_iters = 10;
  auto res = cluster::DenseKMeans(rows.data(), 200, dim, opts);
  ASSERT_EQ(res.num_centroids, 4);
  ASSERT_EQ(res.assignments.size(), 200u);
  // Items generated from the same center must land in the same cell.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(res.assignments[static_cast<size_t>(i)],
              res.assignments[static_cast<size_t>(i % 4)])
        << "item " << i;
  }
  // Distinct centers get distinct cells (4 well-separated directions).
  std::set<int> cells(res.assignments.begin(), res.assignments.end());
  EXPECT_EQ(cells.size(), 4u);
  // Non-empty centroids are unit length.
  for (int c = 0; c < res.num_centroids; ++c) {
    const float* row = res.centroids.data() + static_cast<size_t>(c) * dim;
    double norm = 0.0;
    for (int j = 0; j < dim; ++j) norm += static_cast<double>(row[j]) * row[j];
    EXPECT_NEAR(norm, 1.0, 1e-4) << "centroid " << c;
  }
}

TEST(IvfDenseKMeansTest, BitIdenticalAcrossThreadCounts) {
  const int dim = 24;
  auto rows = ClusteredUnitRows(500, dim, 9, 0.1f, 23);
  cluster::DenseKMeansOptions base;
  base.k = 9;
  base.max_iters = 8;
  base.seed = 3;
  cluster::DenseKMeansResult ref;
  for (int threads : {1, 2, 4}) {
    cluster::DenseKMeansOptions opts = base;
    opts.num_threads = threads;
    auto res = cluster::DenseKMeans(rows.data(), 500, dim, opts);
    if (threads == 1) {
      ref = res;
      continue;
    }
    EXPECT_EQ(res.assignments, ref.assignments) << threads << " threads";
    EXPECT_EQ(res.centroids, ref.centroids) << threads << " threads";
    EXPECT_EQ(res.iterations_run, ref.iterations_run) << threads << " threads";
  }
}

TEST(IvfDenseKMeansTest, ClampsKAndHandlesTinyInputs) {
  const int dim = 8;
  auto rows = ClusteredUnitRows(3, dim, 3, 0.01f, 5);
  cluster::DenseKMeansOptions opts;
  opts.k = 100;  // > n: clamped to n
  auto res = cluster::DenseKMeans(rows.data(), 3, dim, opts);
  EXPECT_EQ(res.num_centroids, 3);
  EXPECT_EQ(res.assignments.size(), 3u);

  auto empty = cluster::DenseKMeans(rows.data(), 0, dim, opts);
  EXPECT_EQ(empty.num_centroids, 0);
  EXPECT_TRUE(empty.assignments.empty());
}

TEST(IvfIndexTest, RecallAtFixedNprobeBeatsFloor) {
  const int n = 4000, dim = 32, k = 10;
  auto items = ClusteredUnitRows(n, dim, 80, 0.08f, 42);
  auto queries = ClusteredUnitRows(400, dim, 80, 0.08f, 43);

  BlockingIndex exact(items.data(), n, dim, Exact());
  const auto truth = StatusQuery(exact, queries, dim, k);

  IvfOptions opts;
  opts.seed = 12;
  BlockingIndex ivf(items.data(), n, dim, Ivf(opts));
  EXPECT_GT(ivf.num_cells(), 16);  // ~sqrt(4000) = 64 cells, minus empties
  const auto approx = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/8);
  EXPECT_GE(RecallAtK(truth, approx), 0.9);
}

TEST(IvfIndexTest, BitIdenticalAcrossThreadCounts) {
  const int n = 1500, dim = 24, k = 7;
  auto items = ClusteredUnitRows(n, dim, 30, 0.1f, 77);
  auto queries = ClusteredUnitRows(130, dim, 30, 0.1f, 78);
  IvfOptions opts;
  opts.seed = 5;
  BlockingIndex ivf(items.data(), n, dim, Ivf(opts));
  const auto ref = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/4,
                              /*threads=*/1);
  for (int threads : {2, 4}) {
    const auto got = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/4, threads);
    ExpectBitIdentical(ref, got);
  }
}

TEST(IvfIndexTest, NprobeAtLeastCellCountMatchesExactBitwise) {
  const int n = 700, dim = 16, k = 9;
  auto items = ClusteredUnitRows(n, dim, 20, 0.15f, 99);
  auto queries = ClusteredUnitRows(65, dim, 20, 0.15f, 100);
  BlockingIndex exact(items.data(), n, dim, Exact());
  BlockingIndex ivf(items.data(), n, dim, Ivf());
  // Probing every cell gathers every item; scores ride the same GemmBT
  // chains and selection tie-breaks on original ids, so the approximate
  // path degrades to the exact one bit for bit.
  const auto got = ProbeQuery(ivf, queries, dim, k,
                              /*nprobe=*/ivf.num_cells());
  const auto want = StatusQuery(exact, queries, dim, k);
  ExpectBitIdentical(want, got);
  // Over-probing clamps: nprobe way past the cell count changes nothing.
  const auto clamped = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/1000000);
  ExpectBitIdentical(want, clamped);
}

TEST(IvfIndexTest, SingleQueryMatchesBatchRow) {
  const int n = 400, dim = 16, k = 6;
  auto items = ClusteredUnitRows(n, dim, 12, 0.1f, 31);
  auto queries = ClusteredUnitRows(50, dim, 12, 0.1f, 32);
  BlockingIndex ivf(items.data(), n, dim, Ivf());
  const auto batch = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/3);
  for (int q = 0; q < 50; ++q) {
    std::vector<std::vector<Neighbor>> one;
    ASSERT_TRUE(ivf.QueryBatch(queries.data() + static_cast<size_t>(q) * dim,
                               1, dim, k, /*nprobe=*/3, &one)
                    .ok());
    ASSERT_EQ(one[0].size(), batch[static_cast<size_t>(q)].size()) << q;
    for (size_t j = 0; j < one[0].size(); ++j) {
      EXPECT_EQ(one[0][j].id, batch[static_cast<size_t>(q)][j].id) << q;
      EXPECT_EQ(one[0][j].sim, batch[static_cast<size_t>(q)][j].sim) << q;
    }
  }
}

TEST(IvfIndexTest, EdgeCases) {
  const int dim = 8;
  auto items = ClusteredUnitRows(20, dim, 4, 0.05f, 55);
  auto qs = ClusteredUnitRows(2, dim, 4, 0.05f, 56);
  BlockingIndex ivf(items.data(), 20, dim, Ivf());
  std::vector<std::vector<Neighbor>> out;

  // k = 0: empty per-query results, no crash.
  ASSERT_TRUE(ivf.QueryBatch(qs.data(), 1, dim, 0, 2, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].empty());
  ASSERT_TRUE(ivf.QueryBatch(qs.data(), 2, dim, 0, 2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].empty() && out[1].empty());
  // Negative k is an error, not a clamp.
  EXPECT_EQ(ivf.QueryBatch(qs.data(), 1, dim, -3, 2, &out).code(),
            StatusCode::kInvalidArgument);

  // k >= N with every cell probed returns all items, exactly ranked.
  ASSERT_TRUE(
      ivf.QueryBatch(qs.data(), 1, dim, 100, ivf.num_cells(), &out).ok());
  EXPECT_EQ(out[0].size(), 20u);
  std::set<int> ids;
  for (const auto& nb : out[0]) ids.insert(nb.id);
  EXPECT_EQ(ids.size(), 20u);

  // nprobe <= 0 is an error, not a clamp to one cell...
  EXPECT_EQ(ivf.QueryBatch(qs.data(), 1, dim, 100, 0, &out).code(),
            StatusCode::kInvalidArgument);
  // ...and nprobe = 1 answers from the single best cell.
  ASSERT_TRUE(ivf.QueryBatch(qs.data(), 1, dim, 100, 1, &out).ok());
  EXPECT_FALSE(out[0].empty());
  EXPECT_LE(out[0].size(), 20u);

  // Empty index: empty results for every query.
  BlockingIndex empty(nullptr, 0, 0, Ivf());
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.num_cells(), 0);
  ASSERT_TRUE(empty.QueryBatch(qs.data(), 1, dim, 5, 2, &out).ok());
  EXPECT_TRUE(out[0].empty());
  ASSERT_TRUE(empty.QueryBatch(qs.data(), 2, dim, 5, 2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].empty() && out[1].empty());

  // An index emptied by Remove keeps its width: a query of another width
  // is InvalidArgument, as on the exact index, while its own width still
  // answers with empty rows.
  std::vector<int> all(20);
  for (int i = 0; i < 20; ++i) all[static_cast<size_t>(i)] = i;
  ASSERT_TRUE(ivf.Remove(all.data(), 20).ok());
  ASSERT_EQ(ivf.size(), 0);
  EXPECT_EQ(ivf.QueryBatch(qs.data(), 1, 4, 5, 2, &out).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ivf.QueryBatch(qs.data(), 1, dim, 5, 2, &out).ok());
  EXPECT_TRUE(out[0].empty());
  BlockingIndexOptions ivf_opts;
  ivf_opts.kind = BlockingIndexKind::kIvf;
  BlockingIndex facade(items.data(), 20, dim, ivf_opts);
  ASSERT_TRUE(facade.Remove(all.data(), 20).ok());
  EXPECT_EQ(facade.QueryBatch(qs.data(), 1, 4, 5, &out).code(),
            StatusCode::kInvalidArgument);
  BlockingIndex exact(items.data(), 20, dim, Exact());
  ASSERT_TRUE(exact.Remove(all.data(), 20).ok());
  EXPECT_EQ(exact.QueryBatch(qs.data(), 1, 4, 5, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(IvfIndexTest, ExplicitCellCountIsHonored) {
  const int n = 256, dim = 8;
  auto items = ClusteredUnitRows(n, dim, 8, 0.1f, 71);
  IvfOptions opts;
  opts.num_cells = 8;
  BlockingIndex ivf(items.data(), n, dim, Ivf(opts));
  EXPECT_LE(ivf.num_cells(), 8);
  EXPECT_GE(ivf.num_cells(), 1);
  EXPECT_EQ(ivf.size(), n);

  // One cell: resident bytes are the stored panels of its 33 rows and of
  // the one centroid (padding included), its id list and its live count.
  namespace ks = tensor::kernels;
  opts.num_cells = 1;
  BlockingIndex one(items.data(), 33, dim, Ivf(opts));
  ASSERT_EQ(one.num_cells(), 1);
  EXPECT_EQ(one.bytes_resident(),
            (ks::PackedFloats(33, dim) + ks::PackedFloats(1, dim)) *
                    sizeof(float) +
                34 * sizeof(int));
}

TEST(IvfBlockingIndexTest, AutoSwitchesOnThreshold) {
  const int dim = 8;
  auto items = ClusteredUnitRows(64, dim, 4, 0.1f, 13);
  BlockingIndexOptions opts;
  opts.exact_threshold = 32;
  BlockingIndex above(items.data(), 64, dim, opts);
  EXPECT_TRUE(above.using_ivf());
  BlockingIndex below(items.data(), 16, dim, opts);
  EXPECT_FALSE(below.using_ivf());

  // Explicit kinds override the threshold in both directions.
  opts.kind = BlockingIndexKind::kExact;
  EXPECT_FALSE(BlockingIndex(items.data(), 64, dim, opts).using_ivf());
  opts.kind = BlockingIndexKind::kIvf;
  EXPECT_TRUE(BlockingIndex(items.data(), 16, dim, opts).using_ivf());
}

TEST(IvfBlockingIndexTest, ExactKindMatchesKnnIndexBitwise) {
  const int n = 200, dim = 12, k = 6;
  auto items = ClusteredUnitRows(n, dim, 8, 0.1f, 61);
  auto queries = ClusteredUnitRows(30, dim, 8, 0.1f, 62);
  // The per-item constructor the pipelines block through, against the
  // flat exact scan.
  std::vector<std::vector<float>> per_item;
  for (int i = 0; i < n; ++i) {
    const auto at = items.begin() + static_cast<ptrdiff_t>(i) * dim;
    per_item.emplace_back(at, at + dim);
  }
  BlockingIndex facade(per_item, Exact());
  BlockingIndex exact(items.data(), n, dim, Exact());
  ExpectBitIdentical(StatusQuery(exact, queries, dim, k),
                     StatusQuery(facade, queries, dim, k));
  EXPECT_EQ(facade.size(), n);
  EXPECT_FALSE(facade.using_ivf());
}

TEST(IvfBlockingIndexTest, IvfKindRoutesNprobe) {
  const int n = 600, dim = 16, k = 8;
  auto items = ClusteredUnitRows(n, dim, 15, 0.1f, 17);
  auto queries = ClusteredUnitRows(40, dim, 15, 0.1f, 18);
  BlockingIndexOptions opts;
  opts.kind = BlockingIndexKind::kIvf;
  opts.ivf.nprobe = 5;
  opts.ivf.seed = 21;
  BlockingIndex facade(items.data(), n, dim, opts);
  // Same cells, default nprobe: the explicit-nprobe call must be what
  // the facade's default call routes to.
  IvfOptions default_probe = opts.ivf;
  default_probe.nprobe = IvfOptions{}.nprobe;
  BlockingIndex direct(items.data(), n, dim, Ivf(default_probe));
  ExpectBitIdentical(ProbeQuery(direct, queries, dim, k, 5),
                     StatusQuery(facade, queries, dim, k));
}

}  // namespace
}  // namespace sudowoodo
