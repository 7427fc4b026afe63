// Tests for k-means, the Algorithm 2 batch scheduler, and the blocking
// index's exact scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "cluster/batch_scheduler.h"
#include "cluster/kmeans.h"
#include "index/ivf_index.h"

namespace sudowoodo {
namespace {

using cluster::BatchScheduler;
using cluster::KMeans;
using cluster::KMeansOptions;
using index::BlockingIndex;
using index::BlockingIndexKind;
using index::BlockingIndexOptions;
using index::Neighbor;
using sparse::SparseVector;

// Two clearly separable groups in disjoint term spaces.
std::vector<SparseVector> TwoGroups(int per_group) {
  std::vector<SparseVector> data;
  for (int i = 0; i < per_group; ++i) {
    data.push_back({{0, 0.8f}, {1, 0.6f}});
    data.push_back({{10, 0.6f}, {11, 0.8f}});
  }
  return data;
}

TEST(KMeansTest, SeparatesDisjointGroups) {
  auto data = TwoGroups(10);
  KMeansOptions opts;
  opts.k = 2;
  auto res = KMeans(data, opts);
  ASSERT_EQ(res.clusters.size(), 2u);
  // All even indexes together, all odd together.
  const int c0 = res.assignments[0];
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(res.assignments[i], c0);
    } else {
      EXPECT_NE(res.assignments[i], c0);
    }
  }
}

TEST(KMeansTest, DeterministicGivenSeed) {
  auto data = TwoGroups(8);
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 42;
  auto r1 = KMeans(data, opts);
  auto r2 = KMeans(data, opts);
  EXPECT_EQ(r1.assignments, r2.assignments);
}

TEST(KMeansTest, KLargerThanNIsClamped) {
  std::vector<SparseVector> data = {{{0, 1.0f}}, {{1, 1.0f}}};
  KMeansOptions opts;
  opts.k = 10;
  auto res = KMeans(data, opts);
  EXPECT_LE(res.clusters.size(), 2u);
  EXPECT_EQ(res.assignments.size(), 2u);
}

TEST(KMeansTest, EmptyInput) {
  auto res = KMeans({}, KMeansOptions{});
  EXPECT_TRUE(res.assignments.empty());
  EXPECT_TRUE(res.clusters.empty());
}

TEST(KMeansTest, ClustersPartitionAllItems) {
  auto data = TwoGroups(12);
  KMeansOptions opts;
  opts.k = 5;
  auto res = KMeans(data, opts);
  std::set<int> seen;
  for (const auto& c : res.clusters) {
    for (int i : c) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), data.size());
}

TEST(BatchSchedulerTest, UniformCoversAllItems) {
  BatchScheduler sched(100, 16, 3);
  auto batches = sched.NextEpoch();
  std::set<int> seen;
  for (const auto& b : batches) {
    EXPECT_GE(b.size(), 2u);
    EXPECT_LE(b.size(), 16u);
    for (int i : b) seen.insert(i);
  }
  // At most one short tail batch may be dropped (< 2 items).
  EXPECT_GE(seen.size(), 95u);
}

TEST(BatchSchedulerTest, EpochsDiffer) {
  BatchScheduler sched(64, 8, 5);
  auto e1 = sched.NextEpoch();
  auto e2 = sched.NextEpoch();
  EXPECT_NE(e1, e2);
}

TEST(BatchSchedulerTest, ClusterModeGroupsSimilarItems) {
  // 40 "red" docs and 40 "blue" docs: cluster batches should be pure.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back({"red", "crimson", "scarlet"});
    corpus.push_back({"blue", "navy", "azure"});
  }
  BatchScheduler sched(corpus, 8, /*num_clusters=*/2, 7);
  EXPECT_TRUE(sched.clustered());
  int pure = 0, total = 0;
  for (const auto& batch : sched.NextEpoch()) {
    if (batch.size() < 8) continue;  // tail batch can mix clusters
    ++total;
    bool red = batch[0] % 2 == 0;
    bool is_pure = true;
    for (int i : batch) {
      if ((i % 2 == 0) != red) is_pure = false;
    }
    pure += is_pure ? 1 : 0;
  }
  EXPECT_GT(total, 0);
  EXPECT_GE(static_cast<double>(pure) / total, 0.9);
}

/// Per-item vectors (all the same width) as one row-major buffer.
std::vector<float> Flatten(const std::vector<std::vector<float>>& items) {
  std::vector<float> rows;
  for (const auto& v : items) rows.insert(rows.end(), v.begin(), v.end());
  return rows;
}

/// The exact scan: an index that never partitions into cells.
BlockingIndexOptions Exact() {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kExact;
  return o;
}

TEST(KnnIndexTest, ExactTopKAgainstBruteForce) {
  Rng rng(8);
  std::vector<std::vector<float>> items;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> v(8);
    float norm = 0;
    for (auto& x : v) {
      x = static_cast<float>(rng.Gaussian());
      norm += x * x;
    }
    for (auto& x : v) x /= std::sqrt(norm);
    items.push_back(v);
  }
  const std::vector<float> rows = Flatten(items);
  BlockingIndex index(rows.data(), 50, 8, Exact());
  std::vector<float> q = items[7];
  std::vector<Neighbor> result;
  ASSERT_TRUE(index.Query(q.data(), 8, 5, &result).ok());
  ASSERT_EQ(result.size(), 5u);
  // The item itself must come first with similarity ~1.
  EXPECT_EQ(result[0].id, 7);
  EXPECT_NEAR(result[0].sim, 1.0f, 1e-4f);
  // Sorted by similarity descending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].sim, result[i].sim);
  }
  // Matches a brute-force top-k.
  std::vector<std::pair<float, int>> brute;
  for (int i = 0; i < 50; ++i) {
    float dot = 0;
    for (int j = 0; j < 8; ++j) dot += items[static_cast<size_t>(i)][static_cast<size_t>(j)] * q[static_cast<size_t>(j)];
    brute.emplace_back(dot, i);
  }
  std::sort(brute.begin(), brute.end(), std::greater<>());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result[static_cast<size_t>(i)].id, brute[static_cast<size_t>(i)].second);
  }
}

TEST(KnnIndexTest, SmallKOverLargeNMatchesFullSort) {
  // k << N: exercises the bounded nth_element selection path against a
  // full-sort reference, including deterministic low-id-first tie-breaks
  // (every item in this set is duplicated once).
  const int n = 400, dim = 16, k = 5;
  Rng rng(19);
  std::vector<std::vector<float>> items;
  for (int i = 0; i < n / 2; ++i) {
    std::vector<float> v(static_cast<size_t>(dim));
    float norm = 0.0f;
    for (auto& x : v) {
      x = static_cast<float>(rng.Gaussian());
      norm += x * x;
    }
    for (auto& x : v) x /= std::sqrt(norm);
    items.push_back(v);
    items.push_back(v);  // exact duplicate -> guaranteed score tie
  }
  const std::vector<float> rows = Flatten(items);
  BlockingIndex index(rows.data(), n, dim, Exact());
  const std::vector<float> q = items[42];
  std::vector<Neighbor> result;
  ASSERT_TRUE(index.Query(q.data(), dim, k, &result).ok());
  ASSERT_EQ(result.size(), static_cast<size_t>(k));

  // Full-sort reference over the index's own scores (same Query call with
  // k = N returns every item ranked).
  std::vector<Neighbor> full;
  ASSERT_TRUE(index.Query(q.data(), dim, n, &full).ok());
  ASSERT_EQ(full.size(), static_cast<size_t>(n));
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(result[static_cast<size_t>(i)].id, full[static_cast<size_t>(i)].id);
    EXPECT_EQ(result[static_cast<size_t>(i)].sim, full[static_cast<size_t>(i)].sim);
  }
  // The duplicate pair tied at the top must appear lower id first.
  EXPECT_EQ(result[0].id, 42);
  EXPECT_EQ(result[1].id, 43);
  EXPECT_EQ(result[0].sim, result[1].sim);
  // Ranking is non-increasing throughout.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].sim, result[i].sim);
  }
}

TEST(KnnIndexTest, NanScoresRankLastWithoutUndefinedBehavior) {
  // Degenerate (NaN) embeddings must not break the selection comparator's
  // strict weak ordering; they rank after every real score, id-ordered.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> rows = {0.5f, 0.5f, nan,  nan,  1.0f,
                                   0.0f, nan,  0.0f, 0.0f, 1.0f};
  BlockingIndex index(rows.data(), 5, 2, Exact());
  const float q[] = {1.0f, 0.0f};
  std::vector<Neighbor> result;
  ASSERT_TRUE(index.Query(q, 2, 5, &result).ok());
  ASSERT_EQ(result.size(), 5u);
  EXPECT_EQ(result[0].id, 2);
  EXPECT_EQ(result[1].id, 0);
  EXPECT_EQ(result[2].id, 4);
  EXPECT_EQ(result[3].id, 1);  // NaN items last, lower id first
  EXPECT_EQ(result[4].id, 3);
  std::vector<Neighbor> top2;
  ASSERT_TRUE(index.Query(q, 2, 2, &top2).ok());
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, 2);
  EXPECT_EQ(top2[1].id, 0);
}

TEST(KnnIndexTest, KClampedToSize) {
  const std::vector<float> rows = {1.0f, 0.0f, 0.0f, 1.0f};
  BlockingIndex index(rows.data(), 2, 2, Exact());
  std::vector<Neighbor> result;
  ASSERT_TRUE(index.Query(rows.data(), 2, 10, &result).ok());
  EXPECT_EQ(result.size(), 2u);
  // After a removal k clamps to the live count...
  const int doomed = 0;
  ASSERT_TRUE(index.Remove(&doomed, 1).ok());
  ASSERT_TRUE(index.Query(rows.data(), 2, 10, &result).ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1);
  // ...and an empty index answers with no neighbours.
  BlockingIndex empty(nullptr, 0, 2, Exact());
  ASSERT_TRUE(empty.Query(rows.data(), 2, 10, &result).ok());
  EXPECT_TRUE(result.empty());
}

TEST(KnnIndexTest, QueryBatchMatchesSingleQueries) {
  const std::vector<float> rows = {1, 0, 0, 1, 0.7f, 0.7f};
  BlockingIndex index(rows.data(), 3, 2, Exact());
  std::vector<std::vector<Neighbor>> batch;
  ASSERT_TRUE(index.QueryBatch({{1, 0}, {0, 1}}, 2, &batch).ok());
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Neighbor> single;
  ASSERT_TRUE(index.Query(rows.data(), 2, 2, &single).ok());
  EXPECT_EQ(batch[0][0].id, single[0].id);
  // Rows of different widths are an error, not a partial flatten.
  EXPECT_EQ(index.QueryBatch({{1, 0}, {0}}, 2, &batch).code(),
            StatusCode::kInvalidArgument);
}

TEST(KnnIndexTest, QueryBatchBitIdenticalAcrossThreadCounts) {
  // 100 queries x 70 items spans several fixed query blocks; sharding the
  // blocks across workers must be invisible in the results (bitwise).
  std::vector<std::vector<float>> items;
  for (int i = 0; i < 70; ++i) {
    const float t = 0.05f * static_cast<float>(i);
    items.push_back({std::cos(t), std::sin(t)});
  }
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 100; ++q) {
    const float t = 0.11f * static_cast<float>(q);
    queries.push_back({std::cos(t), std::sin(t)});
  }
  const std::vector<float> rows = Flatten(items);
  BlockingIndex index(rows.data(), 70, 2, Exact());
  std::vector<std::vector<Neighbor>> ref;
  ASSERT_TRUE(index.QueryBatch(queries, 5, &ref, /*num_threads=*/1).ok());
  for (int threads : {2, 4}) {
    std::vector<std::vector<Neighbor>> got;
    ASSERT_TRUE(index.QueryBatch(queries, 5, &got, threads).ok());
    ASSERT_EQ(got.size(), ref.size());
    for (size_t q = 0; q < ref.size(); ++q) {
      ASSERT_EQ(got[q].size(), ref[q].size());
      for (size_t j = 0; j < ref[q].size(); ++j) {
        EXPECT_EQ(got[q][j].id, ref[q][j].id);
        EXPECT_EQ(got[q][j].sim, ref[q][j].sim);
      }
    }
  }
}

}  // namespace
}  // namespace sudowoodo
