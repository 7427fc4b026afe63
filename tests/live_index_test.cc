// Mutation battery for the live blocking index stack: in-place
// Insert/Remove on the blocking index's exact scan and IVF cells, its
// kAuto growth migration, and the LiveBlockingIndex external-id /
// cache-invalidation layer.
//
// The load-bearing contract: after ANY insert/remove sequence, exact
// queries are bitwise identical to an index rebuilt from scratch on the
// surviving rows (same ids, same order), at any thread count - tombstone
// filtering happens after scoring and every (query, item) score is an
// independent fixed GemmBT accumulation chain, so mutation history is
// invisible in the floats. The IVF index keeps the weaker-but-gated
// promise instead: recall@10 stays within the bench gate's budget of
// exact, and probing every cell is still bitwise equal to exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "index/live_index.h"
#include "tensor/kernels.h"

namespace sudowoodo {
namespace {

using index::BlockingIndex;
using index::BlockingIndexKind;
using index::BlockingIndexOptions;
using index::EmbeddingCache;
using index::IndexStorage;
using index::IvfOptions;
using index::LiveBlockingIndex;
using index::LiveItem;
using index::MutationOptions;
using index::Neighbor;
using index::StorageOptions;

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
      EXPECT_EQ(a[q][j].sim, b[q][j].sim) << "query " << q << " rank " << j;
    }
  }
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

/// The exact scan: an index that never partitions into cells.
BlockingIndexOptions Exact(const MutationOptions& mutation = {},
                           const StorageOptions& storage = {}) {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kExact;
  o.mutation = mutation;
  o.storage = storage;
  return o;
}

/// An index partitioned into cells from its first row.
BlockingIndexOptions Ivf(const IvfOptions& ivf,
                         const MutationOptions& mutation = {},
                         const StorageOptions& storage = {}) {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kIvf;
  o.ivf = ivf;
  o.mutation = mutation;
  o.storage = storage;
  return o;
}

/// Queries `idx` at its default nprobe at `threads` workers.
std::vector<std::vector<Neighbor>> StatusQuery(const BlockingIndex& idx,
                                               const std::vector<float>& q,
                                               int dim, int k,
                                               int threads = 1) {
  std::vector<std::vector<Neighbor>> out;
  const int nq = static_cast<int>(q.size()) / dim;
  EXPECT_TRUE(idx.QueryBatch(q.data(), nq, dim, k, &out, threads).ok());
  return out;
}

/// The rebuild oracle: a fresh exact index over `mutated`'s surviving
/// rows with the same ids, via RowSet::ExportLive + the explicit-id
/// constructor.
std::unique_ptr<BlockingIndex> RebuildFromSurvivors(
    const BlockingIndex& mutated) {
  std::vector<float> rows;
  std::vector<int> ids;
  mutated.rows().ExportLive(&rows, &ids);
  return std::make_unique<BlockingIndex>(rows.data(), ids.data(),
                                         static_cast<int>(ids.size()),
                                         mutated.dim(), Exact());
}

// --- Exact-scan mutation -----------------------------------------------------

TEST(KnnIndexMutationTest, InsertMatchesFromScratchIndexBitwise) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(140, dim, 5, 0.2f, 31);
  auto queries = ClusteredUnitRows(33, dim, 5, 0.3f, 32);

  BlockingIndex grown(rows.data(), 100, dim, Exact());
  // Two appends of different batch sizes.
  ASSERT_TRUE(grown.Insert(rows.data() + 100 * dim, 25, dim).ok());
  ASSERT_TRUE(grown.Insert(rows.data() + 125 * dim, 15, dim).ok());
  ASSERT_EQ(grown.size(), 140);
  ASSERT_EQ(grown.next_id(), 140);

  BlockingIndex scratch(rows.data(), 140, dim, Exact());
  for (int threads : {1, 2, 4}) {
    ExpectBitIdentical(StatusQuery(grown, queries, dim, 10, threads),
                       StatusQuery(scratch, queries, dim, 10, threads));
  }
}

TEST(KnnIndexMutationTest, RemoveMatchesRebuildOnSurvivorsBitwise) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(150, dim, 6, 0.2f, 33);
  auto queries = ClusteredUnitRows(25, dim, 6, 0.3f, 34);

  // High fraction: tombstones stay resident, so this exercises the
  // filtered-scoring path rather than compaction.
  MutationOptions keep;
  keep.compact_tombstone_fraction = 1.0f;
  BlockingIndex mutated(rows.data(), 150, dim, Exact(keep));
  std::vector<int> doomed;
  for (int id = 0; id < 150; id += 3) doomed.push_back(id);
  ASSERT_TRUE(
      mutated.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());
  ASSERT_EQ(mutated.size(), 100);
  ASSERT_GT(mutated.tombstones(), 0);

  auto oracle = RebuildFromSurvivors(mutated);
  ASSERT_EQ(oracle->tombstones(), 0);
  for (int threads : {1, 2, 4}) {
    ExpectBitIdentical(StatusQuery(mutated, queries, dim, 10, threads),
                       StatusQuery(*oracle, queries, dim, 10, threads));
  }
}

TEST(KnnIndexMutationTest, InterleavedMutationSequenceMatchesRebuild) {
  const int dim = 24;
  auto rows = ClusteredUnitRows(400, dim, 7, 0.25f, 35);
  auto queries = ClusteredUnitRows(40, dim, 7, 0.3f, 36);

  BlockingIndex mutated(rows.data(), 200, dim, Exact());
  Rng rng(99);
  int appended = 200;
  std::set<int> live;
  for (int id = 0; id < 200; ++id) live.insert(id);
  for (int step = 0; step < 12; ++step) {
    if (step % 3 != 2 && appended < 400) {
      const int b = std::min(25, 400 - appended);
      const int first = mutated.next_id();
      ASSERT_TRUE(
          mutated.Insert(rows.data() + static_cast<size_t>(appended) * dim, b,
                         dim)
              .ok());
      for (int j = 0; j < b; ++j) live.insert(first + j);
      appended += b;
    } else {
      std::vector<int> pick(live.begin(), live.end());
      std::vector<int> doomed;
      for (int j = 0; j < 17 && !pick.empty(); ++j) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(static_cast<int>(pick.size())));
        doomed.push_back(pick[at]);
        pick.erase(pick.begin() + static_cast<ptrdiff_t>(at));
      }
      ASSERT_TRUE(
          mutated.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());
      for (int id : doomed) live.erase(id);
    }
  }
  ASSERT_EQ(mutated.size(), static_cast<int>(live.size()));

  auto oracle = RebuildFromSurvivors(mutated);
  for (int threads : {1, 2, 4}) {
    ExpectBitIdentical(StatusQuery(mutated, queries, dim, 10, threads),
                       StatusQuery(*oracle, queries, dim, 10, threads));
  }
}

TEST(KnnIndexMutationTest, CompactionIsInvisibleInResults) {
  const int dim = 12;
  auto rows = ClusteredUnitRows(120, dim, 4, 0.2f, 37);
  auto queries = ClusteredUnitRows(20, dim, 4, 0.3f, 38);

  MutationOptions eager;   // compacts on every remove
  eager.compact_tombstone_fraction = 0.0f;
  MutationOptions lazy;    // never compacts between mutations
  lazy.compact_tombstone_fraction = 1.0f;
  BlockingIndex compacted(rows.data(), 120, dim, Exact(eager));
  BlockingIndex tombstoned(rows.data(), 120, dim, Exact(lazy));
  std::vector<int> doomed;
  for (int id = 5; id < 120; id += 2) doomed.push_back(id);
  const int nd = static_cast<int>(doomed.size());
  ASSERT_TRUE(compacted.Remove(doomed.data(), nd).ok());
  ASSERT_TRUE(tombstoned.Remove(doomed.data(), nd).ok());

  EXPECT_EQ(compacted.tombstones(), 0);
  EXPECT_EQ(compacted.stored_size(), compacted.size());
  EXPECT_EQ(tombstoned.tombstones(), nd);
  EXPECT_GT(tombstoned.stored_size(), tombstoned.size());
  ExpectBitIdentical(StatusQuery(compacted, queries, dim, 8),
                     StatusQuery(tombstoned, queries, dim, 8));

  // Ids are never reused after compaction: the next insert continues the
  // monotone sequence even though storage shrank. The re-inserted copy of
  // row 0 ties its surviving original at sim 1.0, and the deterministic
  // tie-break ranks the lower id first.
  EXPECT_EQ(compacted.next_id(), 120);
  ASSERT_TRUE(compacted.Insert(rows.data(), 1, dim).ok());
  std::vector<Neighbor> top;
  ASSERT_TRUE(compacted.Query(rows.data(), dim, 2, &top).ok());
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 0);
  EXPECT_EQ(top[1].id, 120);
  EXPECT_EQ(top[0].sim, top[1].sim);
}

TEST(KnnIndexMutationTest, StatusErrorsOnBadMutations) {
  const int dim = 8;
  auto rows = ClusteredUnitRows(20, dim, 2, 0.2f, 39);
  BlockingIndex idx(rows.data(), 20, dim, Exact());

  EXPECT_EQ(idx.Insert(rows.data(), 5, dim + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.Insert(nullptr, 5, dim).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.Insert(rows.data(), -1, dim).code(),
            StatusCode::kInvalidArgument);

  const int unknown = 999;
  EXPECT_EQ(idx.Remove(&unknown, 1).code(), StatusCode::kNotFound);
  // Atomic: a batch with one unknown id removes nothing.
  const int mixed[] = {3, 4, 999};
  EXPECT_EQ(idx.Remove(mixed, 3).code(), StatusCode::kNotFound);
  EXPECT_EQ(idx.size(), 20);
  // Duplicates within one call are a NotFound on the second hit.
  const int dup[] = {7, 7};
  EXPECT_EQ(idx.Remove(dup, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(idx.size(), 20);

  // A dimensionless empty index cannot accept rows.
  BlockingIndex empty(nullptr, 0, 0, Exact());
  EXPECT_EQ(empty.Insert(rows.data(), 1, dim).code(),
            StatusCode::kFailedPrecondition);
  // An empty index *with* a width can.
  BlockingIndex sized(nullptr, 0, dim, Exact());
  EXPECT_TRUE(sized.Insert(rows.data(), 3, dim).ok());
  EXPECT_EQ(sized.size(), 3);

  std::vector<std::vector<Neighbor>> out;
  EXPECT_EQ(idx.QueryBatch(rows.data(), 2, dim, -1, &out, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.QueryBatch(nullptr, 2, dim, 3, &out, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.QueryBatch(rows.data(), 2, dim + 2, 3, &out, 1).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(BlockingIndex::Create(nullptr, 5, dim, Exact()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), -2, dim, Exact()).status().code(),
      StatusCode::kInvalidArgument);
  MutationOptions bad;
  bad.retrain_imbalance = 0.5f;
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), 20, dim, Exact(bad)).status().code(),
      StatusCode::kInvalidArgument);
  auto ok = BlockingIndex::Create(rows.data(), 20, dim, Exact());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->size(), 20);
}

// --- IVF mutation -----------------------------------------------------------

IvfOptions SmallIvf(int nprobe = 16) {
  IvfOptions o;
  o.num_cells = 12;
  o.train_iters = 6;
  o.seed = 5;
  o.nprobe = nprobe;
  return o;
}

TEST(IvfIndexMutationTest, ProbeAllCellsBitwiseEqualsExactAfterMutations) {
  const int dim = 24;
  auto rows = ClusteredUnitRows(600, dim, 9, 0.15f, 41);
  auto queries = ClusteredUnitRows(40, dim, 9, 0.3f, 42);

  BlockingIndex ivf(rows.data(), 400, dim,
                    Ivf(SmallIvf(/*nprobe=*/1 << 20)));
  ASSERT_TRUE(ivf.Insert(rows.data() + 400 * dim, 200, dim).ok());
  std::vector<int> doomed;
  for (int id = 0; id < 600; id += 4) doomed.push_back(id);
  ASSERT_TRUE(
      ivf.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());
  ASSERT_EQ(ivf.size(), 450);

  // The exact oracle over the same survivors with the same ids.
  BlockingIndex full(rows.data(), 600, dim, Exact());
  ASSERT_TRUE(
      full.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());
  for (int threads : {1, 2, 4}) {
    ExpectBitIdentical(StatusQuery(ivf, queries, dim, 10, threads),
                       StatusQuery(full, queries, dim, 10, threads));
  }
}

TEST(IvfIndexMutationTest, InsertKeepsRecallWithinGateBudget) {
  const int dim = 32;
  auto rows = ClusteredUnitRows(2000, dim, 10, 0.05f, 43);
  auto queries = ClusteredUnitRows(100, dim, 10, 0.15f, 44);

  IvfOptions o;
  o.num_cells = 24;
  o.train_iters = 8;
  o.nprobe = 8;
  // Volume trigger off: this measures post-insert cell quality *without*
  // a retrain bailing it out.
  MutationOptions m;
  m.retrain_insert_fraction = 1e6f;
  BlockingIndex ivf(rows.data(), 1500, dim, Ivf(o, m));
  for (int at = 1500; at < 2000; at += 125) {
    ASSERT_TRUE(
        ivf.Insert(rows.data() + static_cast<size_t>(at) * dim, 125, dim)
            .ok());
  }
  EXPECT_EQ(ivf.retrain_count(), 0);

  BlockingIndex exact(rows.data(), 2000, dim, Exact());
  const double recall = RecallAtK(StatusQuery(exact, queries, dim, 10),
                                  StatusQuery(ivf, queries, dim, 10));
  // The bench gate's budget (scripts/bench_compare.py RECALL_EPSILON).
  EXPECT_GE(recall, 1.0 - 0.005);
}

TEST(IvfIndexMutationTest, VolumeTriggerRetrains) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(300, dim, 6, 0.1f, 45);

  MutationOptions m;
  m.retrain_insert_fraction = 0.25f;  // retrain after >50 inserts on 200
  BlockingIndex ivf(rows.data(), 200, dim, Ivf(SmallIvf(), m));
  ASSERT_TRUE(ivf.Insert(rows.data() + 200 * dim, 40, dim).ok());
  EXPECT_EQ(ivf.retrain_count(), 0);
  ASSERT_TRUE(ivf.Insert(rows.data() + 240 * dim, 20, dim).ok());
  EXPECT_EQ(ivf.retrain_count(), 1);
  // The retrain resets the volume counter.
  ASSERT_TRUE(ivf.Insert(rows.data() + 260 * dim, 10, dim).ok());
  EXPECT_EQ(ivf.retrain_count(), 1);

  MutationOptions never;
  never.retrain_insert_fraction = 1e6f;
  BlockingIndex calm(rows.data(), 200, dim, Ivf(SmallIvf(), never));
  ASSERT_TRUE(calm.Insert(rows.data() + 200 * dim, 100, dim).ok());
  EXPECT_EQ(calm.retrain_count(), 0);
}

TEST(IvfIndexMutationTest, ImbalanceTriggerRetrains) {
  const int dim = 16;
  // One hot direction: every arriving row lands in the same cell.
  auto base = ClusteredUnitRows(200, dim, 8, 0.1f, 46);
  auto pile = ClusteredUnitRows(120, dim, 1, 0.02f, 47);

  MutationOptions m;
  m.retrain_insert_fraction = 1e6f;  // volume trigger off
  m.retrain_imbalance = 3.0f;
  BlockingIndex ivf(base.data(), 200, dim, Ivf(SmallIvf(), m));
  ASSERT_EQ(ivf.retrain_count(), 0);
  for (int at = 0; at < 120; at += 30) {
    ASSERT_TRUE(
        ivf.Insert(pile.data() + static_cast<size_t>(at) * dim, 30, dim)
            .ok());
  }
  // Arrivals piling into one cell crossed max/mean > 3 at some insert.
  EXPECT_GE(ivf.retrain_count(), 1);
}

TEST(IvfIndexMutationTest, CompactionIsInvisibleInResults) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(400, dim, 8, 0.15f, 48);
  auto queries = ClusteredUnitRows(30, dim, 8, 0.3f, 49);

  MutationOptions eager;
  eager.compact_tombstone_fraction = 0.0f;
  MutationOptions lazy;
  lazy.compact_tombstone_fraction = 1.0f;
  BlockingIndex compacted(rows.data(), 400, dim, Ivf(SmallIvf(), eager));
  BlockingIndex tombstoned(rows.data(), 400, dim, Ivf(SmallIvf(), lazy));
  std::vector<int> doomed;
  for (int id = 1; id < 400; id += 2) doomed.push_back(id);
  const int nd = static_cast<int>(doomed.size());
  ASSERT_TRUE(compacted.Remove(doomed.data(), nd).ok());
  ASSERT_TRUE(tombstoned.Remove(doomed.data(), nd).ok());

  EXPECT_EQ(compacted.tombstones(), 0);
  EXPECT_EQ(tombstoned.tombstones(), nd);
  ExpectBitIdentical(StatusQuery(compacted, queries, dim, 10),
                     StatusQuery(tombstoned, queries, dim, 10));
}

// --- IVF insert histories at partial probe ----------------------------------
//
// The batteries above compare the IVF index against exact only with every
// cell probed, where cell layout cannot show. These replay seeded
// histories at nprobe well below the cell count, where each query's
// candidates are exactly its probed cells' live rows - so any change in
// which rows a cell holds, or in their order, shows in the results.

/// One step of an insert history: append `insert` rows (> 0), or remove
/// `doomed` ids.
struct HistoryOp {
  int insert = 0;
  std::vector<int> doomed;
};

/// A seeded mix of single-row inserts, batch inserts and removes over an
/// index built on rows [0, n_initial); row i is item id i.
std::vector<HistoryOp> RandomHistory(int n_initial, int n_rows, int n_ops,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<int> live(static_cast<size_t>(n_initial));
  std::iota(live.begin(), live.end(), 0);
  int next = n_initial;
  std::vector<HistoryOp> ops;
  for (int step = 0; step < n_ops; ++step) {
    HistoryOp op;
    const int roll = rng.UniformInt(10);
    if (roll < 7 && next < n_rows) {
      op.insert = roll < 5 ? 1 : 2 + rng.UniformInt(39);
      op.insert = std::min(op.insert, n_rows - next);
      for (int j = 0; j < op.insert; ++j) live.push_back(next++);
    } else {
      const int nd = 1 + rng.UniformInt(6);
      for (int j = 0; j < nd && !live.empty(); ++j) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(static_cast<int>(live.size())));
        op.doomed.push_back(live[at]);
        live[at] = live.back();
        live.pop_back();
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Applies one history step; `split` inserts a batch one row at a time.
void ApplyHistory(BlockingIndex* idx, const std::vector<float>& rows, int dim,
                  const HistoryOp& op, bool split) {
  if (op.insert == 0) {
    ASSERT_TRUE(
        idx->Remove(op.doomed.data(), static_cast<int>(op.doomed.size()))
            .ok());
    return;
  }
  const float* at = rows.data() + static_cast<size_t>(idx->next_id()) * dim;
  if (!split) {
    ASSERT_TRUE(idx->Insert(at, op.insert, dim).ok());
    return;
  }
  for (int j = 0; j < op.insert; ++j) {
    ASSERT_TRUE(idx->Insert(at + static_cast<size_t>(j) * dim, 1, dim).ok());
  }
}

IvfOptions PartialProbeIvf() {
  IvfOptions o;
  o.num_cells = 24;
  o.train_iters = 6;
  o.seed = 9;
  o.nprobe = 4;
  return o;
}

TEST(IvfIndexMutationTest, SingleRowInsertsMatchBatchInsertAtPartialProbe) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(1400, dim, 12, 0.2f, 56);
  auto queries = ClusteredUnitRows(37, dim, 12, 0.3f, 57);
  const auto history = RandomHistory(400, 1400, 120, 58);
  // Both retrain triggers off: a trigger is checked once per Insert call,
  // so it could fire at different rows for split and whole batches.
  MutationOptions frozen;
  frozen.retrain_insert_fraction = 1e6f;
  frozen.retrain_imbalance = 1e6f;
  for (IndexStorage mode : {IndexStorage::kFp32, IndexStorage::kInt8}) {
    StorageOptions so;
    so.storage = mode;
    BlockingIndex single(rows.data(), 400, dim,
                         Ivf(PartialProbeIvf(), frozen, so));
    BlockingIndex batched(rows.data(), 400, dim,
                          Ivf(PartialProbeIvf(), frozen, so));
    ASSERT_GE(single.num_cells(), 3 * PartialProbeIvf().nprobe);
    for (size_t step = 0; step < history.size(); ++step) {
      ApplyHistory(&single, rows, dim, history[step], /*split=*/true);
      ApplyHistory(&batched, rows, dim, history[step], /*split=*/false);
      if (step % 20 != 19) continue;
      ASSERT_EQ(single.size(), batched.size());
      for (int threads : {1, 2, 4}) {
        ExpectBitIdentical(StatusQuery(single, queries, dim, 10, threads),
                           StatusQuery(batched, queries, dim, 10, threads));
      }
    }
    EXPECT_EQ(single.retrain_count(), 0);
    EXPECT_EQ(batched.retrain_count(), 0);
  }
}

TEST(IvfIndexMutationTest, CompactionInvisibleAtPartialProbeWithInserts) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(1400, dim, 12, 0.2f, 59);
  auto queries = ClusteredUnitRows(37, dim, 12, 0.3f, 60);
  const auto history = RandomHistory(400, 1400, 160, 61);
  MutationOptions eager;  // default retrain triggers stay on
  eager.compact_tombstone_fraction = 0.0f;
  MutationOptions lazy;
  lazy.compact_tombstone_fraction = 1.0f;
  for (IndexStorage mode : {IndexStorage::kFp32, IndexStorage::kInt8}) {
    StorageOptions so;
    so.storage = mode;
    BlockingIndex compacted(rows.data(), 400, dim,
                            Ivf(PartialProbeIvf(), eager, so));
    BlockingIndex tombstoned(rows.data(), 400, dim,
                             Ivf(PartialProbeIvf(), lazy, so));
    bool saw_tombstones = false;
    for (size_t step = 0; step < history.size(); ++step) {
      ApplyHistory(&compacted, rows, dim, history[step], /*split=*/false);
      ApplyHistory(&tombstoned, rows, dim, history[step], /*split=*/false);
      if (step % 20 != 19) continue;
      EXPECT_EQ(compacted.tombstones(), 0);
      saw_tombstones = saw_tombstones || tombstoned.tombstones() > 0;
      ASSERT_EQ(compacted.retrain_count(), tombstoned.retrain_count());
      ASSERT_GE(compacted.num_cells(), 3 * PartialProbeIvf().nprobe);
      for (int threads : {1, 2, 4}) {
        ExpectBitIdentical(
            StatusQuery(compacted, queries, dim, 10, threads),
            StatusQuery(tombstoned, queries, dim, 10, threads));
      }
    }
    EXPECT_TRUE(saw_tombstones);
    EXPECT_GE(compacted.retrain_count(), 1);
  }
}

TEST(IvfIndexMutationTest, StatusErrorsOnBadMutations) {
  const int dim = 8;
  auto rows = ClusteredUnitRows(50, dim, 2, 0.2f, 50);

  BlockingIndex ivf(rows.data(), 50, dim, Ivf(SmallIvf()));
  EXPECT_EQ(ivf.Insert(rows.data(), 5, dim + 1).code(),
            StatusCode::kInvalidArgument);
  const int unknown = 777;
  EXPECT_EQ(ivf.Remove(&unknown, 1).code(), StatusCode::kNotFound);
  const int dup[] = {2, 2};
  EXPECT_EQ(ivf.Remove(dup, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(ivf.size(), 50);

  IvfOptions bad = SmallIvf();
  bad.nprobe = 0;
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), 50, dim, Ivf(bad)).status().code(),
      StatusCode::kInvalidArgument);
  auto ok = BlockingIndex::Create(rows.data(), 50, dim, Ivf(SmallIvf()));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->size(), 50);
}

// --- kAuto migration and the kExact kind -------------------------------------

TEST(IvfBlockingIndexMutationTest, AutoGrowthMigratesToIvfPreservingIds) {
  const int dim = 16;
  auto rows = ClusteredUnitRows(700, dim, 8, 0.15f, 51);
  auto queries = ClusteredUnitRows(25, dim, 8, 0.3f, 52);

  BlockingIndexOptions opts;
  opts.kind = BlockingIndexKind::kAuto;
  opts.exact_threshold = 512;
  opts.ivf = SmallIvf(/*nprobe=*/1 << 20);  // IVF == exact bitwise
  BlockingIndex facade(rows.data(), 400, dim, opts);
  ASSERT_FALSE(facade.using_ivf());

  // Remove the top ids first: migration must continue the id sequence
  // past them instead of reusing.
  const int doomed[] = {398, 399};
  ASSERT_TRUE(facade.Remove(doomed, 2).ok());
  ASSERT_TRUE(facade.Insert(rows.data() + 400 * dim, 100, dim).ok());
  ASSERT_FALSE(facade.using_ivf());  // 498 live < 512
  ASSERT_TRUE(facade.Insert(rows.data() + 500 * dim, 200, dim).ok());
  EXPECT_TRUE(facade.using_ivf());
  EXPECT_EQ(facade.size(), 698);
  EXPECT_EQ(facade.next_id(), 700);

  // The exact oracle over the same history.
  BlockingIndex oracle(rows.data(), 700, dim, Exact());
  ASSERT_TRUE(oracle.Remove(doomed, 2).ok());
  for (int threads : {1, 2, 4}) {
    ExpectBitIdentical(StatusQuery(facade, queries, dim, 10, threads),
                       StatusQuery(oracle, queries, dim, 10, threads));
  }
}

TEST(IvfBlockingIndexMutationTest, ExactFacadeDelegatesMutationsBitwise) {
  const int dim = 12;
  auto rows = ClusteredUnitRows(150, dim, 4, 0.2f, 53);
  auto queries = ClusteredUnitRows(15, dim, 4, 0.3f, 54);

  BlockingIndexOptions opts;
  opts.kind = BlockingIndexKind::kExact;
  BlockingIndex facade(rows.data(), 100, dim, opts);
  BlockingIndex oracle(rows.data(), 100, dim, Exact());
  ASSERT_TRUE(facade.Insert(rows.data() + 100 * dim, 50, dim).ok());
  ASSERT_TRUE(oracle.Insert(rows.data() + 100 * dim, 50, dim).ok());
  const int doomed[] = {10, 20, 120};
  ASSERT_TRUE(facade.Remove(doomed, 3).ok());
  ASSERT_TRUE(oracle.Remove(doomed, 3).ok());
  ASSERT_FALSE(facade.using_ivf());
  ExpectBitIdentical(StatusQuery(facade, queries, dim, 10),
                     StatusQuery(oracle, queries, dim, 10));
}

TEST(IvfBlockingIndexMutationTest, CreateValidatesOptions) {
  const int dim = 8;
  auto rows = ClusteredUnitRows(20, dim, 2, 0.2f, 55);
  BlockingIndexOptions opts;
  opts.ivf.nprobe = 0;
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), 20, dim, opts).status().code(),
      StatusCode::kInvalidArgument);
  opts = BlockingIndexOptions{};
  opts.exact_threshold = -1;
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), 20, dim, opts).status().code(),
      StatusCode::kInvalidArgument);
  opts = BlockingIndexOptions{};
  opts.mutation.compact_tombstone_fraction = -0.5f;
  EXPECT_EQ(
      BlockingIndex::Create(rows.data(), 20, dim, opts).status().code(),
      StatusCode::kInvalidArgument);
  auto ok = BlockingIndex::Create(rows.data(), 20, dim, {});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->size(), 20);
}

// The constructors abort on exactly what Create rejects: an invalid
// option that the exact scan never reads (nprobe) must not wait for the
// kAuto migration to surface as a failing query.
TEST(IvfBlockingIndexDeathTest, ConstructorsAbortOnWhatCreateRejects) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const int dim = 8;
  auto rows = ClusteredUnitRows(20, dim, 2, 0.2f, 55);
  BlockingIndexOptions opts;  // kAuto, far below its threshold
  opts.ivf.nprobe = 0;
  EXPECT_DEATH(BlockingIndex(rows.data(), 20, dim, opts),
               "nprobe must be > 0");
  EXPECT_DEATH(LiveBlockingIndex(dim, opts), "nprobe must be > 0");
  opts = Exact();
  opts.ivf.train_iters = -1;
  EXPECT_DEATH(BlockingIndex(rows.data(), 20, dim, opts),
               "train_iters must be >= 0");
}

// --- Model-based check across the kAuto migration ---------------------------
//
// Every mutation oracle above is the index's own exact scan, which shares
// its row bookkeeping (index::RowSet) with the IVF cells. This reference
// shares no index code: a std::map of id -> row, scored with one GemmBT
// panel over the survivors in ascending-id order and ranked by (score
// desc, id asc).

/// Top-k of every query over `live`, by the reference's own ranking.
std::vector<std::vector<Neighbor>> ReferenceTopK(
    const std::map<int, std::vector<float>>& live,
    const std::vector<float>& queries, int dim, int k) {
  std::vector<float> rows;
  std::vector<int> ids;
  for (const auto& [id, row] : live) {
    ids.push_back(id);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  const int n = static_cast<int>(ids.size());
  const int nq = static_cast<int>(queries.size()) / dim;
  std::vector<float> scores(static_cast<size_t>(nq) * n, 0.0f);
  if (n > 0) {
    tensor::kernels::GemmBT(nq, n, dim, queries.data(), rows.data(),
                            scores.data());
  }
  std::vector<std::vector<Neighbor>> out(static_cast<size_t>(nq));
  for (int q = 0; q < nq; ++q) {
    const float* s = scores.data() + static_cast<size_t>(q) * n;
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (s[a] != s[b]) return s[a] > s[b];
      return ids[static_cast<size_t>(a)] < ids[static_cast<size_t>(b)];
    });
    for (int j = 0; j < std::min(k, n); ++j) {
      const int at = order[static_cast<size_t>(j)];
      out[static_cast<size_t>(q)].push_back(
          {ids[static_cast<size_t>(at)], s[at]});
    }
  }
  return out;
}

TEST(LiveIndexModelTest, RandomHistoriesMatchReference) {
  const int dim = 12, k = 7, pool = 700, n0 = 40, threshold = 96;
  const auto rows = ClusteredUnitRows(pool, dim, 9, 0.2f, 81);
  const auto queries = ClusteredUnitRows(9, dim, 9, 0.3f, 82);
  auto row = [&](int i) {
    const auto at = rows.begin() + static_cast<ptrdiff_t>(i) * dim;
    return std::vector<float>(at, at + dim);
  };
  for (float fraction : {0.0f, 0.25f, 1.0f}) {
    SCOPED_TRACE(fraction);
    BlockingIndexOptions opts;
    opts.kind = BlockingIndexKind::kAuto;
    opts.exact_threshold = threshold;
    opts.ivf.nprobe = 1 << 20;  // >= any cell count: IVF answers exactly
    opts.ivf.train_iters = 4;
    opts.mutation.compact_tombstone_fraction = fraction;
    BlockingIndex idx(rows.data(), n0, dim, opts);
    // Row i of the pool is always item id i: ids are handed out in
    // arrival order and never reused.
    std::map<int, std::vector<float>> live;
    for (int i = 0; i < n0; ++i) live[i] = row(i);
    int next = n0;
    bool reached = false;  // the live count has reached the threshold
    Rng rng(83);
    for (int step = 0; step < 160 && next < pool; ++step) {
      const int roll = rng.UniformInt(10);
      if (roll < 5) {
        const int b =
            std::min(roll < 3 ? 1 : 2 + rng.UniformInt(20), pool - next);
        ASSERT_TRUE(
            idx.Insert(rows.data() + static_cast<size_t>(next) * dim, b, dim)
                .ok());
        for (int j = 0; j < b; ++j) live[next + j] = row(next + j);
        next += b;
        reached = reached || static_cast<int>(live.size()) >= threshold;
      } else if (roll < 8 && !live.empty()) {
        std::vector<int> pick;
        for (const auto& entry : live) pick.push_back(entry.first);
        std::vector<int> doomed;
        if (rng.UniformInt(3) == 0) {  // the current top id
          doomed.push_back(pick.back());
          pick.pop_back();
        }
        for (int j = rng.UniformInt(5); j > 0 && !pick.empty(); --j) {
          const size_t at = static_cast<size_t>(
              rng.UniformInt(static_cast<int>(pick.size())));
          doomed.push_back(pick[at]);
          pick[at] = pick.back();
          pick.pop_back();
        }
        ASSERT_TRUE(
            idx.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());
        for (int id : doomed) live.erase(id);
      }  // else: a query-only step
      ASSERT_EQ(idx.size(), static_cast<int>(live.size())) << step;
      ASSERT_EQ(idx.next_id(), next) << step;
      ASSERT_EQ(idx.using_ivf(), reached) << step;
      const auto want = ReferenceTopK(live, queries, dim, k);
      for (int threads : {1, 3}) {
        ExpectBitIdentical(StatusQuery(idx, queries, dim, k, threads), want);
      }
    }
    EXPECT_TRUE(reached);
    EXPECT_GE(idx.retrain_count(), 1);
  }
}

// --- LiveBlockingIndex -------------------------------------------------------

/// A one-hot-ish unit row pointing along `axis`.
std::vector<float> AxisRow(int dim, int axis) {
  std::vector<float> v(static_cast<size_t>(dim), 0.0f);
  v[static_cast<size_t>(axis % dim)] = 1.0f;
  return v;
}

TEST(LiveIndexTest, UpsertQueryRemoveSpeakExternalIds) {
  const int dim = 8;
  LiveBlockingIndex live(dim, {});
  ASSERT_EQ(live.size(), 0);

  // Three items with caller-chosen, sparse ids.
  for (int item : {100, 205, 307}) {
    LiveItem it;
    it.item_id = item;
    auto row = AxisRow(dim, item);
    ASSERT_TRUE(live.Upsert(&it, row.data(), 1, dim).ok());
  }
  ASSERT_EQ(live.size(), 3);
  EXPECT_TRUE(live.Contains(205));
  EXPECT_FALSE(live.Contains(4));

  auto q = AxisRow(dim, 205);
  std::vector<Neighbor> top;
  ASSERT_TRUE(live.Query(q.data(), dim, 1, &top).ok());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 205);

  const int doomed = 205;
  ASSERT_TRUE(live.Remove(&doomed, 1).ok());
  EXPECT_FALSE(live.Contains(205));
  EXPECT_EQ(live.size(), 2);
  ASSERT_TRUE(live.Query(q.data(), dim, 3, &top).ok());
  for (const Neighbor& nb : top) EXPECT_NE(nb.id, 205);
}

TEST(LiveIndexTest, UpsertReplacesRowAndInvalidatesChangedKeyOnly) {
  const int dim = 8;
  EmbeddingCache cache(64);
  LiveBlockingIndex live(dim, {}, &cache);

  const std::vector<int> key_a = {1, 2, 3};
  const std::vector<int> key_b = {4, 5};
  auto row_a = AxisRow(dim, 0);
  auto row_b = AxisRow(dim, 1);
  cache.Insert(key_a, row_a.data(), dim);

  LiveItem it;
  it.item_id = 9;
  it.token_key = key_a;
  ASSERT_TRUE(live.Upsert(&it, row_a.data(), 1, dim).ok());

  // Re-upserting identical content keeps the (still valid) cache entry.
  ASSERT_TRUE(live.Upsert(&it, row_a.data(), 1, dim).ok());
  std::vector<float> got(static_cast<size_t>(dim));
  EXPECT_TRUE(cache.Lookup(key_a, got.data(), dim));
  EXPECT_EQ(live.stats().replacements, 1u);
  EXPECT_EQ(live.stats().cache_erasures, 0u);

  // Content change: the old serialization's entry must be gone - zero
  // stale hits possible afterwards.
  it.token_key = key_b;
  ASSERT_TRUE(live.Upsert(&it, row_b.data(), 1, dim).ok());
  EXPECT_FALSE(cache.Lookup(key_a, got.data(), dim));
  EXPECT_EQ(live.stats().replacements, 2u);
  EXPECT_EQ(live.stats().cache_erasures, 1u);
  EXPECT_EQ(cache.stats().erasures, 1u);
  EXPECT_EQ(live.size(), 1);

  // The replaced row really is gone from the index: the nearest
  // neighbour of the old row is now the new row, not a stale copy.
  std::vector<Neighbor> top;
  ASSERT_TRUE(live.Query(row_a.data(), dim, 1, &top).ok());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 9);
  EXPECT_EQ(top[0].sim, row_a[1]);  // orthogonal: sim 0 against row_b
}

TEST(LiveIndexTest, RemoveErasesCacheKeyNoStaleHits) {
  const int dim = 8;
  EmbeddingCache cache(64);
  LiveBlockingIndex live(dim, {}, &cache);

  // Churn: upsert, remove, and assert every removed item's key misses.
  std::vector<std::vector<int>> keys;
  for (int item = 0; item < 20; ++item) {
    LiveItem it;
    it.item_id = item;
    it.token_key = {item, item + 1, item + 2};
    keys.push_back(it.token_key);
    auto row = AxisRow(dim, item);
    cache.Insert(it.token_key, row.data(), dim);
    ASSERT_TRUE(live.Upsert(&it, row.data(), 1, dim).ok());
  }
  std::vector<int> doomed;
  for (int item = 0; item < 20; item += 2) doomed.push_back(item);
  ASSERT_TRUE(
      live.Remove(doomed.data(), static_cast<int>(doomed.size())).ok());

  std::vector<float> got(static_cast<size_t>(dim));
  const uint64_t hits_before = cache.stats().hits;
  for (int item : doomed) {
    EXPECT_FALSE(cache.Lookup(keys[static_cast<size_t>(item)], got.data(),
                              dim))
        << "stale hit for removed item " << item;
  }
  EXPECT_EQ(cache.stats().hits, hits_before);  // zero stale hits
  EXPECT_EQ(live.stats().cache_erasures, doomed.size());
  // Surviving items still hit.
  EXPECT_TRUE(cache.Lookup(keys[1], got.data(), dim));
}

// A kIvf index starts with no cells when it starts empty, as a live
// index always does: its first insert partitions that batch's rows, so
// it answers exactly like a kIvf index built over the same rows and ids.
TEST(LiveIndexTest, IvfKindPartitionsItsFirstUpsert) {
  const int dim = 16, n = 300, nq = 20, k = 8;
  auto rows = ClusteredUnitRows(n, dim, 8, 0.15f, 91);
  auto queries = ClusteredUnitRows(nq, dim, 8, 0.3f, 92);
  const BlockingIndexOptions opts = Ivf(SmallIvf(/*nprobe=*/3));

  BlockingIndex empty(nullptr, 0, dim, opts);
  EXPECT_FALSE(empty.using_ivf());
  ASSERT_TRUE(empty.Insert(rows.data(), n, dim).ok());
  EXPECT_TRUE(empty.using_ivf());
  BlockingIndex built(rows.data(), n, dim, opts);
  ASSERT_GT(built.num_cells(), 3);  // partial probe: the layout shows
  ExpectBitIdentical(StatusQuery(empty, queries, dim, k),
                     StatusQuery(built, queries, dim, k));

  LiveBlockingIndex live(dim, opts);
  EXPECT_FALSE(live.stats().using_ivf);
  std::vector<LiveItem> items(static_cast<size_t>(n));
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] = 1000 + 3 * i;  // sparse, ascending
    items[static_cast<size_t>(i)].item_id = ids[static_cast<size_t>(i)];
  }
  ASSERT_TRUE(live.Upsert(items.data(), rows.data(), n, dim).ok());
  EXPECT_TRUE(live.stats().using_ivf);
  BlockingIndex by_id(rows.data(), ids.data(), n, dim, opts);
  for (int threads : {1, 3}) {
    std::vector<std::vector<Neighbor>> got;
    ASSERT_TRUE(
        live.QueryBatch(queries.data(), nq, dim, k, &got, threads).ok());
    ExpectBitIdentical(got, StatusQuery(by_id, queries, dim, k, threads));
  }
}

TEST(LiveIndexTest, ValidationErrors) {
  const int dim = 8;
  LiveBlockingIndex live(dim, {});
  auto row = AxisRow(dim, 0);

  LiveItem neg;
  neg.item_id = -2;
  EXPECT_EQ(live.Upsert(&neg, row.data(), 1, dim).code(),
            StatusCode::kInvalidArgument);
  LiveItem dup[2];
  dup[0].item_id = 3;
  dup[1].item_id = 3;
  auto two = AxisRow(dim, 0);
  two.insert(two.end(), dim, 0.5f);
  EXPECT_EQ(live.Upsert(dup, two.data(), 2, dim).code(),
            StatusCode::kInvalidArgument);
  LiveItem ok;
  ok.item_id = 3;
  EXPECT_EQ(live.Upsert(&ok, row.data(), 1, dim + 1).code(),
            StatusCode::kInvalidArgument);
  const int unknown = 42;
  EXPECT_EQ(live.Remove(&unknown, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(live.size(), 0);
}

}  // namespace
}  // namespace sudowoodo
