// Tests for the int8 quantized storage and scoring path: the kernel
// family (QuantizeRowsI8 / DequantizeRowsI8 / GemmBTI8), the
// bounded top-k selector behind every query stage, the row set's stored
// layouts, and the quantized storage mode of both blocking indexes, the
// facade, and the embedding cache.
//
// The determinism contract under test is STRONGER than fp32's: because
// the int8 panel accumulates in exact int32 arithmetic and rescales with
// one fixed fp32 expression, and the fp32 re-rank runs through the
// tier-independent kernels::Dot chain, int8 query results must be
// bitwise identical across ALL kernel tiers and thread counts - not
// just within one tier. The mutation batteries pin the same rebuild
// oracle the fp32 indexes honor: after any insert/remove/compaction/
// retrain sequence, queries equal a from-scratch int8 index built on
// the surviving rows, bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/cleaning_dataset.h"
#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "index/quant_store.h"
#include "index/top_k.h"
#include "pipeline/cleaning_pipeline.h"
#include "tensor/kernels.h"

namespace sudowoodo {
namespace {

namespace ks = tensor::kernels;
using index::BlockingIndex;
using index::BlockingIndexKind;
using index::BlockingIndexOptions;
using index::EmbeddingCache;
using index::IndexStorage;
using index::IvfOptions;
using index::MutationOptions;
using index::Neighbor;
using index::StorageOptions;
using ks::KernelTier;

class ScopedTier {
 public:
  explicit ScopedTier(KernelTier t) { EXPECT_TRUE(ks::SetKernelTier(t)); }
  ~ScopedTier() { ks::ResetKernelTier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : {KernelTier::kPortable, KernelTier::kNeon,
                       KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (ks::KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// L2-normalized clustered rows (the blocking workload shape): items
/// scatter around shared cluster centers, so nearest neighbours are
/// meaningful and quantization error is representative.
std::vector<float> ClusteredUnitRows(int n, int dim, uint64_t seed,
                                     int n_clusters = 32,
                                     float noise = 0.25f) {
  Rng center_rng(seed * 1315423911ULL + 7);
  std::vector<float> centers(static_cast<size_t>(n_clusters) * dim);
  for (auto& x : centers) x = static_cast<float>(center_rng.Gaussian());
  Rng rng(seed);
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    const float* c =
        centers.data() +
        static_cast<size_t>(rng.UniformInt(n_clusters)) *
            dim;
    float* r = rows.data() + static_cast<size_t>(i) * dim;
    double norm = 0.0;
    for (int j = 0; j < dim; ++j) {
      r[j] = c[j] + noise * static_cast<float>(rng.Gaussian());
      norm += static_cast<double>(r[j]) * r[j];
    }
    const float inv = norm > 0 ? 1.0f / std::sqrt(static_cast<float>(norm))
                               : 0.0f;
    for (int j = 0; j < dim; ++j) r[j] *= inv;
  }
  return rows;
}

void ExpectSameNeighbors(const std::vector<std::vector<Neighbor>>& a,
                         const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t j = 0; j < a[q].size(); ++j) {
      EXPECT_EQ(a[q][j].id, b[q][j].id) << "query " << q << " rank " << j;
      // Bitwise: the determinism contract, not a tolerance.
      EXPECT_EQ(a[q][j].sim, b[q][j].sim) << "query " << q << " rank " << j;
    }
  }
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
BlockingIndexOptions Ivf(const IvfOptions& ivf = {},
                         const MutationOptions& mutation = {},
                         const StorageOptions& storage = {}) {
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kIvf;
  o.ivf = ivf;
  o.mutation = mutation;
  o.storage = storage;
  return o;
}

/// Top-k of every row of `q`, probing the index's default nprobe.
std::vector<std::vector<Neighbor>> StatusQuery(const BlockingIndex& idx,
                                               const std::vector<float>& q,
                                               int dim, int k,
                                               int threads = 1) {
  std::vector<std::vector<Neighbor>> out;
  const int nq = static_cast<int>(q.size()) / dim;
  EXPECT_TRUE(idx.QueryBatch(q.data(), nq, dim, k, &out, threads).ok());
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

double RecallAtK(const std::vector<std::vector<Neighbor>>& truth,
                 const std::vector<std::vector<Neighbor>>& got) {
  size_t hit = 0, total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    for (const Neighbor& t : truth[q]) {
      ++total;
      for (const Neighbor& g : got[q]) {
        if (g.id == t.id) {
          ++hit;
          break;
        }
      }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(hit) / total;
}

// ---------------------------------------------------------------------
// Kernel family
// ---------------------------------------------------------------------

TEST(QuantKernelTest, RoundTripErrorBound) {
  const int m = 37, n = 64;
  const std::vector<float> x = ClusteredUnitRows(m, n, 11);
  std::vector<int8_t> q(static_cast<size_t>(m) * n);
  std::vector<float> scales(m), back(static_cast<size_t>(m) * n);
  ks::QuantizeRowsI8(m, n, x.data(), q.data(), scales.data());
  ks::DequantizeRowsI8(m, n, q.data(), scales.data(), back.data());
  for (int i = 0; i < m; ++i) {
    float max_abs = 0.0f;
    for (int j = 0; j < n; ++j) {
      max_abs = std::max(max_abs, std::fabs(x[static_cast<size_t>(i) * n + j]));
    }
    // Per-row symmetric scale: max|x| / 127, and every element's
    // round-to-nearest error is at most half a code step.
    EXPECT_NEAR(scales[static_cast<size_t>(i)], max_abs / 127.0f,
                max_abs * 1e-6f);
    for (int j = 0; j < n; ++j) {
      const size_t at = static_cast<size_t>(i) * n + j;
      EXPECT_GE(q[at], -127);
      EXPECT_LE(q[at], 127);
      EXPECT_LE(std::fabs(back[at] - x[at]),
                0.5f * scales[static_cast<size_t>(i)] + 1e-7f)
          << "row " << i << " col " << j;
    }
  }
}

TEST(QuantKernelTest, ZeroAndNonFiniteRows) {
  const int n = 16;
  std::vector<float> x(3 * n, 0.0f);
  // Row 1: all zero. Row 0: finite values. Row 2: non-finite elements
  // mixed in - they are excluded from the scale and quantize to 0, so a
  // poisoned embedding cannot blow up the whole row's precision.
  for (int j = 0; j < n; ++j) x[static_cast<size_t>(j)] = 0.1f * (j - 8);
  for (int j = 0; j < n; ++j) {
    x[static_cast<size_t>(2 * n + j)] = 0.25f;
  }
  x[2 * n + 3] = std::numeric_limits<float>::infinity();
  x[2 * n + 7] = std::numeric_limits<float>::quiet_NaN();
  std::vector<int8_t> q(3 * n);
  std::vector<float> scales(3);
  ks::QuantizeRowsI8(3, n, x.data(), q.data(), scales.data());
  EXPECT_EQ(scales[1], 0.0f);
  for (int j = 0; j < n; ++j) EXPECT_EQ(q[static_cast<size_t>(n + j)], 0);
  EXPECT_EQ(scales[2], 0.25f / 127.0f);
  EXPECT_EQ(q[2 * n + 3], 0);
  EXPECT_EQ(q[2 * n + 7], 0);
  EXPECT_EQ(q[2 * n + 1], 127);
}

// The int8 dot inside every tier's GemmBTI8, read through a 1x1 panel
// with unit scales: C = float(dot) * (1 * 1) is exact while |dot| < 2^24
// (here |dot| <= 301 * 127^2), so C must equal the int64 dot. The odd
// length exercises every tier's vector tail.
TEST(QuantKernelTest, DotI8MatchesWideReference) {
  Rng rng(5);
  const int n = 301;
  std::vector<int8_t> a(n), b(n);
  for (auto& v : a) {
    v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  }
  for (auto& v : b) {
    v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  }
  int64_t want = 0;
  for (int i = 0; i < n; ++i) {
    want += static_cast<int64_t>(a[static_cast<size_t>(i)]) *
            b[static_cast<size_t>(i)];
  }
  const float one = 1.0f;
  for (KernelTier t : AvailableTiers()) {
    ScopedTier tier(t);
    float c = 0.0f;
    ks::GemmBTI8(1, 1, n, a.data(), &one, b.data(), &one, &c);
    EXPECT_EQ(static_cast<int64_t>(c), want) << ks::KernelTierName(t);
  }
}

TEST(QuantKernelTest, GemmBTI8BitwiseAcrossTiersAndThreads) {
  const int m = 13, n = 57, k = 64;
  const std::vector<float> af = ClusteredUnitRows(m, k, 3);
  const std::vector<float> bf = ClusteredUnitRows(n, k, 4);
  std::vector<int8_t> aq(static_cast<size_t>(m) * k), bq(static_cast<size_t>(n) * k);
  std::vector<float> as(m), bs(n);
  ks::QuantizeRowsI8(m, k, af.data(), aq.data(), as.data());
  ks::QuantizeRowsI8(n, k, bf.data(), bq.data(), bs.data());

  // The reference: a plain int32 dot per element and the rescale
  // expression of the kernels.h contract.
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t dot = 0;
      for (int l = 0; l < k; ++l) {
        dot += static_cast<int32_t>(aq[static_cast<size_t>(i * k + l)]) *
               bq[static_cast<size_t>(j * k + l)];
      }
      ref[static_cast<size_t>(i * n + j)] +=
          static_cast<float>(dot) * (as[static_cast<size_t>(i)] *
                                     bs[static_cast<size_t>(j)]);
    }
  }
  ThreadPool pool(4);
  for (KernelTier t : AvailableTiers()) {
    ScopedTier tier(t);
    std::vector<float> got(static_cast<size_t>(m) * n, 0.0f);
    ks::GemmBTI8(m, n, k, aq.data(), as.data(), bq.data(), bs.data(),
                 got.data());
    // Integer accumulation + one fixed rescale expression: every tier
    // must match the reference bit for bit (unlike fp32 GemmBT, whose
    // tiers follow different rounding chains).
    EXPECT_EQ(got, ref) << ks::KernelTierName(t);
    std::vector<float> threaded(static_cast<size_t>(m) * n, 0.0f);
    ks::GemmBTI8(m, n, k, aq.data(), as.data(), bq.data(), bs.data(),
                 threaded.data(), &pool, 4);
    EXPECT_EQ(threaded, ref) << ks::KernelTierName(t) << " threaded";
  }
}

// Into a nonzero C the rescale's final add matters: an FMA tier that
// fused `c + float(dot) * scale` would round once where the plain chain
// rounds twice. The int8 panel compiles with contraction off on every
// tier, so every tier must still equal the plain chain bit for bit.
TEST(QuantKernelTest, GemmBTI8IntoNonzeroCBitwiseAcrossTiers) {
  const int m = 13, n = 57, k = 64;
  const std::vector<float> af = ClusteredUnitRows(m, k, 5);
  const std::vector<float> bf = ClusteredUnitRows(n, k, 6);
  std::vector<int8_t> aq(static_cast<size_t>(m) * k), bq(static_cast<size_t>(n) * k);
  std::vector<float> as(m), bs(n);
  ks::QuantizeRowsI8(m, k, af.data(), aq.data(), as.data());
  ks::QuantizeRowsI8(n, k, bf.data(), bq.data(), bs.data());
  std::vector<float> c0(static_cast<size_t>(m) * n);
  Rng rng(7);
  for (auto& v : c0) v = static_cast<float>(rng.Gaussian());

  std::vector<float> ref = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t dot = 0;
      for (int l = 0; l < k; ++l) {
        dot += static_cast<int32_t>(aq[static_cast<size_t>(i * k + l)]) *
               bq[static_cast<size_t>(j * k + l)];
      }
      ref[static_cast<size_t>(i * n + j)] +=
          static_cast<float>(dot) * (as[static_cast<size_t>(i)] *
                                     bs[static_cast<size_t>(j)]);
    }
  }
  for (KernelTier t : AvailableTiers()) {
    ScopedTier tier(t);
    std::vector<float> got = c0;
    ks::GemmBTI8(m, n, k, aq.data(), as.data(), bq.data(), bs.data(),
                 got.data());
    size_t differ = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      uint32_t g, r;
      std::memcpy(&g, &got[i], sizeof g);
      std::memcpy(&r, &ref[i], sizeof r);
      differ += g != r;
    }
    EXPECT_EQ(differ, 0u) << ks::KernelTierName(t) << ": " << differ << " of "
                          << got.size() << " outputs differ";
  }
}

// ---------------------------------------------------------------------
// The bounded selector (index/top_k.h) against a full sort
// ---------------------------------------------------------------------

/// Bit pattern of a float, so NaN results compare equal to themselves.
uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Seeded scores built to stress the order: heavy exact ties, both
/// signed zeros, NaN and both infinities.
std::vector<float> AdversarialScores(int n, Rng* rng) {
  std::vector<float> scores(static_cast<size_t>(n));
  for (float& s : scores) {
    switch (rng->UniformInt(10)) {
      case 0: s = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: s = std::numeric_limits<float>::infinity(); break;
      case 2: s = -std::numeric_limits<float>::infinity(); break;
      case 3: s = 0.0f; break;
      case 4: s = -0.0f; break;
      default: s = static_cast<float>(rng->UniformInt(6)) * 0.25f - 0.5f;
    }
  }
  return scores;
}

/// One offered candidate of the reference: (score, id, table, pos).
struct Offered {
  float score;
  int id;
  int table;
  int pos;
};

/// The reference order, written out independently of the selector:
/// non-NaN before NaN, score descending, then id ascending.
bool RefBefore(const Offered& a, const Offered& b) {
  const bool na = std::isnan(a.score), nb = std::isnan(b.score);
  if (na != nb) return nb;
  if (!na && a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// `n` positions with distinct shuffled ids, about one in five
/// tombstoned (id -1).
std::vector<int> ShuffledIdsWithTombstones(int n, int id_base, Rng* rng) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = id_base + i;
  rng->Shuffle(&ids);
  for (int& id : ids) {
    if (rng->UniformInt(5) == 0) id = -1;
  }
  return ids;
}

TEST(TopKSelectorTest, EqualsFullSortWithTiesNonFiniteAndTombstones) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + rng.UniformInt(trial < 10 ? 8 : 300);
    const std::vector<float> scores = AdversarialScores(n, &rng);
    const std::vector<int> ids = ShuffledIdsWithTombstones(n, 0, &rng);
    std::vector<Offered> live;
    for (int pos = 0; pos < n; ++pos) {
      const int id = ids[static_cast<size_t>(pos)];
      if (id >= 0) {
        live.push_back({scores[static_cast<size_t>(pos)], id, 0, pos});
      }
    }
    std::sort(live.begin(), live.end(), RefBefore);
    for (int k : {0, 1, n - 1, n, n + 5}) {
      index::TopKSelector sel;
      sel.Reset(k);
      sel.PushScores(scores.data(), ids.data(), n);
      std::vector<Neighbor> got;
      sel.SortedInto(&got);
      const size_t want =
          std::min(live.size(), static_cast<size_t>(std::max(k, 0)));
      ASSERT_EQ(got.size(), want) << "trial " << trial << " k=" << k;
      for (size_t i = 0; i < want; ++i) {
        EXPECT_EQ(got[i].id, live[i].id) << "trial " << trial << " k=" << k;
        EXPECT_EQ(Bits(got[i].sim), Bits(live[i].score))
            << "trial " << trial << " k=" << k;
      }
    }
  }
}

TEST(TopKSelectorTest, PositionsAsIdsAndOfferOrderDoNotMatter) {
  // ids == nullptr ranks positions as ids (probe selection, nearest
  // cell); offering the same candidates in any order selects the same
  // sorted result, which is what lets IVF push cell by cell.
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + rng.UniformInt(120);
    const std::vector<float> scores = AdversarialScores(n, &rng);
    for (int k : {1, 3, n}) {
      index::TopKSelector whole;
      whole.Reset(k);
      whole.PushScores(scores.data(), nullptr, n);
      const std::vector<index::TopKSelector::Entry> want = whole.Sorted();

      std::vector<int> order(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
      rng.Shuffle(&order);
      index::TopKSelector shuffled;
      shuffled.Reset(k);
      for (int pos : order) {
        shuffled.Push(scores[static_cast<size_t>(pos)], pos);
      }
      const std::vector<index::TopKSelector::Entry>& got = shuffled.Sorted();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "trial " << trial << " k=" << k;
        EXPECT_EQ(Bits(got[i].score), Bits(want[i].score));
      }
    }
  }
}

TEST(TopKSelectorTest, CandidateStageKeepsTheTopRRowsWithNaN) {
  // The int8 candidate stage: several tables (IVF cells) offered one
  // after another, tombstones skipped, NaN scores present. The kept
  // (table, position) set is the top r of the full sort.
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const int tables = 1 + rng.UniformInt(5);
    std::vector<std::vector<float>> scores;
    std::vector<std::vector<int>> ids;
    std::vector<Offered> live;
    int id_base = 0;
    for (int t = 0; t < tables; ++t) {
      const int n = rng.UniformInt(60);
      scores.push_back(AdversarialScores(n, &rng));
      ids.push_back(ShuffledIdsWithTombstones(n, id_base, &rng));
      id_base += n;
      for (int pos = 0; pos < n; ++pos) {
        const int id = ids.back()[static_cast<size_t>(pos)];
        if (id >= 0) {
          live.push_back({scores.back()[static_cast<size_t>(pos)], id, t, pos});
        }
      }
    }
    std::sort(live.begin(), live.end(), RefBefore);
    for (int r : {0, 1, 7, 64, static_cast<int>(live.size()) + 3}) {
      index::TopKSelector sel;
      sel.Reset(r);
      for (int t = 0; t < tables; ++t) {
        sel.PushScores(scores[static_cast<size_t>(t)].data(),
                       ids[static_cast<size_t>(t)].data(),
                       static_cast<int>(ids[static_cast<size_t>(t)].size()), t);
      }
      std::vector<std::pair<int, int>> got, want;
      for (const auto& e : sel.entries()) got.emplace_back(e.table, e.pos);
      const size_t kept = std::min(live.size(), static_cast<size_t>(r));
      for (size_t i = 0; i < kept; ++i) {
        want.emplace_back(live[i].table, live[i].pos);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "trial " << trial << " r=" << r;
    }
  }
}

// ---------------------------------------------------------------------
// RowSet histories against a row-major reference
// ---------------------------------------------------------------------

TEST(RowSetHistoryTest, ExportAndRowsMatchRowMajorReference) {
  // Seeded append / remove (compaction fractions 0, 0.25, 1) /
  // repartition histories. The reference keeps each live row's fp32
  // image row-major: the appended row under fp32, its quantize-once
  // dequantized image under int8. ExportLive and DequantizeRowInto must
  // reproduce it bitwise, fp32 panel padding must stay zero, and
  // bytes_resident must count the stored panels, padding included.
  const int dim = 19;  // ragged against every vector width
  for (IndexStorage mode : {IndexStorage::kFp32, IndexStorage::kInt8}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      Rng rng(seed * 101);
      index::RowSet rows(dim, mode, 3);
      std::map<int, std::vector<float>> ref;  // live id -> fp32 image
      for (int step = 0; step < 60; ++step) {
        const int op = rng.UniformInt(10);
        if (op < 5 || ref.empty()) {
          const int n = 1 + rng.UniformInt(40);
          std::vector<float> batch(static_cast<size_t>(n) * dim);
          for (float& v : batch) v = static_cast<float>(rng.Gaussian());
          const int first = rows.next_id();
          rows.Append(rng.UniformInt(rows.num_tables()), batch.data(), n);
          for (int i = 0; i < n; ++i) {
            const float* src = batch.data() + static_cast<size_t>(i) * dim;
            std::vector<float> image(src, src + dim);
            if (mode == IndexStorage::kInt8) {
              std::vector<int8_t> q(static_cast<size_t>(dim));
              float scale = 0.0f;
              ks::QuantizeRowsI8(1, dim, image.data(), q.data(), &scale);
              ks::DequantizeRowsI8(1, dim, q.data(), &scale, image.data());
            }
            ref[first + i] = image;
          }
        } else if (op < 9) {
          std::vector<int> live;
          for (const auto& kv : ref) live.push_back(kv.first);
          rng.Shuffle(&live);
          live.resize(1 + static_cast<size_t>(rng.UniformInt(
                              static_cast<int>(live.size()))));
          const float fractions[] = {0.0f, 0.25f, 1.0f};
          ASSERT_TRUE(rows.Remove(live.data(), static_cast<int>(live.size()),
                                  fractions[rng.UniformInt(3)])
                          .ok());
          for (int id : live) ref.erase(id);
        } else {
          const int tables = 1 + rng.UniformInt(4);
          std::vector<int> table_of(ref.size());
          for (int& t : table_of) t = rng.UniformInt(tables);
          rows = rows.Repartition(table_of, tables);
        }

        std::vector<float> exported;
        std::vector<int> ids;
        rows.ExportLive(&exported, &ids);
        ASSERT_EQ(ids.size(), ref.size()) << "step " << step;
        size_t i = 0;
        for (const auto& kv : ref) {
          ASSERT_EQ(ids[i], kv.first) << "step " << step;
          for (int l = 0; l < dim; ++l) {
            ASSERT_EQ(Bits(exported[i * dim + static_cast<size_t>(l)]),
                      Bits(kv.second[static_cast<size_t>(l)]))
                << "step " << step << " id " << kv.first;
          }
          ++i;
        }
        std::vector<float> row(static_cast<size_t>(dim));
        size_t want_bytes = 0;
        for (int t = 0; t < rows.num_tables(); ++t) {
          const index::RowSet::Table& table = rows.table(t);
          const int stored = static_cast<int>(table.ids.size());
          ASSERT_EQ(table.store.size(), stored);
          want_bytes +=
              static_cast<size_t>(stored) * sizeof(int) +
              (mode == IndexStorage::kFp32
                   ? ks::PackedFloats(stored, dim) * sizeof(float)
                   : static_cast<size_t>(stored) * (dim + sizeof(float)));
          for (int pos = 0; pos < stored; ++pos) {
            const int id = table.ids[static_cast<size_t>(pos)];
            if (id < 0) continue;
            table.store.DequantizeRowInto(pos, row.data());
            for (int l = 0; l < dim; ++l) {
              ASSERT_EQ(Bits(row[static_cast<size_t>(l)]),
                        Bits(ref.at(id)[static_cast<size_t>(l)]))
                  << "step " << step << " id " << id;
            }
          }
          if (mode != IndexStorage::kFp32) continue;
          const int padded = static_cast<int>(ks::PackedFloats(stored, 1));
          for (int pos = stored; pos < padded; ++pos) {
            for (int l = 0; l < dim; ++l) {
              const size_t at = ks::PackedRowOffset(pos, dim) +
                                static_cast<size_t>(l) * ks::kPackedPanelRows;
              ASSERT_EQ(Bits(table.store.panels()[at]), 0u)
                  << "padding row " << pos << " of table " << t;
            }
          }
        }
        ASSERT_EQ(rows.bytes_resident(), want_bytes) << "step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Exact scan, int8 storage
// ---------------------------------------------------------------------

TEST(KnnIndexInt8Test, RerankDepthLosesAlmostNothing) {
  // The int8 recall ceiling is set by the 8-bit row representation (the
  // fp32 re-rank scores dequantized rows; near-ties inside dense
  // clusters shuffle), NOT by the top-R preselection. This test pins
  // that split: the default depth must be within 0.005 recall of
  // exhaustively fp32-re-ranking EVERY row (R = n), and the absolute
  // level must stay in the representation's band. End-to-end blocking
  // quality is gated separately (bench_table7 int8 check: delta <= 0.01
  // vs fp32, measured 0.0000 on the paper tables).
  const int n = 4000, dim = 64, nq = 300, k = 10;
  const std::vector<float> rows = ClusteredUnitRows(n, dim, 21);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 22);
  BlockingIndex fp32(rows.data(), n, dim, Exact());
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  BlockingIndex int8(rows.data(), n, dim, Exact(MutationOptions{}, so));
  StorageOptions exhaustive = so;
  exhaustive.rerank_min = n;  // preselect everything: the depth oracle
  BlockingIndex int8_full(rows.data(), n, dim,
                          Exact(MutationOptions{}, exhaustive));
  const auto truth = StatusQuery(fp32, queries, dim, k, 4);
  const double r_depth =
      RecallAtK(truth, StatusQuery(int8, queries, dim, k, 4));
  const double r_full =
      RecallAtK(truth, StatusQuery(int8_full, queries, dim, k, 4));
  EXPECT_LE(r_full - r_depth, 0.005);
  EXPECT_GE(r_depth, 0.9);
}

TEST(KnnIndexInt8Test, BitwiseAcrossTiersThreadsAndSingleQuery) {
  const int n = 1500, dim = 48, nq = 64, k = 12;
  const std::vector<float> rows = ClusteredUnitRows(n, dim, 31);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 32);
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  BlockingIndex idx(rows.data(), n, dim, Exact(MutationOptions{}, so));
  std::vector<std::vector<Neighbor>> ref;
  {
    ScopedTier tier(KernelTier::kPortable);
    ref = StatusQuery(idx, queries, dim, k, 1);
  }
  for (KernelTier t : AvailableTiers()) {
    ScopedTier tier(t);
    for (int threads : {1, 2, 4}) {
      ExpectSameNeighbors(StatusQuery(idx, queries, dim, k, threads), ref);
    }
    // Single Query is the m = 1 edge of the same path.
    std::vector<Neighbor> one;
    ASSERT_TRUE(idx.Query(queries.data(), dim, k, &one).ok());
    ExpectSameNeighbors({one}, {ref[0]});
  }
}

/// Applies an insert/remove battery and checks queries stay bitwise
/// equal to a from-scratch int8 index on the surviving rows.
TEST(KnnIndexInt8Test, MutationsMatchRebuildOracle) {
  const int dim = 32, k = 8, nq = 40;
  const std::vector<float> all = ClusteredUnitRows(400, dim, 41);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 42);
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  MutationOptions mo;
  mo.compact_tombstone_fraction = 0.2f;  // force compactions mid-battery
  BlockingIndex idx(all.data(), 100, dim, Exact(mo, so));
  std::map<int, const float*> live;
  for (int i = 0; i < 100; ++i) live[i] = all.data() + static_cast<size_t>(i) * dim;

  int next = 100;
  Rng rng(43);
  for (int step = 0; step < 6; ++step) {
    const int n_ins = 20 + step;
    ASSERT_TRUE(idx.Insert(all.data() + static_cast<size_t>(next) * dim, n_ins,
                           dim).ok());
    for (int i = 0; i < n_ins; ++i) {
      live[next + i] = all.data() + static_cast<size_t>(next + i) * dim;
    }
    next += n_ins;
    std::vector<int> doomed;
    for (const auto& [id, row] : live) {
      (void)row;
      if (rng.UniformInt(4) == 0) doomed.push_back(id);
    }
    if (!doomed.empty()) {
      ASSERT_TRUE(idx.Remove(doomed.data(),
                             static_cast<int>(doomed.size())).ok());
      for (int id : doomed) live.erase(id);
    }

    std::vector<float> srows;
    std::vector<int> sids;
    for (const auto& [id, row] : live) {
      sids.push_back(id);
      srows.insert(srows.end(), row, row + dim);
    }
    BlockingIndex rebuilt(srows.data(), sids.data(),
                          static_cast<int>(sids.size()), dim, Exact(mo, so));
    for (KernelTier t : AvailableTiers()) {
      ScopedTier tier(t);
      for (int threads : {1, 4}) {
        ExpectSameNeighbors(StatusQuery(idx, queries, dim, k, threads),
                            StatusQuery(rebuilt, queries, dim, k, threads));
      }
    }
  }
  EXPECT_EQ(idx.size(), static_cast<int>(live.size()));
}

TEST(KnnIndexInt8Test, ExportLiveStoreMigratesBitwise) {
  const int n = 300, dim = 24, nq = 20, k = 5;
  const std::vector<float> rows = ClusteredUnitRows(n, dim, 51);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 52);
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  BlockingIndex idx(rows.data(), n, dim, Exact(MutationOptions{}, so));
  std::vector<int> doomed = {3, 77, 150, 299};
  ASSERT_TRUE(idx.Remove(doomed.data(), 4).ok());

  // The kAuto migration path: the exact scan's row set partitioned into
  // IVF cells, ids and next_id kept, (codes, scale) pairs moved verbatim.
  // The same history on a kAuto index: built below its threshold over
  // rows [0, n - 4), it reaches the threshold when the last four rows
  // arrive after three of the removals, migrates with their tombstones
  // in place, and takes the fourth removal in a cell.
  BlockingIndexOptions auto_opts;
  auto_opts.kind = BlockingIndexKind::kAuto;
  auto_opts.exact_threshold = n - 3;
  auto_opts.storage = so;
  auto_opts.ivf.nprobe = 1 << 20;  // probe everything: exact over the rows
  BlockingIndex ivf(rows.data(), n - 4, dim, auto_opts);
  ASSERT_FALSE(ivf.using_ivf());
  ASSERT_TRUE(ivf.Remove(doomed.data(), 3).ok());
  ASSERT_TRUE(
      ivf.Insert(rows.data() + static_cast<size_t>(n - 4) * dim, 4, dim).ok());
  ASSERT_TRUE(ivf.using_ivf());
  ASSERT_TRUE(ivf.Remove(&doomed[3], 1).ok());
  EXPECT_EQ(ivf.size(), idx.size());
  EXPECT_EQ(ivf.next_id(), idx.next_id());
  ExpectSameNeighbors(ProbeQuery(ivf, queries, dim, k, ivf.num_cells()),
                      StatusQuery(idx, queries, dim, k));
}

// ---------------------------------------------------------------------
// IVF index, int8 storage
// ---------------------------------------------------------------------

TEST(IvfIndexInt8Test, AllCellsProbedEqualsExactAndNprobeRecall) {
  const int n = 5000, dim = 64, nq = 200, k = 10;
  const std::vector<float> rows = ClusteredUnitRows(n, dim, 61);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 62);
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  BlockingIndex ivf(rows.data(), n, dim,
                    Ivf(IvfOptions{}, MutationOptions{}, so));
  BlockingIndex exact(rows.data(), n, dim, Exact(MutationOptions{}, so));

  // nprobe >= cells probes every cell: the candidate set is every live
  // row regardless of the trained layout, so results must equal the
  // int8 exact index bitwise.
  ExpectSameNeighbors(ProbeQuery(ivf, queries, dim, k, ivf.num_cells(), 2),
                      StatusQuery(exact, queries, dim, k, 2));

  // And at the default probe budget, recall against the fp32 oracle
  // stays in the same band the fp32 IVF path promises.
  BlockingIndex fp32(rows.data(), n, dim, Exact());
  const auto truth = StatusQuery(fp32, queries, dim, k, 2);
  const auto got = ProbeQuery(ivf, queries, dim, k, /*nprobe=*/16, 2);
  EXPECT_GE(RecallAtK(truth, got), 0.95);
}

TEST(IvfIndexInt8Test, MutationsMatchRebuildOracle) {
  const int dim = 32, k = 8, nq = 30;
  const std::vector<float> all = ClusteredUnitRows(1200, dim, 71);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 72);
  StorageOptions so;
  so.storage = IndexStorage::kInt8;
  MutationOptions mo;
  mo.compact_tombstone_fraction = 0.15f;
  mo.retrain_insert_fraction = 0.3f;  // force retrains mid-battery
  IvfOptions io;
  io.num_cells = 16;
  BlockingIndex ivf(all.data(), 400, dim, Ivf(io, mo, so));
  std::map<int, const float*> live;
  for (int i = 0; i < 400; ++i) {
    live[i] = all.data() + static_cast<size_t>(i) * dim;
  }
  int next = 400;
  Rng rng(73);
  for (int step = 0; step < 4; ++step) {
    const int n_ins = 150;
    ASSERT_TRUE(ivf.Insert(all.data() + static_cast<size_t>(next) * dim,
                           n_ins, dim).ok());
    for (int i = 0; i < n_ins; ++i) {
      live[next + i] = all.data() + static_cast<size_t>(next + i) * dim;
    }
    next += n_ins;
    std::vector<int> doomed;
    for (const auto& [id, row] : live) {
      (void)row;
      if (rng.UniformInt(5) == 0) doomed.push_back(id);
    }
    ASSERT_TRUE(ivf.Remove(doomed.data(),
                           static_cast<int>(doomed.size())).ok());
    for (int id : doomed) live.erase(id);

    std::vector<float> srows;
    std::vector<int> sids;
    for (const auto& [id, row] : live) {
      sids.push_back(id);
      srows.insert(srows.end(), row, row + dim);
    }
    BlockingIndex rebuilt(srows.data(), sids.data(),
                          static_cast<int>(sids.size()), dim,
                          Ivf(io, mo, so));
    // With every cell probed the candidate set is the full live row set
    // on both sides, so the mutated index must equal the from-scratch
    // rebuild bitwise even though their trained cell layouts differ.
    const int p = std::max(ivf.num_cells(), rebuilt.num_cells());
    for (int threads : {1, 4}) {
      ExpectSameNeighbors(ProbeQuery(ivf, queries, dim, k, p, threads),
                          ProbeQuery(rebuilt, queries, dim, k, p, threads));
    }
  }
  EXPECT_GT(ivf.retrain_count(), 0);
}

// ---------------------------------------------------------------------
// Facade + memory accounting
// ---------------------------------------------------------------------

TEST(BlockingIndexInt8Test, AutoMigrationPreservesResults) {
  const int dim = 32, k = 6, nq = 25;
  const std::vector<float> all = ClusteredUnitRows(1400, dim, 81);
  const std::vector<float> queries = ClusteredUnitRows(nq, dim, 82);
  BlockingIndexOptions o;
  o.kind = BlockingIndexKind::kAuto;
  o.exact_threshold = 1000;
  o.storage.storage = IndexStorage::kInt8;
  o.ivf.num_cells = 12;
  BlockingIndex idx(all.data(), 900, dim, o);
  EXPECT_FALSE(idx.using_ivf());
  ASSERT_TRUE(idx.Insert(all.data() + static_cast<size_t>(900) * dim, 500,
                         dim).ok());
  EXPECT_TRUE(idx.using_ivf());
  // Migration carries the (codes, scale) rows verbatim, so the migrated
  // facade equals a from-scratch facade over the same 1400 rows (same
  // ids 0..1399, same quantization, same k-means input).
  BlockingIndex fresh(all.data(), 1400, dim, o);
  ExpectSameNeighbors(StatusQuery(idx, queries, dim, k, 2),
                      StatusQuery(fresh, queries, dim, k, 2));
}

TEST(BlockingIndexInt8Test, BytesResidentShrinksBelowThirtyPercent) {
  const int n = 2000, dim = 64;
  const std::vector<float> rows = ClusteredUnitRows(n, dim, 91);
  BlockingIndexOptions fp;
  fp.kind = BlockingIndexKind::kExact;
  BlockingIndexOptions i8 = fp;
  i8.storage.storage = IndexStorage::kInt8;
  BlockingIndex a(rows.data(), n, dim, fp);
  BlockingIndex b(rows.data(), n, dim, i8);
  EXPECT_GT(a.bytes_resident(), 0u);
  // dim-64 int8 row: 64B codes + 4B scale + 4B id = 72B vs 260B fp32.
  EXPECT_LE(static_cast<double>(b.bytes_resident()),
            0.30 * static_cast<double>(a.bytes_resident()));
}

// ---------------------------------------------------------------------
// Embedding cache, int8 entries
// ---------------------------------------------------------------------

TEST(EmbeddingCacheInt8Test, HitReturnsTheQuantizedImage) {
  const int dim = 48;
  EmbeddingCache cache(64, 4, IndexStorage::kInt8);
  const std::vector<float> row = ClusteredUnitRows(1, dim, 101);
  const std::vector<int> key = {1, 2, 3};
  std::vector<float> probe(dim);
  EXPECT_FALSE(cache.Lookup(key, probe.data(), dim));
  cache.Insert(key, row.data(), dim);
  std::vector<float> got(dim);
  ASSERT_TRUE(cache.Lookup(key, got.data(), dim));
  // The hit is the exact quantize->dequantize image of the insert - the
  // same representation the int8 indexes score, not approximately it.
  std::vector<int8_t> q(dim);
  float scale = 0.0f;
  std::vector<float> want(dim);
  ks::QuantizeRowsI8(1, dim, row.data(), q.data(), &scale);
  ks::DequantizeRowsI8(1, dim, q.data(), &scale, want.data());
  EXPECT_EQ(got, want);
  for (int j = 0; j < dim; ++j) {
    EXPECT_LE(std::fabs(got[static_cast<size_t>(j)] -
                        row[static_cast<size_t>(j)]),
              0.5f * scale + 1e-7f);
  }
}

TEST(EmbeddingCacheInt8Test, WrongWidthIsAMissAndEraseWorks) {
  const int dim = 32;
  EmbeddingCache cache(16, 2, IndexStorage::kInt8);
  const std::vector<float> row = ClusteredUnitRows(1, dim, 102);
  const std::vector<int> key = {9, 9};
  cache.Insert(key, row.data(), dim);
  std::vector<float> out(dim);
  EXPECT_FALSE(cache.Lookup(key, out.data(), dim / 2));
  EXPECT_TRUE(cache.Lookup(key, out.data(), dim));
  EXPECT_TRUE(cache.Erase(key));
  EXPECT_FALSE(cache.Lookup(key, out.data(), dim));
}

TEST(EmbeddingCacheInt8Test, BytesResidentShrinksVsFp32) {
  const int dim = 64, n_entries = 50;
  EmbeddingCache fp(256, 4, IndexStorage::kFp32);
  EmbeddingCache i8(256, 4, IndexStorage::kInt8);
  const std::vector<float> rows = ClusteredUnitRows(n_entries, dim, 103);
  for (int i = 0; i < n_entries; ++i) {
    const std::vector<int> key = {i};
    fp.Insert(key, rows.data() + static_cast<size_t>(i) * dim, dim);
    i8.Insert(key, rows.data() + static_cast<size_t>(i) * dim, dim);
  }
  const auto sf = fp.stats();
  const auto si = i8.stats();
  EXPECT_EQ(sf.entries, static_cast<uint64_t>(n_entries));
  EXPECT_EQ(si.entries, static_cast<uint64_t>(n_entries));
  EXPECT_GT(sf.bytes_resident, 0u);
  // Key bytes are shared; the vector payload drops 4x (dim + 4 vs
  // 4*dim bytes), so the total must land well under half.
  EXPECT_LT(si.bytes_resident, sf.bytes_resident / 2);
}

// ---------------------------------------------------------------------
// End to end: pipeline with an int8 cache
// ---------------------------------------------------------------------

TEST(PipelineInt8Test, CleaningRunsWithInt8CacheAtSaneQuality) {
  data::CleaningSpec spec = data::GetCleaningSpec("beers");
  spec.n_rows = 40;
  const data::CleaningDataset ds = data::GenerateCleaning(spec);
  pipeline::CleaningPipelineOptions o;
  o.skip_pretrain = true;
  o.labeled_rows = 4;
  o.max_train_candidates = 1;
  o.encoder_dim = 32;
  o.max_len = 32;
  o.embedding_cache_capacity = 4096;
  pipeline::CleaningRunResult base = pipeline::CleaningPipeline(o).Run(ds);
  o.embedding_cache_storage = IndexStorage::kInt8;
  pipeline::CleaningRunResult quant = pipeline::CleaningPipeline(o).Run(ds);
  // Quantized cache hits return the int8 image, so outputs may differ
  // from fp32 - but the cache must actually serve hits and end-quality
  // must stay in the same band.
  EXPECT_GT(quant.embed_cache.hits, quant.embed_cache.misses);
  EXPECT_GE(quant.correction.f1, base.correction.f1 - 0.05);
}

}  // namespace
}  // namespace sudowoodo
