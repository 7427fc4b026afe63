// Battery for the content-keyed embedding cache (src/index/
// embedding_cache.h) and its encoder plumbing: hits must be bit-identical
// to fresh encodes, LRU eviction must follow recency, capacity 0 must
// behave exactly like no cache, stale entries must be dropped after
// training, the byte count must be exact, and concurrent hits must be
// data-race free (run under TSan in CI).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "nn/encoder.h"
#include "tensor/tensor.h"

namespace sudowoodo::index {
namespace {

namespace ts = sudowoodo::tensor;
using ts::Tensor;

std::vector<std::vector<int>> RaggedBatch(int n, int vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> batch(static_cast<size_t>(n));
  for (size_t i = 0; i < batch.size(); ++i) {
    const int len = 1 + rng.UniformInt(30);
    for (int t = 0; t < len; ++t) {
      batch[i].push_back(6 + rng.UniformInt(vocab - 6));
    }
  }
  return batch;
}

nn::FastBagConfig SmallConfig() {
  nn::FastBagConfig config;
  config.vocab_size = 200;
  config.max_len = 32;
  config.dim = 16;
  config.hidden_dim = 32;
  return config;
}

TEST(EmbeddingCacheTest, HitIsBitIdenticalToFreshEncode) {
  const auto config = SmallConfig();
  const auto batch = RaggedBatch(40, config.vocab_size, 7);

  nn::FastBagEncoder fresh(config);
  ts::NoGradGuard ng;
  Tensor want = fresh.EncodeBatch(batch, nullptr, /*training=*/false);

  EmbeddingCache cache(256);
  nn::FastBagEncoder cached(config);  // same seed => same weights
  cached.set_embedding_cache(&cache);
  // First pass fills the cache, second is served from it; both must be
  // exactly the uncached floats.
  for (int pass = 0; pass < 2; ++pass) {
    Tensor got = cached.EncodeBatch(batch, nullptr, /*training=*/false);
    for (int i = 0; i < want.rows(); ++i) {
      for (int j = 0; j < want.cols(); ++j) {
        ASSERT_EQ(got.at(i, j), want.at(i, j)) << "pass " << pass;
      }
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(batch.size()));
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(batch.size()));
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EmbeddingCacheTest, DuplicateRowsEncodeOnce) {
  const auto config = SmallConfig();
  std::vector<std::vector<int>> batch(8, std::vector<int>{9, 8, 7, 6});
  EmbeddingCache cache(64);
  nn::FastBagEncoder encoder(config);
  encoder.set_embedding_cache(&cache);
  ts::NoGradGuard ng;
  Tensor out = encoder.EncodeBatch(batch, nullptr, false);
  for (int i = 1; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      ASSERT_EQ(out.at(i, j), out.at(0, j));
    }
  }
  // All 8 rows missed the (empty) cache, but the miss dedupe encoded and
  // stored the sequence exactly once.
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 8u);
}

TEST(EmbeddingCacheTest, LruEvictionOrder) {
  EmbeddingCache cache(/*capacity=*/3, /*num_shards=*/1);
  const std::vector<int> k1{1}, k2{2}, k3{3}, k4{4};
  const float v1 = 1.0f, v2 = 2.0f, v3 = 3.0f, v4 = 4.0f;
  cache.Insert(k1, &v1, 1);
  cache.Insert(k2, &v2, 1);
  cache.Insert(k3, &v3, 1);
  float got = 0.0f;
  // Touch k1 so k2 becomes the least recently used entry.
  EXPECT_TRUE(cache.Lookup(k1, &got, 1));
  cache.Insert(k4, &v4, 1);  // evicts k2
  EXPECT_FALSE(cache.Lookup(k2, &got, 1));
  EXPECT_TRUE(cache.Lookup(k1, &got, 1));
  EXPECT_EQ(got, v1);
  EXPECT_TRUE(cache.Lookup(k3, &got, 1));
  EXPECT_EQ(got, v3);
  EXPECT_TRUE(cache.Lookup(k4, &got, 1));
  EXPECT_EQ(got, v4);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(EmbeddingCacheTest, CapacityZeroDisables) {
  EmbeddingCache cache(0);
  const std::vector<int> key{1, 2, 3};
  const float v = 5.0f;
  cache.Insert(key, &v, 1);
  float got = 0.0f;
  EXPECT_FALSE(cache.Lookup(key, &got, 1));
  EXPECT_EQ(cache.stats().entries, 0u);

  // Through the encoder: capacity 0 behaves exactly like no cache.
  const auto config = SmallConfig();
  const auto batch = RaggedBatch(16, config.vocab_size, 11);
  nn::FastBagEncoder plain(config);
  nn::FastBagEncoder disabled(config);
  disabled.set_embedding_cache(&cache);
  ts::NoGradGuard ng;
  Tensor want = plain.EncodeBatch(batch, nullptr, false);
  Tensor got_t = disabled.EncodeBatch(batch, nullptr, false);
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got_t.at(i, j), want.at(i, j));
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(EmbeddingCacheTest, TrainingInvalidatesStaleEntries) {
  const auto config = SmallConfig();
  const auto batch = RaggedBatch(12, config.vocab_size, 13);
  EmbeddingCache cache(256);
  nn::FastBagEncoder encoder(config);
  encoder.set_embedding_cache(&cache);
  {
    ts::NoGradGuard ng;
    encoder.EncodeBatch(batch, nullptr, false);  // fills the cache
  }
  // Perturb a weight (what an optimizer step does), with a training-mode
  // encode marking the cache dirty, as in a fine-tuning loop.
  encoder.EncodeBatch(batch, nullptr, /*training=*/true);
  encoder.Parameters()[0].data()[0] += 0.5f;

  nn::FastBagEncoder fresh(config);
  fresh.Parameters()[0].data()[0] += 0.5f;
  ts::NoGradGuard ng;
  Tensor want = fresh.EncodeBatch(batch, nullptr, false);
  Tensor got = encoder.EncodeBatch(batch, nullptr, false);
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j)) << "stale cache served";
    }
  }
}

TEST(EmbeddingCacheTest, ConcurrentHitsAreRaceFree) {
  // Capacity far above the insert volume: no shard evicts the pre-filled
  // keys, so every lookup below must hit.
  EmbeddingCache cache(4096);
  // Pre-fill 64 keys.
  for (int k = 0; k < 64; ++k) {
    const std::vector<int> key{k, k + 1, k + 2};
    std::vector<float> vec(8, static_cast<float>(k));
    cache.Insert(key, vec.data(), 8);
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      std::vector<float> got(8);
      for (int rep = 0; rep < 200; ++rep) {
        const int k = (rep * 7 + t * 13) % 64;
        const std::vector<int> key{k, k + 1, k + 2};
        if (!cache.Lookup(key, got.data(), 8) ||
            got[0] != static_cast<float>(k)) {
          ++failures[static_cast<size_t>(t)];
        }
        // Interleave inserts of fresh keys to exercise eviction paths.
        const std::vector<int> extra{1000 + t, rep};
        cache.Insert(extra, got.data(), 8);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[static_cast<size_t>(t)], 0);
  const auto stats = cache.stats();
  EXPECT_GE(stats.hits, 800u);
}

// Regression: the per-shard slice used to be ceil(capacity / num_shards),
// so total live entries could exceed capacity() by up to num_shards - 1
// (e.g. capacity 10 over 8 shards allowed 16). The slices must now sum to
// exactly capacity(), whatever the fill pattern.
TEST(EmbeddingCacheTest, FillPastCapacityNeverExceedsIt) {
  for (const size_t capacity : {1u, 7u, 10u, 13u, 64u}) {
    EmbeddingCache cache(capacity, /*num_shards=*/8);
    std::vector<float> vec(4, 1.0f);
    // 8x oversubscription spread across keys that hash to every shard.
    for (int k = 0; k < static_cast<int>(capacity) * 8; ++k) {
      const std::vector<int> key{k, k * 31 + 7};
      cache.Insert(key, vec.data(), 4);
      EXPECT_LE(cache.stats().entries, cache.capacity())
          << "capacity " << capacity << " exceeded after insert " << k;
    }
    EXPECT_LE(cache.stats().entries, cache.capacity());
    // A hard cap must still be usable: something survives the churn.
    EXPECT_GE(cache.stats().entries, 1u);
    // The byte count is exact: each entry holds its 2-int key and its
    // 4-float vector, 4 bytes apiece.
    const EmbeddingCacheStats full = cache.stats();
    EXPECT_EQ(full.bytes_resident, full.entries * (2 + 4) * 4);
    cache.Clear();
    EXPECT_EQ(cache.stats().bytes_resident, 0u);
  }
}

}  // namespace
}  // namespace sudowoodo::index
