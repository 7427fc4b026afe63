// Allocation-free serving battery for the inference Workspace
// (src/tensor/workspace.h) and the workspace-backed EncodeInference paths.
//
// Two contracts under test:
//   1. Bit-identity: the workspace batched route (Encoder::EncodeInference
//      writing raw buffers through the kernels) produces exactly the
//      floats of the non-workspace per-row Tensor oracle (EncodeBatch in
//      eval mode with the tape on: the graph route), for both encoder
//      kinds at B in {1, 7, 64, 257} (the Transformer at 1, 2 and 3
//      layers).
//   2. Allocation freedom: after one warmup call, steady-state batched
//      encoding performs ZERO heap allocations - counted by the global
//      operator-new replacement in common/alloc_count.h (this file is the
//      one TU of this binary that defines it).

#include "common/alloc_count.h"  // must be included in exactly one TU

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/embedding_cache.h"
#include "nn/encoder.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace sudowoodo::nn {
namespace {

namespace ts = sudowoodo::tensor;

// Ragged batch with lengths from 1 to beyond max_len (to exercise
// truncation) and [SEP]=3 in roughly half the rows (to exercise the
// FastBag segment split).
std::vector<std::vector<int>> RaggedBatch(int n, int vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> batch(static_cast<size_t>(n));
  for (size_t i = 0; i < batch.size(); ++i) {
    const int len = 1 + rng.UniformInt(40);
    for (int t = 0; t < len; ++t) {
      batch[i].push_back(6 + rng.UniformInt(vocab - 6));
    }
    if (len >= 3 && rng.UniformInt(2) == 0) {
      batch[i][static_cast<size_t>(len / 2)] = 3;  // [SEP]
    }
  }
  return batch;
}

TransformerConfig SmallTransformer(int vocab, int n_layers = 2) {
  TransformerConfig config;
  config.vocab_size = vocab;
  config.max_len = 24;
  config.dim = 16;
  config.n_layers = n_layers;
  config.n_heads = 2;
  config.ffn_dim = 32;
  return config;
}

FastBagConfig SmallFastBag(int vocab) {
  FastBagConfig config;
  config.vocab_size = vocab;
  config.max_len = 32;
  config.dim = 16;
  config.hidden_dim = 32;
  return config;
}

template <typename EncoderT, typename ConfigT>
void ExpectWorkspaceBitIdentical(const ConfigT& config, int batch_size,
                                 uint64_t seed) {
  const auto batch = RaggedBatch(batch_size, config.vocab_size, seed);
  EncoderT encoder(config);
  ASSERT_TRUE(ts::GradEnabled());  // per-row, non-workspace graph route
  Tensor want = encoder.EncodeBatch(batch, nullptr, /*training=*/false);
  std::vector<float> got(batch.size() * static_cast<size_t>(config.dim));
  encoder.EncodeInference(batch, got.data());
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got[static_cast<size_t>(i) * config.dim + j], want.at(i, j))
          << "row " << i << " dim " << j << " B " << batch_size;
    }
  }
  // The Tensor front door must be the same route (same floats).
  ts::NoGradGuard ng;
  Tensor via_batch = encoder.EncodeBatch(batch, nullptr, false);
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(via_batch.at(i, j), want.at(i, j));
    }
  }
}

TEST(WorkspaceEncodeTest, BitIdenticalToPerRowOracleBattery) {
  for (int batch_size : {1, 7, 64, 257}) {
    // The last layer computes only the [CLS] row; at 1 layer it is also
    // the first.
    for (int layers : {1, 2, 3}) {
      SCOPED_TRACE(layers);
      ExpectWorkspaceBitIdentical<TransformerEncoder>(
          SmallTransformer(200, layers), batch_size, 11);
    }
    ExpectWorkspaceBitIdentical<FastBagEncoder>(SmallFastBag(200), batch_size,
                                                13);
  }
}

template <typename EncoderT, typename ConfigT>
sudowoodo::AllocCounts SteadyStateAllocs(const ConfigT& config,
                                         int batch_size) {
  const auto batch = RaggedBatch(batch_size, config.vocab_size, 23);
  EncoderT encoder(config);
  std::vector<float> out(batch.size() * static_cast<size_t>(config.dim));
  // Warmup: grows the thread-local workspace chunks and the pack scratch.
  encoder.EncodeInference(batch, out.data());
  AllocCounterStart();
  for (int rep = 0; rep < 5; ++rep) {
    encoder.EncodeInference(batch, out.data());
  }
  return AllocCounterStop();
}

TEST(WorkspaceAllocationTest, TransformerSteadyStateIsAllocationFree) {
  const auto counts =
      SteadyStateAllocs<TransformerEncoder>(SmallTransformer(300), 120);
  EXPECT_EQ(counts.count, 0u) << counts.bytes << " bytes";
}

TEST(WorkspaceAllocationTest, FastBagSteadyStateIsAllocationFree) {
  const auto counts = SteadyStateAllocs<FastBagEncoder>(SmallFastBag(300), 120);
  EXPECT_EQ(counts.count, 0u) << counts.bytes << " bytes";
}

TEST(WorkspaceAllocationTest, CacheAllHitSteadyStateIsAllocationFree) {
  const FastBagConfig config = SmallFastBag(300);
  const auto batch = RaggedBatch(96, config.vocab_size, 29);
  index::EmbeddingCache cache(1024);
  FastBagEncoder encoder(config);
  encoder.set_embedding_cache(&cache);
  std::vector<float> out(batch.size() * static_cast<size_t>(config.dim));
  encoder.EncodeInference(batch, out.data());  // warmup: all misses, inserts
  AllocCounterStart();
  for (int rep = 0; rep < 5; ++rep) {
    encoder.EncodeInference(batch, out.data());  // all hits
  }
  const auto counts = AllocCounterStop();
  EXPECT_EQ(counts.count, 0u) << counts.bytes << " bytes";
  EXPECT_GE(cache.stats().hits, 5u * batch.size());
}

TEST(WorkspaceAllocationTest, ThreadedFanOutIsAllocationFree) {
  // A 4-thread pool: the calling thread and three workers. Neither a
  // ParallelFor nor a row-sharded GEMM may allocate once warm.
  ThreadPool pool(3);
  constexpr int m = 64, n = 48, k = 40;
  Rng rng(37);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  for (float& v : a) v = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  // Warm-up. Any thread may claim any shard, so hold all four threads in
  // one fan-out at once and let each grow its thread-local GEMM pack
  // buffer: otherwise a worker's first claim could fall in the count.
  std::atomic<int> arrived{0};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  ParallelFor(
      4, 4,
      [&](int64_t, int64_t, int shard) {
        ++arrived;
        while (arrived.load() < 4 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        ts::kernels::Gemm(1, n, k, a.data() + static_cast<size_t>(shard) * k,
                          b.data(), c.data() + static_cast<size_t>(shard) * n);
      },
      &pool);
  ASSERT_EQ(arrived.load(), 4);
  std::atomic<int64_t> covered{0};
  const auto count_rows = [&covered](int64_t begin, int64_t end, int) {
    covered += end - begin;
  };
  ParallelFor(256, 4, count_rows, &pool);
  ts::kernels::Gemm(m, n, k, a.data(), b.data(), c.data(), &pool, 4);

  AllocCounterStart();
  for (int call = 0; call < 1000; ++call) {
    ParallelFor(256, 4, count_rows, &pool);
  }
  for (int call = 0; call < 1000; ++call) {
    ts::kernels::Gemm(m, n, k, a.data(), b.data(), c.data(), &pool, 4);
  }
  const auto counts = AllocCounterStop();
  EXPECT_EQ(counts.count, 0u) << counts.bytes << " bytes";
  EXPECT_EQ(covered.load(), 1001 * 256);
}

TEST(WorkspaceTest, FrameRewindReusesMemory) {
  ts::Workspace ws;
  float* first = nullptr;
  {
    ts::Workspace::Frame frame(ws);
    first = ws.Floats(1000);
    first[0] = 1.0f;
  }
  const size_t reserved = ws.bytes_reserved();
  {
    ts::Workspace::Frame frame(ws);
    float* again = ws.Floats(1000);
    EXPECT_EQ(again, first);  // same chunk, same offset
    // Nested frames stack.
    {
      ts::Workspace::Frame inner(ws);
      float* nested = ws.Floats(100);
      EXPECT_NE(nested, again);
    }
    float* after_inner = ws.Floats(100);
    (void)after_inner;
  }
  EXPECT_EQ(ws.bytes_reserved(), reserved);  // no growth on reuse
}

TEST(WorkspaceTest, ThreadLocalIsPerThread) {
  ts::Workspace* main_ws = &ts::Workspace::ThreadLocal();
  ts::Workspace* worker_ws = nullptr;
  std::thread t([&] { worker_ws = &ts::Workspace::ThreadLocal(); });
  t.join();
  EXPECT_NE(main_ws, worker_ws);
}

TEST(WorkspaceTest, GrowsAcrossChunksAndServesAlignedSpans) {
  ts::Workspace ws;
  ts::Workspace::Frame frame(ws);
  // Force multiple chunks and check alignment + writability of each span.
  for (int i = 0; i < 20; ++i) {
    float* p = ws.Floats(40000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    p[0] = static_cast<float>(i);
    p[39999] = static_cast<float>(i);
    int* q = ws.Ints(17);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % 64, 0u);
    q[16] = i;
  }
}

}  // namespace
}  // namespace sudowoodo::nn
