// Tests for the parallel execution subsystem (common/thread_pool.h,
// common/parallel.h) and for the determinism contract of the parallelized
// hot paths: every parallel result must be bit-identical to num_threads=1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/fuzzyjoin.h"
#include "baselines/tfidf_blocker.h"
#include "cluster/kmeans.h"
#include "common/parallel.h"
#include "common/random_vectors.h"
#include "common/thread_pool.h"
#include "data/cleaning_dataset.h"
#include "data/em_dataset.h"
#include "gtest/gtest.h"
#include "index/ivf_index.h"
#include "nn/encoder.h"
#include "pipeline/cleaning_pipeline.h"
#include "pipeline/em_pipeline.h"
#include "sparse/tfidf.h"
#include "text/vocab.h"

namespace sudowoodo {
namespace {

// --- ThreadPool -------------------------------------------------------------

// Runs `num_shards` shards on `pool` and reports whether they all ran
// exactly once, on the calling thread, in shard order: an inline run.
bool RunsInlineInOrder(ThreadPool& pool, int num_shards) {
  const auto n = static_cast<size_t>(num_shards);
  std::vector<std::atomic<int>> visits(n);
  std::vector<std::thread::id> ran_on(n);
  std::vector<int> order(n, -1);
  std::atomic<size_t> started{0};
  pool.Run(num_shards, [&](int shard) {
    const auto s = static_cast<size_t>(shard);
    ++visits[s];
    ran_on[s] = std::this_thread::get_id();
    const size_t pos = started++;
    if (pos < n) order[pos] = shard;
  });
  bool ok = started.load() == n;
  for (size_t s = 0; s < n; ++s) {
    ok = ok && visits[s].load() == 1 &&
         ran_on[s] == std::this_thread::get_id() &&
         order[s] == static_cast<int>(s);
  }
  return ok;
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  EXPECT_TRUE(RunsInlineInOrder(pool, 5));
  EXPECT_TRUE(RunsInlineInOrder(pool, 1));
  pool.Run(0, [](int) { FAIL() << "no shard to run"; });
}

TEST(ThreadPoolTest, SingleShardRunsInline) {
  ThreadPool pool(3);
  EXPECT_TRUE(RunsInlineInOrder(pool, 1));
}

TEST(ThreadPoolTest, SingleWorkerRunsAllTasks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int call = 0; call < 100; ++call) {
    std::vector<std::atomic<int>> visits(4);
    pool.Run(4, [&](int shard) {
      ++visits[static_cast<size_t>(shard)];
      ++count;
    });
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
  }
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, ManyWorkersRunAllTasks) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_workers(), 8);
  std::atomic<int64_t> sum{0};
  std::vector<std::atomic<int>> visits(1000);
  pool.Run(1000, [&](int shard) {
    sum += shard + 1;
    ++visits[static_cast<size_t>(shard)];
  });
  EXPECT_EQ(sum.load(), 1000 * 1001 / 2);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ThrowingShardsRethrowTheLowestAndThePoolSurvives) {
  ThreadPool pool(3);
  for (int call = 0; call < 50; ++call) {
    std::vector<std::atomic<int>> visits(8);
    std::string caught;
    try {
      pool.Run(8, [&](int shard) {
        ++visits[static_cast<size_t>(shard)];
        if (shard == 2 || shard == 5 || shard == 7) {
          throw std::runtime_error(std::to_string(shard));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    ASSERT_EQ(caught, "2");  // the lowest-numbered throwing shard
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);  // all still ran
  }
  // Inline runs (here: a 0-worker pool) keep the same rule.
  ThreadPool inline_pool(0);
  int ran = 0;
  std::string caught;
  try {
    inline_pool.Run(4, [&](int shard) {
      ++ran;
      if (shard >= 1) throw std::runtime_error(std::to_string(shard));
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "1");
  EXPECT_EQ(ran, 4);
  // The pool serves the next call.
  std::atomic<int> count{0};
  pool.Run(4, [&count](int) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, NestedSubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);  // the harshest case: one worker, nested calls
  bool inner_inline[2] = {false, false};
  pool.Run(2, [&](int shard) {
    // A nested call, on the worker or on the caller, runs inline.
    inner_inline[shard] = RunsInlineInOrder(pool, 4);
  });
  EXPECT_TRUE(inner_inline[0]);
  EXPECT_TRUE(inner_inline[1]);
}

TEST(ThreadPoolTest, CallFindingAnotherJobRunningRunsInline) {
  ThreadPool pool(2);
  std::atomic<bool> outer_started{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    pool.Run(3, [&](int) {
      outer_started = true;
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!outer_started.load()) std::this_thread::yield();
  // The owner's job is in flight until `release`: this call cannot have
  // the team and must not wait for it.
  EXPECT_TRUE(RunsInlineInOrder(pool, 4));
  release = true;
  owner.join();
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
      callers.emplace_back([&] {
        for (int call = 0; call < 50; ++call) {
          pool.Run(4, [&count](int) { ++count; });
        }
      });
    }
    for (auto& c : callers) c.join();
  }  // ~ThreadPool joins the workers
  EXPECT_EQ(count.load(), 3 * 50 * 4);
}

// The Run-vs-Shutdown contract: a Run during or after Shutdown runs inline
// on the calling thread, so no shard is ever stranded, and Shutdown waits
// for the job in flight.

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_TRUE(RunsInlineInOrder(pool, 3));
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndConcurrent) {
  ThreadPool pool(4);
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& c : closers) c.join();
  pool.Shutdown();  // and again after everyone joined
  EXPECT_TRUE(RunsInlineInOrder(pool, 3));
}

TEST(ThreadPoolTest, ShutdownWaitsForTheJobInFlight) {
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    const std::thread::id owner_id = std::this_thread::get_id();
    pool.Run(3, [&](int) {
      ++started;
      while (!release.load()) std::this_thread::yield();
      // Two workers hold two shards until `release`, so the calling thread
      // runs one too. It finishes last, after both workers have left the
      // job, and Shutdown must still wait for it.
      if (std::this_thread::get_id() == owner_id) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      ++finished;
    });
  });
  while (started.load() == 0) std::this_thread::yield();
  std::atomic<bool> shut{false};
  int finished_at_shutdown = -1;
  std::thread closer([&] {
    pool.Shutdown();
    finished_at_shutdown = finished.load();
    shut = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(shut.load()) << "Shutdown returned while shards were running";
  release = true;
  owner.join();
  closer.join();
  EXPECT_EQ(finished_at_shutdown, 3);
}

TEST(ThreadPoolTest, RunRacingShutdownRunsEveryShardOnce) {
  // Hammer the race from both sides: callers keep calling Run while
  // another thread shuts the pool down mid-stream. Whichever side of the
  // shutdown each call lands on (the team or inline), every shard must run
  // exactly once and every call must return. Run under TSan in CI.
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(2);
    std::atomic<int> runs{0};
    std::atomic<int> bad_calls{0};
    std::atomic<bool> go{false};
    constexpr int kCallers = 3;
    constexpr int kPerThread = 50;
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerThread; ++i) {
          std::atomic<int> visits[3] = {0, 0, 0};
          pool.Run(3, [&](int shard) {
            ++visits[shard];
            ++runs;
          });
          for (const auto& v : visits) bad_calls += v.load() != 1;
        }
      });
    }
    std::thread closer([&] {
      while (!go.load()) std::this_thread::yield();
      pool.Shutdown();
    });
    go = true;
    for (auto& c : callers) c.join();
    closer.join();
    EXPECT_EQ(runs.load(), kCallers * kPerThread * 3);
    EXPECT_EQ(bad_calls.load(), 0);
  }
}

TEST(ThreadPoolTest, SeededStressOfRunNestingThrowsCallersAndShutdown) {
  // Random shard counts 1-9, shards that nest a Run on the same pool,
  // shards that throw, three concurrent callers, and a Shutdown racing
  // them. Every shard and nested shard must run exactly once, every throw
  // must surface as the lowest-numbered throwing shard's, and nothing may
  // hang. Seeded, so a failing round replays; run under TSan in CI.
  constexpr int kRounds = 40;
  constexpr int kCallers = 3;
  constexpr int kCallsPerCaller = 30;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    ThreadPool pool(1 + round % 3);
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Rng rng(static_cast<uint64_t>(1000 * round + c));
        while (!go.load()) std::this_thread::yield();
        for (int call = 0; call < kCallsPerCaller; ++call) {
          const int num_shards = 1 + rng.UniformInt(9);
          int nested[9] = {}, throws[9] = {};
          int lowest_throw = -1;
          for (int s = 0; s < num_shards; ++s) {
            nested[s] = rng.UniformInt(3) == 0 ? 1 + rng.UniformInt(4) : 0;
            throws[s] = rng.UniformInt(6) == 0;
            if (throws[s] && lowest_throw < 0) lowest_throw = s;
          }
          std::atomic<int> visits[9] = {};
          std::atomic<int> nested_visits[9] = {};
          int caught = -1;
          try {
            pool.Run(num_shards, [&](int s) {
              ++visits[s];
              if (nested[s] > 0) {
                pool.Run(nested[s], [&](int) { ++nested_visits[s]; });
              }
              if (throws[s]) throw std::runtime_error(std::to_string(s));
            });
          } catch (const std::runtime_error& e) {
            caught = std::stoi(e.what());
          }
          bool ok = caught == lowest_throw;
          for (int s = 0; s < num_shards; ++s) {
            ok = ok && visits[s].load() == 1 &&
                 nested_visits[s].load() == nested[s];
          }
          failures += !ok;
        }
      });
    }
    Rng rng(static_cast<uint64_t>(round));
    const int closer_delay_us = rng.UniformInt(400);
    std::thread closer([&] {
      while (!go.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(closer_delay_us));
      pool.Shutdown();
    });
    go = true;
    for (auto& t : callers) t.join();
    closer.join();
    EXPECT_EQ(failures.load(), 0);
  }
}

// --- ParallelFor ------------------------------------------------------------

// The shard decomposition as MakeShards built it before ShardOf replaced
// it: a vector of the min(num_shards, n) near-equal contiguous ranges.
std::vector<std::pair<int64_t, int64_t>> ReferenceShards(int64_t n,
                                                         int num_shards) {
  std::vector<std::pair<int64_t, int64_t>> shards;
  if (n <= 0) return shards;
  num_shards = static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(num_shards, n)));
  const int64_t base = n / num_shards;
  const int64_t extra = n % num_shards;
  int64_t begin = 0;
  for (int s = 0; s < num_shards; ++s) {
    const int64_t len = base + (s < extra ? 1 : 0);
    shards.emplace_back(begin, begin + len);
    begin += len;
  }
  return shards;
}

// The (begin, end) ParallelFor hands each shard, indexed by shard. The
// body records its range and never iterates it, so n may be huge.
std::vector<std::pair<int64_t, int64_t>> ParallelForShards(int64_t n,
                                                           int num_threads,
                                                           ThreadPool* pool) {
  std::vector<std::pair<int64_t, int64_t>> got(
      static_cast<size_t>(std::max(num_threads, 1)), {-1, -1});
  std::atomic<int> calls{0};
  ParallelFor(
      n, num_threads,
      [&](int64_t begin, int64_t end, int shard) {
        got[static_cast<size_t>(shard)] = {begin, end};
        ++calls;
      },
      pool);
  got.resize(static_cast<size_t>(calls.load()));
  return got;
}

TEST(ParallelForTest, ShardsAreFixedContiguousAndCoverTheRange) {
  // 10 = 4 + 3 + 3
  EXPECT_EQ(ShardOf(10, 3, 0).begin, 0);
  EXPECT_EQ(ShardOf(10, 3, 0).end, 4);
  EXPECT_EQ(ShardOf(10, 3, 1).begin, 4);
  EXPECT_EQ(ShardOf(10, 3, 1).end, 7);
  EXPECT_EQ(ShardOf(10, 3, 2).begin, 7);
  EXPECT_EQ(ShardOf(10, 3, 2).end, 10);
  ThreadPool pool(3);
  EXPECT_TRUE(ParallelForShards(0, 4, &pool).empty());
  // More shards than items degrades to one item per shard.
  EXPECT_EQ(ParallelForShards(2, 8, &pool).size(), 2u);
  // ShardOf, and ParallelFor's clamp, give exactly the ranges MakeShards
  // gave, for every small shape.
  for (int64_t n = 0; n <= 300; ++n) {
    for (int num_shards = 1; num_shards <= 9; ++num_shards) {
      const auto want = ReferenceShards(n, num_shards);
      for (size_t s = 0; s < want.size(); ++s) {
        const ShardRange r =
            ShardOf(n, static_cast<int>(want.size()), static_cast<int>(s));
        ASSERT_EQ(r.begin, want[s].first) << n << "/" << num_shards;
        ASSERT_EQ(r.end, want[s].second) << n << "/" << num_shards;
      }
      ASSERT_EQ(ParallelForShards(n, num_shards, &pool), want)
          << n << "/" << num_shards;
    }
  }
}

TEST(ParallelForTest, ShardMathStaysExactBeyondInt32) {
  // Regression: the shard-count clamp used to narrow n to int, so any
  // n > 2^31-1 wrapped (usually negative) and collapsed the whole
  // decomposition to one shard. The clamp must stay in 64-bit.
  ThreadPool pool(3);
  const int64_t huge = (int64_t{1} << 33) + 5;
  for (int num_shards : {2, 4, 7}) {
    const auto shards = ParallelForShards(huge, num_shards, &pool);
    ASSERT_EQ(shards.size(), static_cast<size_t>(num_shards)) << num_shards;
    int64_t expect_begin = 0;
    for (const auto& [begin, end] : shards) {
      EXPECT_EQ(begin, expect_begin);  // contiguous, in order
      EXPECT_GT(end, begin);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, huge);  // full coverage, no overflow
    // Near-equal split: lengths differ by at most one.
    const int64_t base = huge / num_shards;
    for (const auto& [begin, end] : shards) {
      const int64_t len = end - begin;
      EXPECT_TRUE(len == base || len == base + 1) << len;
    }
    EXPECT_EQ(shards, ReferenceShards(huge, num_shards));
  }
  // The clamp itself, just past the wrap boundary: n still exceeds the
  // shard count, so every shard must materialize.
  EXPECT_EQ(ParallelForShards((int64_t{1} << 31) + 7, 8, &pool).size(), 8u);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  for (int num_threads : {1, 2, 4, 7}) {
    std::vector<int> visits(131, 0);
    ParallelForEach(131, num_threads, [&](int64_t i) {
      ++visits[static_cast<size_t>(i)];
    });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 131)
        << "num_threads=" << num_threads;
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelForTest, ExceptionInShardPropagates) {
  EXPECT_THROW(
      ParallelFor(100, 4,
                  [](int64_t begin, int64_t, int) {
                    if (begin == 0) throw std::logic_error("shard 0 failed");
                  }),
      std::logic_error);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(8, 4, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      ParallelForEach(16, 4, [&](int64_t) { ++total; });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

// --- Determinism oracles on the hot paths ----------------------------------

TEST(ParallelDeterminismTest, KnnQueryBatchBitIdenticalToSerial) {
  const auto items = RandomUnitVectors(400, 16, 7);
  const auto queries = RandomUnitVectors(123, 16, 11);
  std::vector<float> rows;
  for (const auto& v : items) rows.insert(rows.end(), v.begin(), v.end());
  index::BlockingIndexOptions exact;
  exact.kind = index::BlockingIndexKind::kExact;
  index::BlockingIndex index(rows.data(), 400, 16, exact);
  std::vector<std::vector<index::Neighbor>> serial;
  ASSERT_TRUE(index.QueryBatch(queries, 10, &serial, /*num_threads=*/1).ok());
  for (int num_threads : {2, 4, 8}) {
    std::vector<std::vector<index::Neighbor>> parallel;
    ASSERT_TRUE(index.QueryBatch(queries, 10, &parallel, num_threads).ok());
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ASSERT_EQ(parallel[q].size(), serial[q].size());
      for (size_t j = 0; j < serial[q].size(); ++j) {
        EXPECT_EQ(parallel[q][j].id, serial[q][j].id);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(parallel[q][j].sim, serial[q][j].sim);
      }
    }
  }
}

TEST(ParallelDeterminismTest, TfidfTransformBatchBitIdenticalToSerial) {
  Rng rng(3);
  std::vector<std::vector<std::string>> corpus;
  for (int d = 0; d < 200; ++d) {
    std::vector<std::string> doc;
    const int len = 3 + rng.UniformInt(12);
    for (int t = 0; t < len; ++t) {
      doc.push_back("tok" + std::to_string(rng.UniformInt(50)));
    }
    corpus.push_back(std::move(doc));
  }
  sparse::TfIdfFeaturizer tfidf;
  tfidf.Fit(corpus);
  const auto serial = tfidf.TransformBatch(corpus, 1);
  for (int num_threads : {2, 4}) {
    const auto parallel = tfidf.TransformBatch(corpus, num_threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t d = 0; d < serial.size(); ++d) {
      ASSERT_EQ(parallel[d].size(), serial[d].size());
      for (size_t j = 0; j < serial[d].size(); ++j) {
        EXPECT_EQ(parallel[d][j].first, serial[d][j].first);
        EXPECT_EQ(parallel[d][j].second, serial[d][j].second);
      }
    }
  }
}

std::vector<std::vector<int>> MakeTokenBatch(int n, int vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> batch(static_cast<size_t>(n));
  for (auto& ids : batch) {
    const int len = 2 + rng.UniformInt(20);
    for (int t = 0; t < len; ++t) {
      ids.push_back(4 + rng.UniformInt(vocab - 4));
    }
  }
  return batch;
}

template <typename EncoderT, typename ConfigT>
void ExpectParallelEncodeBitIdentical(const ConfigT& config) {
  const auto batch = MakeTokenBatch(40, config.vocab_size, 19);
  EncoderT serial_enc(config);
  const auto serial = serial_enc.EmbedNormalized(batch);
  for (int num_threads : {2, 4}) {
    EncoderT parallel_enc(config);  // same seed => same weights
    parallel_enc.set_num_threads(num_threads);
    const auto parallel = parallel_enc.EmbedNormalized(batch);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].size(), serial[i].size());
      for (size_t j = 0; j < serial[i].size(); ++j) {
        EXPECT_EQ(parallel[i][j], serial[i][j])
            << "row " << i << " dim " << j << " num_threads " << num_threads;
      }
    }
  }
}

TEST(ParallelDeterminismTest, TransformerEncodeBitIdenticalToSerial) {
  nn::TransformerConfig config;
  config.vocab_size = 120;
  config.dim = 16;
  config.n_layers = 2;
  config.n_heads = 2;
  config.ffn_dim = 32;
  config.max_len = 24;
  ExpectParallelEncodeBitIdentical<nn::TransformerEncoder>(config);
}

TEST(ParallelDeterminismTest, FastBagEncodeBitIdenticalToSerial) {
  nn::FastBagConfig config;
  config.vocab_size = 120;
  config.dim = 16;
  config.hidden_dim = 32;
  config.max_len = 24;
  ExpectParallelEncodeBitIdentical<nn::FastBagEncoder>(config);
}

TEST(ParallelDeterminismTest, TfidfBlockingSweepBitIdenticalToSerial) {
  const data::EmDataset ds = data::GenerateEm(data::GetEmSpec("AB"));
  const auto serial = baselines::TfidfBlockingSweep(ds, 8, /*num_threads=*/1);
  const auto parallel = baselines::TfidfBlockingSweep(ds, 8, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(parallel[k].n_candidates, serial[k].n_candidates);
    EXPECT_EQ(parallel[k].recall, serial[k].recall);
    EXPECT_EQ(parallel[k].cssr, serial[k].cssr);
  }
}

TEST(ParallelDeterminismTest, EmBlockingThreadCountInvariantEndToEnd) {
  // Full EmPipeline blocking (pre-train + batched inference encoding +
  // kNN) at num_threads 1/2/4: the embeddings must be bit-identical, so
  // every BlockingPoint - candidate counts included - must match exactly.
  // The embeddings themselves are compared through the same encoder
  // construction the pipeline uses (MakeEncoder + batched EmbedNormalized).
  const data::EmDataset ds = data::GenerateEm(data::GetEmSpec("AB"));
  std::vector<std::vector<int>> ids;
  {
    std::vector<std::vector<std::string>> corpus;
    for (int i = 0; i < ds.table_a.num_rows(); ++i) {
      corpus.push_back(pipeline::EmPipeline::SerializeRow(ds.table_a, i));
    }
    const text::Vocab vocab = text::Vocab::Build(corpus, 2000);
    for (const auto& t : corpus) ids.push_back(vocab.Encode(t));
  }
  std::vector<std::vector<float>> base_emb;
  std::vector<pipeline::BlockingPoint> base_points;
  for (int num_threads : {1, 2, 4}) {
    auto encoder = pipeline::MakeEncoder(pipeline::EncoderKind::kFastBag,
                                         2000, 32, 96, /*seed=*/7,
                                         /*pool=*/nullptr, num_threads);
    const auto emb = encoder->EmbedNormalized(ids);

    pipeline::EmPipelineOptions o;
    o.encoder_dim = 32;
    o.pretrain.epochs = 1;
    o.pretrain.corpus_cap = 200;
    o.pretrain.num_clusters = 10;
    o.num_threads = num_threads;
    auto points = pipeline::EmPipeline(o).BlockingSweep(ds, 5);

    if (num_threads == 1) {
      base_emb = emb;
      base_points = std::move(points);
      continue;
    }
    ASSERT_EQ(emb.size(), base_emb.size());
    for (size_t i = 0; i < emb.size(); ++i) {
      ASSERT_EQ(emb[i], base_emb[i]) << "row " << i << " num_threads "
                                     << num_threads;
    }
    ASSERT_EQ(points.size(), base_points.size());
    for (size_t k = 0; k < points.size(); ++k) {
      EXPECT_EQ(points[k].n_candidates, base_points[k].n_candidates);
      EXPECT_EQ(points[k].recall, base_points[k].recall);
      EXPECT_EQ(points[k].cssr, base_points[k].cssr);
    }
  }
}

TEST(ParallelDeterminismTest, CleaningRunThreadCountInvariantEndToEnd) {
  // Full CleaningPipeline at num_threads 1/2/4: batched inference
  // encoding drives every candidate-scoring prediction, so identical
  // correction decisions mean identical probabilities underneath. The
  // dataset is shrunk so the 3 runs stay affordable under TSan (the run
  // forces >= 25 fine-tuning epochs).
  data::CleaningSpec spec = data::GetCleaningSpec("beers");
  spec.n_rows = 40;
  const data::CleaningDataset ds = data::GenerateCleaning(spec);
  pipeline::CleaningRunResult base;
  for (int num_threads : {1, 2, 4}) {
    pipeline::CleaningPipelineOptions o;
    o.skip_pretrain = true;  // keep the test fast; prediction still batched
    o.labeled_rows = 4;
    o.max_train_candidates = 1;
    o.encoder_dim = 32;
    o.max_len = 32;
    o.num_threads = num_threads;
    auto r = pipeline::CleaningPipeline(o).Run(ds);
    if (num_threads == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.corrections_made, base.corrections_made);
    EXPECT_EQ(r.corrections_right, base.corrections_right);
    EXPECT_EQ(r.true_errors, base.true_errors);
    EXPECT_EQ(r.correction.f1, base.correction.f1);
  }
}

TEST(ParallelDeterminismTest, FuzzyJoinThreadCountInvariant) {
  // The fuzzyjoin baseline's all-pairs candidate scoring now fans B rows
  // out over the pool; every row writes only its own best/second slots,
  // so the chosen threshold and the final metrics must be bit-identical
  // to the serial run at any thread count.
  const data::EmDataset ds = data::GenerateEm(data::GetEmSpec("FZ"));
  pipeline::PRF1 base;
  for (int num_threads : {1, 2, 4}) {
    baselines::FuzzyJoinOptions opts;
    opts.num_threads = num_threads;
    const pipeline::PRF1 prf = baselines::RunAutoFuzzyJoinOnEm(ds, opts);
    if (num_threads == 1) {
      base = prf;
      continue;
    }
    EXPECT_EQ(prf.precision, base.precision) << num_threads;
    EXPECT_EQ(prf.recall, base.recall) << num_threads;
    EXPECT_EQ(prf.f1, base.f1) << num_threads;
  }
}

TEST(ParallelDeterminismTest, TrainingForwardIgnoresInferenceThreadKnob) {
  // The inference knob (num_threads) must not leak into training-mode
  // forwards; training parallelism has its own knob with its own
  // bit-identity contract (next test).
  nn::FastBagConfig config;
  config.vocab_size = 60;
  config.dim = 8;
  config.hidden_dim = 16;
  const auto batch = MakeTokenBatch(12, config.vocab_size, 5);

  nn::FastBagEncoder a(config);
  nn::FastBagEncoder b(config);
  b.set_num_threads(4);
  nn::Tensor za = a.EncodeBatch(batch, nullptr, /*training=*/true);
  nn::Tensor zb = b.EncodeBatch(batch, nullptr, /*training=*/true);
  ASSERT_EQ(za.rows(), zb.rows());
  ASSERT_EQ(za.cols(), zb.cols());
  for (size_t i = 0; i < za.size(); ++i) {
    EXPECT_EQ(za.data()[i], zb.data()[i]);
  }
}

TEST(TrainingDeterminismTest, TrainingForwardAndGradThreadCountInvariant) {
  // Training forwards and backwards are parallel now (train_num_threads):
  // row-sharded forward/backward GEMMs plus per-row / per-sequence
  // subgraph fan-out. Counter-based dropout keys masks by position, so
  // the graph - values and every parameter gradient - is bit-identical
  // for any thread count, per-row and batched alike.
  for (bool batched : {false, true}) {
    nn::TransformerConfig config;
    config.vocab_size = 80;
    config.max_len = 12;
    config.dim = 16;
    config.n_layers = 2;
    config.n_heads = 2;
    config.ffn_dim = 32;
    const auto batch = MakeTokenBatch(9, config.vocab_size, 11);

    nn::TransformerEncoder serial(config);
    serial.set_batched_training(batched);
    nn::TransformerEncoder threaded(config);
    threaded.set_batched_training(batched);
    threaded.set_train_num_threads(4);

    nn::Tensor za = serial.EncodeBatch(batch, nullptr, /*training=*/true);
    nn::Tensor zb = threaded.EncodeBatch(batch, nullptr, /*training=*/true);
    ASSERT_EQ(za.size(), zb.size());
    for (size_t i = 0; i < za.size(); ++i) {
      ASSERT_EQ(za.data()[i], zb.data()[i]) << "batched=" << batched;
    }

    tensor::Backward(tensor::MeanAll(za));
    tensor::Backward(tensor::MeanAll(zb));
    const auto pa = serial.Parameters(), pb = threaded.Parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t p = 0; p < pa.size(); ++p) {
      for (size_t i = 0; i < pa[p].size(); ++i) {
        ASSERT_EQ(pa[p].grad()[i], pb[p].grad()[i])
            << "batched=" << batched << " param=" << p;
      }
    }
  }
}

TEST(TrainingDeterminismTest, KMeansAssignmentThreadCountInvariant) {
  // The parallel k-means assignment step (cluster negatives, Algorithm 2)
  // must produce identical clusterings for any thread count.
  std::vector<std::vector<std::string>> corpus;
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> doc;
    const int family = i % 3;
    for (int w = 0; w < 8; ++w) {
      doc.push_back("w" + std::to_string(family * 40 + rng.UniformInt(40)));
    }
    corpus.push_back(std::move(doc));
  }
  sparse::TfIdfFeaturizer featurizer;
  const auto features = featurizer.FitTransform(corpus);

  cluster::KMeansOptions base;
  base.k = 12;
  base.seed = 5;
  const cluster::KMeansResult want = cluster::KMeans(features, base);
  for (int threads : {2, 4}) {
    cluster::KMeansOptions opts = base;
    opts.num_threads = threads;
    const cluster::KMeansResult got = cluster::KMeans(features, opts);
    EXPECT_EQ(got.iterations_run, want.iterations_run);
    ASSERT_EQ(got.assignments.size(), want.assignments.size());
    for (size_t i = 0; i < want.assignments.size(); ++i) {
      ASSERT_EQ(got.assignments[i], want.assignments[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sudowoodo
