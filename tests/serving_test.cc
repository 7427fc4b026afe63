// Battery for the serving front door (src/serving): the bounded batch
// queue's flush-on-size / flush-on-deadline / drain-on-close semantics,
// and the Server's concurrency contract - every response bit-identical to
// the serial single-request oracle no matter how requests coalesce, plus
// deadline timeouts, graceful shutdown draining the queue, and warm
// restarts from a SaveWeights file. The concurrent cases run under TSan
// and ASan in CI (focused re-run lists in .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "matcher/pair_matcher.h"
#include "nn/encoder.h"
#include "nn/weights.h"
#include "pipeline/em_pipeline.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "text/vocab.h"

namespace sudowoodo::serving {
namespace {

using std::chrono::microseconds;

// --- BoundedBatchQueue ------------------------------------------------------

TEST(BoundedBatchQueueTest, FlushesOnSizeWithoutWaitingOutTheDeadline) {
  BoundedBatchQueue<int> q(16);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(q.Push(v));
  }
  std::vector<int> batch;
  // A long deadline must not delay a size-triggered flush.
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/4, microseconds(10'000'000), &batch));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedBatchQueueTest, FlushesPartialBatchOnDeadline) {
  BoundedBatchQueue<int> q(16);
  int v = 7;
  ASSERT_TRUE(q.Push(v));
  std::vector<int> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/8, microseconds(2000), &batch));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch, std::vector<int>{7});
  // Must not have blocked for the full-batch case (bounded by the window
  // plus scheduling noise; generous to stay robust on loaded runners).
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BoundedBatchQueueTest, ZeroWaitTakesWhatIsQueued) {
  BoundedBatchQueue<int> q(16);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(q.Push(v));
  }
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/8, microseconds(0), &batch));
  EXPECT_EQ(batch.size(), 3u);
}

TEST(BoundedBatchQueueTest, PushBlocksUntilConsumerFreesSpace) {
  BoundedBatchQueue<int> q(1);
  int first = 1;
  ASSERT_TRUE(q.Push(first));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    int second = 2;
    ASSERT_TRUE(q.Push(second));  // blocks until the pop below
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(1, microseconds(0), &batch));
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(q.PopBatch(1, microseconds(0), &batch));
  EXPECT_EQ(batch, std::vector<int>{2});
}

TEST(BoundedBatchQueueTest, CloseDrainsAcceptedItemsThenReturnsFalse) {
  BoundedBatchQueue<int> q(16);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(q.Push(v));
  }
  q.Close();
  int late = 99;
  EXPECT_FALSE(q.Push(late));
  EXPECT_EQ(late, 99);  // refused pushes leave the item intact
  std::vector<int> batch;
  // Drain flushes immediately (no deadline waits after Close).
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/3, microseconds(10'000'000), &batch));
  EXPECT_EQ(batch.size(), 3u);
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/3, microseconds(10'000'000), &batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(q.PopBatch(3, microseconds(0), &batch));
}

TEST(BoundedBatchQueueTest, CloseWakesBlockedConsumer) {
  BoundedBatchQueue<int> q(4);
  std::thread consumer([&] {
    std::vector<int> batch;
    EXPECT_FALSE(q.PopBatch(4, microseconds(1000), &batch));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Close();
  consumer.join();
}

// --- The linger ---------------------------------------------------------------
// A batch that an idle worker forms closes once the queue has stayed
// empty for kLinger, and max_wait still bounds it when arrivals keep
// coming. A worker that comes back to a queued item batches up to
// max_wait instead.

using IntQueue = BoundedBatchQueue<int>;
using Clock = std::chrono::steady_clock;

// Waits for `until` without a timer sleep, whose overshoot (the kernel's
// timer slack) would exceed the gaps these tests need.
void BusyWaitUntil(Clock::time_point until) {
  while (Clock::now() < until) {
  }
}

// Gives a consumer thread just started time to reach PopBatch and find
// the queue empty, so the batch it forms is an idle worker's.
void LetConsumerGoIdle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

TEST(BoundedBatchQueueTest, LoneItemFlushesAfterTheLingerNotTheWindow) {
  IntQueue q(16);
  std::vector<int> batch;
  std::atomic<int64_t> returned_ns{0};
  std::thread consumer([&] {
    EXPECT_TRUE(q.PopBatch(/*max_batch=*/8, microseconds(50'000), &batch));
    returned_ns = Clock::now().time_since_epoch().count();
  });
  LetConsumerGoIdle();
  const auto pushed_at = Clock::now();
  int v = 1;
  ASSERT_TRUE(q.Push(v));
  consumer.join();
  EXPECT_EQ(batch, std::vector<int>{1});
  // The linger is tens of microseconds; the bound leaves room for a
  // loaded runner but stays far below the 50 ms window.
  EXPECT_LT(Clock::time_point(Clock::duration(returned_ns.load())) - pushed_at,
            std::chrono::milliseconds(25));
}

TEST(BoundedBatchQueueTest, WorkerThatFindsAQueuedItemWaitsForCompany) {
  // The item was queued before PopBatch: the worker is saturated, so the
  // batch waits out max_wait for company (and gets it), linger or not.
  IntQueue q(16);
  int first = 1;
  ASSERT_TRUE(q.Push(first));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int second = 2;
    EXPECT_TRUE(q.Push(second));
  });
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(/*max_batch=*/2, microseconds(10'000'000), &batch));
  producer.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
}

TEST(BoundedBatchQueueTest, BurstWithinTheLingerCoalescesIntoOneBatch) {
  // The consumer takes the first item and lingers; the producer pushes
  // the rest back to back, each gap far below kLinger. A preempted
  // producer can still open a longer gap, so the burst gets a few tries.
  constexpr int kBurst = 8;
  bool one_batch = false;
  for (int attempt = 0; attempt < 10 && !one_batch; ++attempt) {
    IntQueue q(64);
    std::vector<int> batch;
    std::thread consumer([&] {
      EXPECT_TRUE(q.PopBatch(kBurst, microseconds(10'000'000), &batch));
    });
    LetConsumerGoIdle();
    for (int i = 0; i < kBurst; ++i) {
      int v = i;
      EXPECT_TRUE(q.Push(v));
    }
    consumer.join();
    one_batch = batch.size() == static_cast<size_t>(kBurst);
    if (one_batch) {
      EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    }
  }
  EXPECT_TRUE(one_batch);
}

TEST(BoundedBatchQueueTest, TrickleJustUnderTheLingerStillFlushesByMaxWait) {
  // Items arrive every 3/4 kLinger for 300 ms to an idle worker, so the
  // linger alone would keep the batch open for the whole trickle;
  // max_wait (2 ms) must close it. A preempted producer can open a gap longer than the linger, which
  // closes the batch early, so the trickle gets a few tries to show a
  // batch of more than one item; every try must close by max_wait.
  const auto gap = IntQueue::kLinger * 3 / 4;
  bool coalesced = false;
  for (int attempt = 0; attempt < 10 && !coalesced; ++attempt) {
    IntQueue q(1 << 20);
    const auto start = Clock::now();
    const auto trickle_end = start + std::chrono::milliseconds(302);
    std::thread producer([&] {
      LetConsumerGoIdle();
      auto next = Clock::now();
      for (int i = 0; next < trickle_end; ++i) {
        BusyWaitUntil(next);
        int v = i;
        if (!q.Push(v)) break;
        next += gap;
      }
    });
    std::vector<int> batch;
    const bool popped = q.PopBatch(1 << 20, microseconds(2000), &batch);
    const auto popped_at = Clock::now();
    q.Close();
    producer.join();
    EXPECT_TRUE(popped);
    // 2 ms after the first item, plus room for a loaded runner - well
    // short of the 300 ms trickle.
    EXPECT_LT(popped_at - start, std::chrono::milliseconds(100));
    coalesced = batch.size() >= 2;
  }
  EXPECT_TRUE(coalesced);
}

TEST(BoundedBatchQueueTest, CloseDuringTheLingerDrainsAcceptedThenReturnsFalse) {
  // A trickle keeps the consumer lingering until Close lands, 5 ms in.
  // Every item Push accepted comes out once, in order; then PopBatch
  // returns false.
  IntQueue q(1 << 20);
  std::atomic<int> accepted{0};
  std::thread producer([&] {
    LetConsumerGoIdle();
    auto next = Clock::now();
    for (int i = 0;; ++i) {
      BusyWaitUntil(next);
      int v = i;
      if (!q.Push(v)) break;
      accepted = i + 1;
      next += IntQueue::kLinger / 2;
    }
  });
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.Close();
  });
  std::vector<int> all, batch;
  while (q.PopBatch(1 << 20, microseconds(10'000'000), &batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  closer.join();
  producer.join();
  ASSERT_EQ(all.size(), static_cast<size_t>(accepted.load()));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int>(i));
  }
}

TEST(BoundedBatchQueueTest, CloseDuringTheParkSpinDrainsThenReturnsFalse) {
  // A consumer that finds the queue empty spins for up to kParkSpin
  // before it parks; a Close in that window (or after it) ends PopBatch.
  // Half the attempts accept one item just before the Close: it must be
  // drained first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    IntQueue q(4);
    std::atomic<bool> started{false};
    std::vector<int> all;
    std::thread consumer([&] {
      started = true;
      std::vector<int> batch;
      while (q.PopBatch(4, microseconds(1000), &batch)) {
        all.insert(all.end(), batch.begin(), batch.end());
      }
    });
    while (!started) std::this_thread::yield();
    const bool with_item = attempt % 2 == 1;
    if (with_item) {
      int v = attempt;
      EXPECT_TRUE(q.Push(v));
    }
    q.Close();
    consumer.join();
    EXPECT_EQ(all, with_item ? std::vector<int>{attempt} : std::vector<int>{});
  }
}

TEST(BoundedBatchQueueTest, SeededMultiProducerStressPopsEachItemOnceInOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const int max_batch = 1 + rng.UniformInt(16);
    const int64_t max_wait_us = rng.UniformInt(200);
    const int consumers = 1 + static_cast<int>(seed % 2);
    // A small capacity exercises Push's backpressure too.
    IntQueue q(static_cast<size_t>(1 + rng.UniformInt(64)));
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        Rng prng(seed * 100 + static_cast<uint64_t>(p));
        for (int i = 0; i < kPerProducer; ++i) {
          int v = p * kPerProducer + i;
          EXPECT_TRUE(q.Push(v));
          // Now and then a pause around the linger, so flushes close on
          // size, on the linger and on max_wait.
          if (prng.UniformInt(16) == 0) {
            BusyWaitUntil(Clock::now() +
                          microseconds(prng.UniformInt(40)));
          }
        }
      });
    }
    std::vector<std::vector<int>> seen(consumers);
    std::vector<size_t> biggest(consumers, 0);
    std::vector<std::thread> workers;
    for (int c = 0; c < consumers; ++c) {
      workers.emplace_back([&, c] {
        std::vector<int> batch;
        while (q.PopBatch(max_batch, microseconds(max_wait_us), &batch)) {
          biggest[c] = std::max(biggest[c], batch.size());
          seen[c].insert(seen[c].end(), batch.begin(), batch.end());
        }
      });
    }
    for (auto& t : producers) t.join();
    q.Close();
    for (auto& t : workers) t.join();

    std::vector<int> times_popped(kProducers * kPerProducer, 0);
    for (int c = 0; c < consumers; ++c) {
      EXPECT_LE(biggest[c], static_cast<size_t>(max_batch)) << "seed " << seed;
      // Each consumer sees every producer's items in push order.
      std::vector<int> last(kProducers, -1);
      for (int v : seen[c]) {
        ++times_popped[static_cast<size_t>(v)];
        const int p = v / kPerProducer;
        EXPECT_GT(v, last[static_cast<size_t>(p)]) << "seed " << seed;
        last[static_cast<size_t>(p)] = v;
      }
    }
    for (size_t v = 0; v < times_popped.size(); ++v) {
      ASSERT_EQ(times_popped[v], 1) << "item " << v << ", seed " << seed;
    }
  }
}

// --- Server fixtures --------------------------------------------------------

constexpr int kVocab = 400;
constexpr int kDim = 16;
constexpr int kMaxLen = 48;

text::Vocab TestVocab() {
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < kVocab; ++i) {
    corpus.push_back({"w" + std::to_string(i)});
  }
  return text::Vocab::Build(corpus, kVocab + 8);
}

// Encoders are sized off the built vocab so matcher-tokenized ids (which
// include the special tokens past the word list) always stay in range.
std::unique_ptr<nn::Encoder> MakeServingEncoder(const text::Vocab& vocab,
                                                uint64_t seed = 7) {
  return pipeline::MakeEncoder(pipeline::EncoderKind::kFastBag, vocab.size(),
                               kDim, kMaxLen, seed);
}

// Encode-only tests (RandomIds stays below kVocab) need no vocab.
std::unique_ptr<nn::Encoder> MakeServingEncoder(uint64_t seed = 7) {
  return pipeline::MakeEncoder(pipeline::EncoderKind::kFastBag, kVocab, kDim,
                               kMaxLen, seed);
}

std::vector<int> RandomIds(Rng* rng, int max_len = 24) {
  const int len = 1 + rng->UniformInt(max_len);
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) ids.push_back(6 + rng->UniformInt(kVocab - 6));
  return ids;
}

std::vector<std::string> RandomTokens(Rng* rng, int max_len = 12) {
  const int len = 1 + rng->UniformInt(max_len);
  std::vector<std::string> tokens;
  for (int t = 0; t < len; ++t) {
    tokens.push_back("w" + std::to_string(rng->UniformInt(kVocab)));
  }
  return tokens;
}

// A deterministic mixed workload and its serial single-request oracle.
struct Workload {
  std::vector<Request> requests;
  std::vector<Response> expected;
};

Workload MakeWorkload(int n, uint64_t seed, nn::Encoder* oracle_encoder,
                      matcher::PairMatcher* oracle_matcher) {
  Rng rng(seed);
  Workload w;
  for (int i = 0; i < n; ++i) {
    Request req;
    const int kind = rng.UniformInt(3);
    if (kind == 0 || oracle_matcher == nullptr) {
      req.kind = RequestKind::kEncode;
      req.ids = RandomIds(&rng);
    } else if (kind == 1) {
      req.kind = RequestKind::kMatch;
      req.pair.x = RandomTokens(&rng);
      req.pair.y = RandomTokens(&rng);
    } else {
      req.kind = RequestKind::kClean;
      const int n_cand = 1 + rng.UniformInt(3);
      for (int c = 0; c < n_cand; ++c) {
        matcher::PairExample ex;
        ex.x = RandomTokens(&rng);
        ex.y = RandomTokens(&rng);
        req.candidates.push_back(std::move(ex));
      }
    }
    w.requests.push_back(req);
  }
  // Serial oracle: each request alone, in isolation - the bar every
  // coalesced response must hit bitwise.
  for (const Request& req : w.requests) {
    Response resp;
    resp.status = Status::OK();
    switch (req.kind) {
      case RequestKind::kEncode: {
        resp.embedding =
            oracle_encoder->EmbedNormalized({req.ids}).front();
        break;
      }
      case RequestKind::kMatch: {
        resp.prob = oracle_matcher->PredictProba({req.pair}).front();
        break;
      }
      case RequestKind::kClean: {
        for (const auto& cand : req.candidates) {
          resp.candidate_probs.push_back(
              oracle_matcher->PredictProba({cand}).front());
        }
        resp.best_candidate = 0;
        for (size_t c = 1; c < resp.candidate_probs.size(); ++c) {
          if (resp.candidate_probs[c] >
              resp.candidate_probs[static_cast<size_t>(
                  resp.best_candidate)]) {
            resp.best_candidate = static_cast<int>(c);
          }
        }
        break;
      }
    }
    w.expected.push_back(std::move(resp));
  }
  return w;
}

void ExpectBitIdentical(const Response& got, const Response& want,
                        const Request& req) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  switch (req.kind) {
    case RequestKind::kEncode:
      ASSERT_EQ(got.embedding.size(), want.embedding.size());
      for (size_t j = 0; j < want.embedding.size(); ++j) {
        EXPECT_EQ(got.embedding[j], want.embedding[j]) << "dim " << j;
      }
      break;
    case RequestKind::kMatch:
      EXPECT_EQ(got.prob, want.prob);
      break;
    case RequestKind::kClean:
      EXPECT_EQ(got.best_candidate, want.best_candidate);
      ASSERT_EQ(got.candidate_probs.size(), want.candidate_probs.size());
      for (size_t j = 0; j < want.candidate_probs.size(); ++j) {
        EXPECT_EQ(got.candidate_probs[j], want.candidate_probs[j]);
      }
      break;
  }
}

// --- Server -----------------------------------------------------------------

TEST(ServingTest, SingleRequestsMatchOracleAcrossKinds) {
  text::Vocab vocab = TestVocab();
  auto oracle_enc = MakeServingEncoder(vocab);
  auto serve_enc = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  matcher::PairMatcher oracle_matcher(oracle_enc.get(), &vocab, fopts);
  matcher::PairMatcher serve_matcher(serve_enc.get(), &vocab, fopts);
  Workload w = MakeWorkload(24, 11, oracle_enc.get(), &oracle_matcher);

  ServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 200;
  Server server({{serve_enc.get(), &serve_matcher}}, opts);
  for (size_t i = 0; i < w.requests.size(); ++i) {
    Response got = server.Submit(w.requests[i]).get();
    EXPECT_GE(got.coalesced, 1);
    ExpectBitIdentical(got, w.expected[i], w.requests[i]);
  }
}

// The tentpole contract: N client threads, mixed request kinds, two
// worker replicas sharing one embedding cache - and every single response
// bitwise equal to the serial one-request-at-a-time oracle, no matter
// which requests shared a flush, which worker served it, or whether the
// embedding came from the cache.
TEST(ServingTest, ConcurrentMixedClientsBitIdenticalToSerialOracle) {
  text::Vocab vocab = TestVocab();
  auto oracle_enc = MakeServingEncoder(vocab);
  auto enc1 = MakeServingEncoder(vocab);
  auto enc2 = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  matcher::PairMatcher oracle_matcher(oracle_enc.get(), &vocab, fopts);
  matcher::PairMatcher matcher1(enc1.get(), &vocab, fopts);
  matcher::PairMatcher matcher2(enc2.get(), &vocab, fopts);
  index::EmbeddingCache cache(256);
  enc1->set_embedding_cache(&cache);
  enc2->set_embedding_cache(&cache);

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::vector<Workload> workloads;
  for (int c = 0; c < kClients; ++c) {
    // Overlapping seeds (c/2) make some clients submit identical
    // sequences concurrently, exercising shared-cache hits.
    workloads.push_back(MakeWorkload(kPerClient, 100 + c / 2,
                                     oracle_enc.get(), &oracle_matcher));
  }

  ServerOptions opts;
  opts.max_batch = 16;
  opts.max_wait_us = 500;
  opts.queue_capacity = 64;
  Server server({{enc1.get(), &matcher1}, {enc2.get(), &matcher2}}, opts);

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Response>> futures;
      for (const Request& req : workloads[static_cast<size_t>(c)].requests) {
        futures.push_back(server.Submit(req));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        Response got = futures[i].get();
        ExpectBitIdentical(
            got, workloads[static_cast<size_t>(c)].expected[i],
            workloads[static_cast<size_t>(c)].requests[i]);
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GE(stats.batches, 1u);
}

TEST(ServingTest, RequestsDoCoalesce) {
  auto enc = MakeServingEncoder();
  ServerOptions opts;
  opts.max_batch = 32;
  opts.max_wait_us = 50'000;  // wide window so the burst lands together
  Server server({{enc.get(), nullptr}}, opts);
  Rng rng(3);
  // Pre-build, then submit the burst back-to-back.
  std::vector<Request> reqs;
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.ids = RandomIds(&rng);
    reqs.push_back(std::move(r));
  }
  std::vector<std::future<Response>> futures;
  for (Request& r : reqs) futures.push_back(server.Submit(std::move(r)));
  int max_coalesced = 0;
  for (auto& f : futures) {
    max_coalesced = std::max(max_coalesced, f.get().coalesced);
  }
  // The first request may flush alone (the worker was idle), but the
  // burst behind it must have shared flushes.
  EXPECT_GT(max_coalesced, 1);
  EXPECT_LT(server.stats().batches, 16u);
}

TEST(ServingTest, ExpiredRequestGetsDeadlineExceeded) {
  auto enc = MakeServingEncoder();
  ServerOptions opts;
  opts.max_batch = 1;  // serialize: later requests wait their turn
  opts.max_wait_us = 0;
  Server server({{enc.get(), nullptr}}, opts);
  Rng rng(4);
  std::vector<std::future<Response>> head;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.ids = RandomIds(&rng);
    head.push_back(server.Submit(std::move(r)));
  }
  Request doomed;
  doomed.ids = RandomIds(&rng);
  doomed.timeout_us = 1;  // expires long before the queue reaches it
  std::future<Response> f = server.Submit(std::move(doomed));
  const Response resp = f.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  for (auto& h : head) EXPECT_TRUE(h.get().status.ok());
  EXPECT_EQ(server.stats().expired, 1u);
}

// A timeout too large for the clock - INT64_MAX, the usual "never", or
// anything from 2^63 / 1000 microseconds up - once overflowed the
// deadline into the past: undefined behaviour, and in a Release build a
// kDeadlineExceeded answer for a request that was never computed. It
// means no deadline.
TEST(ServingTest, TimeoutsPastTheClockRangeMeanNoDeadline) {
  text::Vocab vocab = TestVocab();
  auto oracle_enc = MakeServingEncoder(vocab);
  auto serve_enc = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  matcher::PairMatcher oracle_matcher(oracle_enc.get(), &vocab, fopts);
  matcher::PairMatcher serve_matcher(serve_enc.get(), &vocab, fopts);
  Workload w = MakeWorkload(12, 13, oracle_enc.get(), &oracle_matcher);
  Server server({{serve_enc.get(), &serve_matcher}}, ServerOptions{});
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const int64_t timeout_us : {kMax, kMax / 1000 + 1}) {
    for (size_t i = 0; i < w.requests.size(); ++i) {
      Request req = w.requests[i];
      req.timeout_us = timeout_us;
      const Response got = server.Submit(std::move(req)).get();
      ExpectBitIdentical(got, w.expected[i], w.requests[i]);
    }
  }
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST(ServingTest, ShutdownDrainsEveryAcceptedRequest) {
  auto enc = MakeServingEncoder();
  ServerOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 1000;
  opts.queue_capacity = 256;
  Server server({{enc.get(), nullptr}}, opts);
  Rng rng(5);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) {
    Request r;
    r.ids = RandomIds(&rng);
    futures.push_back(server.Submit(std::move(r)));
  }
  server.Shutdown();  // must drain, not drop
  int ok = 0;
  for (auto& f : futures) {
    const Response resp = f.get();  // every future completes
    if (resp.status.ok()) ++ok;
  }
  EXPECT_EQ(ok, 64);
  EXPECT_EQ(server.stats().completed, 64u);

  Request late;
  late.ids = RandomIds(&rng);
  const Response resp = server.Submit(std::move(late)).get();
  EXPECT_EQ(resp.status.code(), StatusCode::kFailedPrecondition);
}

TEST(ServingTest, ConcurrentSubmittersRaceShutdownWithoutStranding) {
  auto enc = MakeServingEncoder();
  ServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 100;
  Server server({{enc.get(), nullptr}}, opts);
  constexpr int kClients = 4;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 40);
      for (int i = 0; i < 50; ++i) {
        Request r;
        r.ids = RandomIds(&rng);
        // Every submission must resolve - served or cleanly refused.
        const Response resp = server.Submit(std::move(r)).get();
        EXPECT_TRUE(resp.status.ok() ||
                    resp.status.code() == StatusCode::kFailedPrecondition)
            << resp.status.ToString();
        ++answered;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Shutdown();
  for (auto& c : clients) c.join();
  EXPECT_EQ(answered.load(), kClients * 50);
}

TEST(ServingTest, InvalidRequestsRejectedUpFront) {
  auto enc = MakeServingEncoder();
  ServerOptions opts;
  Server server({{enc.get(), nullptr}}, opts);  // no matcher
  Request match;
  match.kind = RequestKind::kMatch;
  EXPECT_EQ(server.Submit(std::move(match)).get().status.code(),
            StatusCode::kFailedPrecondition);

  text::Vocab vocab = TestVocab();
  auto enc2 = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  matcher::PairMatcher m(enc2.get(), &vocab, fopts);
  Server server2({{enc2.get(), &m}}, opts);
  Request clean;
  clean.kind = RequestKind::kClean;  // no candidates
  EXPECT_EQ(server2.Submit(std::move(clean)).get().status.code(),
            StatusCode::kInvalidArgument);
}

/// A pair of vocabulary words carrying `side` features.
matcher::PairExample SidePair(int word, std::vector<float> side) {
  matcher::PairExample ex;
  ex.x = {"w1", "w2"};
  ex.y = {"w" + std::to_string(word)};
  ex.side = std::move(side);
  return ex;
}

// The matcher aborts on a side-feature width other than its side_dim,
// which would kill every in-flight request; Submit must reject it instead
// - on a kMatch pair and on any kClean candidate - and keep serving.
TEST(ServingTest, SideFeatureWidthRejectedUpFront) {
  text::Vocab vocab = TestVocab();
  auto enc = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  fopts.side_dim = 3;
  matcher::PairMatcher m(enc.get(), &vocab, fopts);
  ASSERT_EQ(m.side_dim(), 3);
  Server server({{enc.get(), &m}}, ServerOptions{});

  Request match;
  match.kind = RequestKind::kMatch;
  match.pair = SidePair(3, {0.5f, 0.5f});
  EXPECT_EQ(server.Submit(match).get().status.code(),
            StatusCode::kInvalidArgument);
  Request clean;
  clean.kind = RequestKind::kClean;
  clean.candidates = {SidePair(3, {0.1f, 0.2f, 0.3f}),
                      SidePair(4, {0.1f, 0.2f, 0.3f, 0.4f})};
  EXPECT_EQ(server.Submit(clean).get().status.code(),
            StatusCode::kInvalidArgument);

  // Valid widths are still served.
  match.pair.side.push_back(0.5f);
  const Response matched = server.Submit(match).get();
  ASSERT_TRUE(matched.status.ok()) << matched.status.ToString();
  EXPECT_GE(matched.prob, 0.0f);
  EXPECT_LE(matched.prob, 1.0f);
  clean.candidates[1].side.pop_back();
  const Response cleaned = server.Submit(clean).get();
  ASSERT_TRUE(cleaned.status.ok()) << cleaned.status.ToString();
  EXPECT_EQ(cleaned.candidate_probs.size(), 2u);
  EXPECT_GE(cleaned.best_candidate, 0);

  // A matcher without side features ignores `side`, so any width passes.
  auto enc0 = MakeServingEncoder(vocab);
  matcher::PairMatcher m0(enc0.get(), &vocab, matcher::FinetuneOptions{});
  Server server0({{enc0.get(), &m0}}, ServerOptions{});
  match.pair.side = {0.5f, 0.5f};
  EXPECT_TRUE(server0.Submit(match).get().status.ok());
}

// kClean's argmax must rank a NaN probability last, not let it win from
// slot 0. Non-finite side values are accepted (only the width is
// validated), and a NaN one makes candidate 0's probability NaN.
TEST(ServingTest, CleanArgmaxSkipsNaNCandidate) {
  text::Vocab vocab = TestVocab();
  auto enc = MakeServingEncoder(vocab);
  matcher::FinetuneOptions fopts;
  fopts.side_dim = 3;
  matcher::PairMatcher m(enc.get(), &vocab, fopts);
  Server server({{enc.get(), &m}}, ServerOptions{});

  Request clean;
  clean.kind = RequestKind::kClean;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  clean.candidates = {SidePair(3, {nan, 0.2f, 0.3f}),
                      SidePair(4, {0.1f, 0.2f, 0.3f}),
                      SidePair(5, {0.2f, 0.2f, 0.3f})};
  const Response r = server.Submit(clean).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.candidate_probs.size(), 3u);
  ASSERT_TRUE(std::isnan(r.candidate_probs[0]));
  ASSERT_FALSE(std::isnan(r.candidate_probs[1]));
  ASSERT_FALSE(std::isnan(r.candidate_probs[2]));
  const int want = r.candidate_probs[2] > r.candidate_probs[1] ? 2 : 1;
  EXPECT_EQ(r.best_candidate, want);
  EXPECT_EQ(r.prob, r.candidate_probs[static_cast<size_t>(want)]);
}

// Warm restart: a replica built from a *different* seed, then restored
// from the first replica's SaveWeights file, must serve bit-identically -
// the durability bugs this PR fixes were exactly the ones that silently
// broke this path.
TEST(ServingTest, WarmRestartedReplicaServesBitIdentically) {
  auto enc1 = MakeServingEncoder(/*seed=*/7);
  auto enc2 = MakeServingEncoder(/*seed=*/99);  // different random weights
  const std::string path = "/tmp/sudowoodo_serving_warm_restart.bin";
  ASSERT_TRUE(nn::SaveWeights(enc1->Parameters(), path).ok());
  ASSERT_TRUE(nn::LoadWeights(enc2->Parameters(), path).ok());

  Workload w = MakeWorkload(16, 21, enc1.get(), nullptr);
  ServerOptions opts;
  opts.max_batch = 8;
  Server server({{enc2.get(), nullptr}}, opts);
  for (size_t i = 0; i < w.requests.size(); ++i) {
    ExpectBitIdentical(server.Submit(w.requests[i]).get(), w.expected[i],
                       w.requests[i]);
  }
  std::remove(path.c_str());
}

// --- Live corpus through the front door (PR 9) ------------------------------

// End-to-end: upserts build a live corpus, a query encoded through the
// same flush path retrieves by external item id, deletes shrink it.
// Single client, so requests flush in submission order and every write
// is observed by the requests submitted after it.
TEST(ServingLiveIndexTest, UpsertQueryDeleteEndToEnd) {
  auto enc = MakeServingEncoder(/*seed=*/7);
  index::LiveBlockingIndex live(kDim, {});
  ServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 200;
  opts.live_index = &live;
  Server server({{enc.get(), nullptr}}, opts);

  // Distinct token sequences for distinct items.
  Rng rng(63);
  std::vector<std::vector<int>> contents;
  for (int item = 0; item < 12; ++item) {
    contents.push_back(RandomIds(&rng));
    Request up;
    up.kind = RequestKind::kUpsert;
    up.item_id = 100 + item;
    up.ids = contents.back();
    ASSERT_TRUE(server.Submit(std::move(up)).get().status.ok());
  }
  EXPECT_EQ(live.size(), 12);

  // Querying an item's own serialization must rank that item first
  // (identical embedding, cosine 1; every other row < 1 modulo exact
  // duplicates, which RandomIds makes vanishingly unlikely here).
  Request q;
  q.kind = RequestKind::kQuery;
  q.ids = contents[5];
  q.k = 3;
  Response got = server.Submit(q).get();
  ASSERT_TRUE(got.status.ok());
  ASSERT_EQ(got.neighbors.size(), 3u);
  EXPECT_EQ(got.neighbors[0].id, 105);

  Request del;
  del.kind = RequestKind::kDelete;
  del.item_id = 105;
  ASSERT_TRUE(server.Submit(std::move(del)).get().status.ok());
  EXPECT_EQ(live.size(), 11);
  EXPECT_FALSE(live.Contains(105));
  got = server.Submit(q).get();
  ASSERT_TRUE(got.status.ok());
  for (const auto& nb : got.neighbors) EXPECT_NE(nb.id, 105);

  // Deleting it again is the index's NotFound, delivered per-request.
  Request again;
  again.kind = RequestKind::kDelete;
  again.item_id = 105;
  EXPECT_EQ(server.Submit(std::move(again)).get().status.code(),
            StatusCode::kNotFound);
}

// A replacement upsert through the server erases the old serialization's
// cached embedding: zero stale entries for keys the corpus no longer
// holds (the cache is content-keyed and pure, so this is hygiene plus
// the documented invalidation contract, asserted end-to-end).
TEST(ServingLiveIndexTest, UpsertThroughServerInvalidatesOldCacheKey) {
  auto enc = MakeServingEncoder(/*seed=*/7);
  index::EmbeddingCache cache(128);
  enc->set_embedding_cache(&cache);
  index::LiveBlockingIndex live(kDim, {}, &cache);
  ServerOptions opts;
  opts.live_index = &live;
  Server server({{enc.get(), nullptr}}, opts);

  const std::vector<int> content_a = {7, 8, 9, 10};
  const std::vector<int> content_b = {11, 12, 13};
  Request up;
  up.kind = RequestKind::kUpsert;
  up.item_id = 1;
  up.ids = content_a;
  ASSERT_TRUE(server.Submit(up).get().status.ok());
  // The upsert's encode populated the cache under content_a.
  std::vector<float> got(static_cast<size_t>(kDim));
  ASSERT_TRUE(cache.Lookup(content_a, got.data(), kDim));

  up.ids = content_b;  // same item, new content
  ASSERT_TRUE(server.Submit(up).get().status.ok());
  EXPECT_FALSE(cache.Lookup(content_a, got.data(), kDim));
  EXPECT_GE(cache.stats().erasures, 1u);
  EXPECT_EQ(live.size(), 1);
  EXPECT_EQ(live.stats().replacements, 1u);
}

TEST(ServingLiveIndexTest, RejectsIndexKindsWithoutLiveIndex) {
  auto enc = MakeServingEncoder(/*seed=*/7);
  Server server({{enc.get(), nullptr}}, ServerOptions{});
  for (RequestKind kind :
       {RequestKind::kQuery, RequestKind::kUpsert, RequestKind::kDelete}) {
    Request r;
    r.kind = kind;
    r.item_id = 1;
    r.ids = {1, 2, 3};
    EXPECT_EQ(server.Submit(std::move(r)).get().status.code(),
              StatusCode::kFailedPrecondition);
  }

  index::LiveBlockingIndex live(kDim, {});
  ServerOptions opts;
  opts.live_index = &live;
  Server server2({{enc.get(), nullptr}}, opts);
  Request bad;
  bad.kind = RequestKind::kUpsert;
  bad.item_id = -1;  // required non-negative
  bad.ids = {1, 2};
  EXPECT_EQ(server2.Submit(std::move(bad)).get().status.code(),
            StatusCode::kInvalidArgument);
  Request badk;
  badk.kind = RequestKind::kQuery;
  badk.k = -2;
  badk.ids = {1, 2};
  EXPECT_EQ(server2.Submit(std::move(badk)).get().status.code(),
            StatusCode::kInvalidArgument);
}

// An out-of-vocabulary token id would reach the encoder's range check
// and abort the process, taking every in-flight request with it. Submit
// rejects it instead: the bad requests get kInvalidArgument, the live
// index is untouched, and the server keeps serving.
TEST(ServingLiveIndexTest, OutOfVocabTokenIdsRejectedUpFront) {
  auto enc = MakeServingEncoder(/*seed=*/7);
  const int vocab = enc->vocab_size();
  index::LiveBlockingIndex live(kDim, {});
  ServerOptions opts;
  opts.live_index = &live;
  Server server({{enc.get(), nullptr}}, opts);

  const std::vector<int> content = {7, 8, 9};
  Request up;
  up.kind = RequestKind::kUpsert;
  up.item_id = 1;
  up.ids = content;
  ASSERT_TRUE(server.Submit(up).get().status.ok());
  Request q;
  q.kind = RequestKind::kQuery;
  q.ids = content;
  q.k = 1;
  const Response before = server.Submit(q).get();
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.neighbors.size(), 1u);

  // A replacement of item 1 and a new item 2, each with one bad id.
  Request bad_replace = up;
  bad_replace.ids = {7, vocab, 9};
  Request bad_new = up;
  bad_new.item_id = 2;
  bad_new.ids = {-1, 8};
  Request bad_encode;
  bad_encode.kind = RequestKind::kEncode;
  bad_encode.ids = {vocab + 100};
  Request bad_query = q;
  bad_query.ids = {8, -3};
  for (Request* r : {&bad_replace, &bad_new, &bad_encode, &bad_query}) {
    EXPECT_EQ(server.Submit(*r).get().status.code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(live.size(), 1);
  EXPECT_FALSE(live.Contains(2));
  EXPECT_EQ(live.stats().upserts, 1u);
  EXPECT_EQ(live.stats().replacements, 0u);

  // Item 1 still holds its original row, and valid traffic is served.
  const Response after = server.Submit(q).get();
  ASSERT_TRUE(after.status.ok());
  ASSERT_EQ(after.neighbors.size(), 1u);
  EXPECT_EQ(after.neighbors[0].id, before.neighbors[0].id);
  EXPECT_EQ(after.neighbors[0].sim, before.neighbors[0].sim);
  Request good = up;
  good.item_id = 2;
  good.ids = {10, 11, vocab - 1};
  EXPECT_TRUE(server.Submit(good).get().status.ok());
  EXPECT_EQ(live.size(), 2);
}

// The TSan hammer: concurrent clients mixing queries, upserts, and
// deletes of disjoint item ranges through a two-replica server. Queries
// race mutations by design - the live index's shared_mutex must make
// every interleaving safe, and each client observes its own writes
// because its requests flush in submission order.
TEST(ServingLiveIndexTest, ConcurrentQueryVsMutationHammer) {
  text::Vocab vocab = TestVocab();
  auto enc1 = MakeServingEncoder(vocab);
  auto enc2 = MakeServingEncoder(vocab);
  index::EmbeddingCache cache(256);
  enc1->set_embedding_cache(&cache);
  enc2->set_embedding_cache(&cache);
  index::LiveBlockingIndex live(kDim, {}, &cache);
  ServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 200;
  opts.live_index = &live;
  Server server({{enc1.get(), nullptr}, {enc2.get(), nullptr}}, opts);

  constexpr int kClients = 4;
  constexpr int kItemsPerClient = 12;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kItemsPerClient; ++i) {
        const int item = c * kItemsPerClient + i;
        Request up;
        up.kind = RequestKind::kUpsert;
        up.item_id = item;
        up.ids = RandomIds(&rng);
        if (!server.Submit(std::move(up)).get().status.ok()) ++failures;

        Request q;
        q.kind = RequestKind::kQuery;
        q.ids = RandomIds(&rng);
        q.k = 5;
        Response r = server.Submit(std::move(q)).get();
        if (!r.status.ok()) ++failures;

        if (i % 3 == 2) {
          Request del;
          del.kind = RequestKind::kDelete;
          del.item_id = item;  // own range: always live at this point
          if (!server.Submit(std::move(del)).get().status.ok()) ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  int deleted = 0;
  for (int i = 2; i < kItemsPerClient; i += 3) ++deleted;
  EXPECT_EQ(live.size(), kClients * (kItemsPerClient - deleted));
  // Every surviving item is retrievable by its own content afterwards.
  for (int c = 0; c < kClients; ++c) {
    Rng rng(1000 + static_cast<uint64_t>(c));
    for (int i = 0; i < kItemsPerClient; ++i) {
      const int item = c * kItemsPerClient + i;
      const std::vector<int> content = RandomIds(&rng);
      RandomIds(&rng);  // skip the query's ids from the same stream
      const bool was_deleted = (i % 3 == 2);
      EXPECT_EQ(live.Contains(item), !was_deleted) << "item " << item;
      if (was_deleted) continue;
      Request q;
      q.kind = RequestKind::kQuery;
      q.ids = content;
      q.k = 1;
      Response r = server.Submit(std::move(q)).get();
      ASSERT_TRUE(r.status.ok());
      ASSERT_EQ(r.neighbors.size(), 1u);
      EXPECT_EQ(r.neighbors[0].id, item) << "client " << c << " item " << i;
    }
  }
}

}  // namespace
}  // namespace sudowoodo::serving
