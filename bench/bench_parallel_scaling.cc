// Thread-scaling microbenchmark for the parallel execution subsystem:
// brute-force kNN blocking and TF-IDF scoring over >= 2k records at
// num_threads = 1, 2, 4, verifying bit-identical results while timing.
//
// On a single-core container the parallel wall-clock will not beat the
// serial one (there is no second core to run the shards); the bench still
// verifies the determinism contract and reports honest numbers.

#include "common/alloc_count.h"  // defines operator new for this binary

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_out.h"
#include "common/parallel.h"
#include "common/random_vectors.h"
#include "common/rng.h"
#include "common/timer.h"
#include "contrastive/pretrainer.h"
#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "matcher/pair_matcher.h"
#include "nn/encoder.h"
#include "nn/gru.h"
#include "sparse/tfidf.h"
#include "text/vocab.h"

namespace sudowoodo {
namespace {

bool SameNeighbors(const std::vector<std::vector<index::Neighbor>>& a,
                   const std::vector<std::vector<index::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].sim != b[i][j].sim) return false;
    }
  }
  return true;
}

// The encoding and training series time a per-row baseline at 1 thread,
// then the batched route at 1 and 4 threads.
struct ModeCase {
  bool batched;
  int threads;
};
constexpr ModeCase kModes[] = {{false, 1}, {true, 1}, {true, 4}};

// Runs `once` (which returns {seconds, output}) one untimed time, then 5
// timed times. Sets `seconds` to the median timed run and `repeatable` to
// whether every run reproduced the warm-up's output; returns that output.
template <typename Once>
auto WarmMedian(const Once& once, double* seconds, bool* repeatable) {
  const auto first = once().second;
  std::vector<double> times;
  *repeatable = true;
  for (int run = 0; run < 5; ++run) {
    const auto [s, out] = once();
    times.push_back(s);
    *repeatable = *repeatable && out == first;
  }
  std::sort(times.begin(), times.end());
  *seconds = times[times.size() / 2];
  return first;
}

// About 2.4 us of arithmetic on the 4-vCPU AVX-512 dev VM: a dependent
// chain of multiply-adds from `x`, so the compiler can neither fold,
// hoist nor vectorize it, and every call does the same work.
float ShardWork(float x) {
  for (int i = 0; i < 800; ++i) x = x * 0.999999f + 1e-6f;
  return x;
}

void Run(const std::string& json_path) {
  bench::JsonRecords records;
  const int n_items = 2500, n_queries = 2500, dim = 64, k = 10;
  std::printf("kNN blocking: %d items x %d queries, dim=%d, k=%d\n", n_items,
              n_queries, dim, k);
  std::vector<float> items;
  for (const auto& v : RandomUnitVectors(n_items, dim, 7)) {
    items.insert(items.end(), v.begin(), v.end());
  }
  index::BlockingIndexOptions exact;
  exact.kind = index::BlockingIndexKind::kExact;
  index::BlockingIndex index(items.data(), n_items, dim, exact);
  const auto queries = RandomUnitVectors(n_queries, dim, 11);

  std::vector<std::vector<index::Neighbor>> baseline;
  TablePrinter table("kNN QueryBatch thread scaling");
  table.SetHeader({"num_threads", "knn_seconds", "speedup", "identical"});
  double serial_seconds = 0.0;
  for (int num_threads : {1, 2, 4}) {
    WallTimer timer;
    std::vector<std::vector<index::Neighbor>> result;
    SUDO_CHECK_OK(index.QueryBatch(queries, k, &result, num_threads));
    const double seconds = timer.ElapsedSeconds();
    if (num_threads == 1) {
      serial_seconds = seconds;
      baseline = result;
    }
    const bool identical = SameNeighbors(result, baseline);
    table.AddRow({std::to_string(num_threads), StrFormat("%.3f", seconds),
                  StrFormat("%.2fx", serial_seconds / seconds),
                  identical ? "yes" : "NO"});
    auto& r = records.Add();
    r.Str("bench", "knn_query_batch");
    r.Int("n_items", n_items);
    r.Int("n_queries", n_queries);
    r.Int("dim", dim);
    r.Int("k", k);
    r.Int("num_threads", num_threads);
    r.Num("seconds", seconds);
    r.Num("speedup", serial_seconds / seconds);
    r.Bool("identical_to_serial", identical);
  }
  table.Print();

  std::printf("\nTF-IDF transform: %d docs\n", 2 * n_items);
  Rng rng(3);
  std::vector<std::vector<std::string>> corpus;
  for (int d = 0; d < 2 * n_items; ++d) {
    std::vector<std::string> doc;
    const int len = 10 + rng.UniformInt(30);
    for (int t = 0; t < len; ++t) {
      doc.push_back("tok" + std::to_string(rng.UniformInt(4000)));
    }
    corpus.push_back(std::move(doc));
  }
  sparse::TfIdfFeaturizer tfidf;
  tfidf.Fit(corpus);
  TablePrinter table2("TF-IDF TransformBatch thread scaling");
  table2.SetHeader({"num_threads", "tfidf_seconds", "speedup"});
  double tfidf_serial = 0.0;
  for (int num_threads : {1, 2, 4}) {
    WallTimer timer;
    auto vecs = tfidf.TransformBatch(corpus, num_threads);
    const double seconds = timer.ElapsedSeconds();
    if (num_threads == 1) tfidf_serial = seconds;
    table2.AddRow({std::to_string(num_threads), StrFormat("%.3f", seconds),
                   StrFormat("%.2fx", tfidf_serial / seconds)});
    auto& r = records.Add();
    r.Str("bench", "tfidf_transform_batch");
    r.Int("n_docs", 2 * n_items);
    r.Int("num_threads", num_threads);
    r.Num("seconds", seconds);
    r.Num("speedup", tfidf_serial / seconds);
  }
  table2.Print();

  // --- batched vs one-row inference encoding -------------------------------
  // The serving hot path: padded-pack [B, T] batches through the blocked
  // GEMMs, at 1 and 4 threads, against one EncodeInference call per
  // sequence (B = 1 on the same route) at 1 thread, all verified
  // bit-identical (the batched route is exactly equivalent by construction
  // - see tests/batch_encode_test.cc).
  {
    Rng erng(23);
    std::vector<std::vector<int>> token_batch;
    const int n_seqs = 1500, vocab = 2000;
    for (int i = 0; i < n_seqs; ++i) {
      std::vector<int> ids;
      const int len = 4 + erng.UniformInt(60);
      for (int t = 0; t < len; ++t) ids.push_back(6 + erng.UniformInt(vocab - 6));
      token_batch.push_back(std::move(ids));
    }

    struct EncoderCase {
      const char* name;
      std::function<std::unique_ptr<nn::Encoder>()> make;
    };
    nn::FastBagConfig bag;
    bag.vocab_size = vocab;
    bag.dim = 64;
    bag.hidden_dim = 128;
    bag.max_len = 64;
    nn::TransformerConfig trf;
    trf.vocab_size = vocab;
    trf.dim = 32;
    trf.n_layers = 2;
    trf.n_heads = 4;
    trf.ffn_dim = 64;
    trf.max_len = 64;
    nn::GruConfig gru;
    gru.vocab_size = vocab;
    gru.dim = 32;
    gru.max_len = 64;
    const EncoderCase cases[] = {
        {"fastbag_d64",
         [&] { return std::make_unique<nn::FastBagEncoder>(bag); }},
        {"transformer_d32",
         [&] { return std::make_unique<nn::TransformerEncoder>(trf); }},
        {"gru_d32", [&] { return std::make_unique<nn::GruEncoder>(gru); }},
    };

    std::printf("\nInference encoding: %d ragged sequences, batched vs one-row "
                "calls\n",
                n_seqs);
    TablePrinter table3("Batched vs one-row inference encoding");
    table3.SetHeader({"encoder", "mode", "num_threads", "seconds", "speedup",
                      "identical"});
    for (const EncoderCase& c : cases) {
      std::vector<std::vector<float>> baseline;
      double per_row_serial = 0.0;
      for (const ModeCase mc : kModes) {
        auto encoder = c.make();
        encoder->set_num_threads(mc.threads);
        auto encode = [&] {
          WallTimer timer;
          std::vector<std::vector<float>> out;
          if (mc.batched) {
            out = encoder->EmbedNormalized(token_batch);
          } else {
            std::vector<std::vector<int>> one(1);
            for (const auto& seq : token_batch) {
              one[0] = seq;
              out.push_back(encoder->EmbedNormalized(one)[0]);
            }
          }
          return std::make_pair(timer.ElapsedSeconds(), std::move(out));
        };
        double seconds = 0.0;
        bool repeatable = false;
        const auto emb = WarmMedian(encode, &seconds, &repeatable);
        if (!mc.batched) {
          per_row_serial = seconds;
          baseline = emb;
        }
        const bool identical = repeatable && emb == baseline;
        const char* mode = mc.batched ? "batched" : "per_row";
        table3.AddRow({c.name, mode, std::to_string(mc.threads),
                       StrFormat("%.3f", seconds),
                       StrFormat("%.2fx", per_row_serial / seconds),
                       identical ? "yes" : "NO"});
        auto& r = records.Add();
        r.Str("bench", "inference_encoding");
        r.Str("encoder", c.name);
        r.Str("mode", mode);
        r.Int("n_seqs", n_seqs);
        r.Int("num_threads", mc.threads);
        r.Num("seconds", seconds);
        r.Num("speedup_vs_per_row_serial", per_row_serial / seconds);
        r.Bool("identical_to_per_row", identical);
      }
    }
    table3.Print();
  }

  // --- allocation-free steady-state serving + embedding cache --------------
  // The PR-5 serving subsystem: batched inference on the reusable
  // Workspace (zero heap allocations after warmup, counted by the
  // operator-new hook this binary defines) plus the content-keyed
  // embedding cache. The workload mimics cleaning's pair scoring: a pool
  // of distinct serialized entries, each encoded `kRepeats` times per
  // pass - exactly the repetition the cache exploits. Outputs are
  // asserted bit-identical across cache on/off.
  {
    Rng srng(31);
    const int n_unique = 300, repeats = 5, vocab = 2000;
    std::vector<std::vector<int>> unique_seqs;
    for (int i = 0; i < n_unique; ++i) {
      std::vector<int> ids;
      const int len = 4 + srng.UniformInt(48);
      for (int t = 0; t < len; ++t) {
        ids.push_back(6 + srng.UniformInt(vocab - 6));
      }
      unique_seqs.push_back(std::move(ids));
    }
    std::vector<std::vector<int>> serve_batch;
    for (int r = 0; r < repeats; ++r) {
      for (const auto& s : unique_seqs) serve_batch.push_back(s);
    }

    struct EncoderCase {
      const char* name;
      std::function<std::unique_ptr<nn::Encoder>()> make;
      int dim;
    };
    nn::FastBagConfig bag;
    bag.vocab_size = vocab;
    bag.dim = 64;
    bag.hidden_dim = 128;
    bag.max_len = 64;
    nn::TransformerConfig trf;
    trf.vocab_size = vocab;
    trf.dim = 32;
    trf.n_layers = 2;
    trf.n_heads = 4;
    trf.ffn_dim = 64;
    trf.max_len = 64;
    nn::GruConfig gru;
    gru.vocab_size = vocab;
    gru.dim = 32;
    gru.max_len = 64;
    const EncoderCase cases[] = {
        {"fastbag_d64",
         [&] { return std::make_unique<nn::FastBagEncoder>(bag); }, bag.dim},
        {"transformer_d32",
         [&] { return std::make_unique<nn::TransformerEncoder>(trf); },
         trf.dim},
        {"gru_d32", [&] { return std::make_unique<nn::GruEncoder>(gru); },
         gru.dim},
    };

    std::printf(
        "\nSteady-state serving: %d rows (%d unique x %d), warm vs cold, "
        "cache on/off\n",
        static_cast<int>(serve_batch.size()), n_unique, repeats);
    TablePrinter table5("Allocation-free serving + embedding cache");
    table5.SetHeader({"encoder", "cache", "phase", "ms/call", "allocs/call",
                      "alloc KB/call", "speedup_vs_nocache_warm",
                      "identical"});
    for (const EncoderCase& c : cases) {
      std::vector<float> reference;
      double nocache_warm_seconds = 0.0;
      for (const bool cache_on : {false, true}) {
        auto encoder = c.make();
        index::EmbeddingCache cache(cache_on ? 8192 : 0);
        if (cache_on) encoder->set_embedding_cache(&cache);
        std::vector<float> out(serve_batch.size() *
                               static_cast<size_t>(c.dim));
        const int warm_calls = 5;
        for (const char* phase : {"cold", "warm"}) {
          const bool cold = phase[0] == 'c';
          const int calls = cold ? 1 : warm_calls;
          AllocCounterStart();
          WallTimer timer;
          for (int call = 0; call < calls; ++call) {
            encoder->EncodeInference(serve_batch, out.data());
          }
          const double seconds = timer.ElapsedSeconds() / calls;
          const auto allocs = AllocCounterStop();
          const double allocs_per_call =
              static_cast<double>(allocs.count) / calls;
          const double bytes_per_call =
              static_cast<double>(allocs.bytes) / calls;
          if (!cache_on && !cold) nocache_warm_seconds = seconds;
          if (!cache_on && cold) reference = out;
          const bool identical = out == reference;
          const double speedup =
              !cold && nocache_warm_seconds > 0.0 && seconds > 0.0
                  ? nocache_warm_seconds / seconds
                  : 1.0;
          table5.AddRow({c.name, cache_on ? "on" : "off", phase,
                         StrFormat("%.2f", seconds * 1e3),
                         StrFormat("%.0f", allocs_per_call),
                         StrFormat("%.1f", bytes_per_call / 1024.0),
                         StrFormat("%.2fx", speedup),
                         identical ? "yes" : "NO"});
          auto& r = records.Add();
          r.Str("bench", "encode_steady_state");
          r.Str("encoder", c.name);
          r.Str("cache", cache_on ? "on" : "off");
          r.Str("phase", phase);
          r.Int("n_rows", static_cast<int>(serve_batch.size()));
          r.Int("n_unique", n_unique);
          r.Num("seconds", seconds);
          r.Num("allocs_per_call", allocs_per_call);
          r.Num("alloc_bytes_per_call", bytes_per_call);
          r.Num("speedup_vs_nocache_warm", speedup);
          r.Bool("identical_to_uncached", identical);
        }
      }
    }
    table5.Print();
  }

  // --- allocation-free match flush -----------------------------------------
  // One serving flush of the pairwise matcher, shaped like perfbench
  // resolve's: a record against its 10 blocking candidates, through
  // PairMatcher::PredictProbaInto on FastBag. Phases: the first call on an
  // empty cache (cold); repeat calls whose every row hits (warm); and a
  // cache far smaller than the rotation of flushes it serves, so every
  // call misses and evicts (full). Each record is the median per-call
  // time, plus heap allocations per call; every probability must equal a
  // cache-less twin's.
  {
    constexpr int kPairs = 10, kFlushes = 64, kCalls = 2000;
    Rng mrng(37);
    const auto random_tokens = [&] {
      std::vector<std::string> tokens;
      const int len = 8 + mrng.UniformInt(33);
      for (int t = 0; t < len; ++t) {
        tokens.push_back("w" + std::to_string(mrng.UniformInt(3000)));
      }
      return tokens;
    };
    std::vector<std::vector<matcher::PairExample>> flushes(kFlushes);
    std::vector<std::vector<std::string>> corpus;
    for (auto& flush : flushes) {
      const std::vector<std::string> x = random_tokens();
      for (int p = 0; p < kPairs; ++p) {
        matcher::PairExample ex;
        ex.x = x;
        ex.y = random_tokens();
        corpus.push_back(ex.y);
        flush.push_back(std::move(ex));
      }
      corpus.push_back(x);
    }
    const text::Vocab vocab = text::Vocab::Build(corpus, 4000);
    nn::FastBagConfig bag;
    bag.vocab_size = vocab.size();
    bag.dim = 64;
    bag.hidden_dim = 128;
    bag.max_len = 64;
    const matcher::FinetuneOptions fopts;

    // Reference probabilities from a twin without a cache (same seeds,
    // so the same weights).
    nn::FastBagEncoder oracle_encoder(bag);
    matcher::PairMatcher oracle(&oracle_encoder, &vocab, fopts);
    std::vector<std::vector<float>> want(kFlushes);
    for (int f = 0; f < kFlushes; ++f) {
      want[static_cast<size_t>(f)] = oracle.PredictProba(flushes[static_cast<size_t>(f)]);
    }

    std::printf("\nMatch flush: %d pairs per PredictProbaInto call, FastBag "
                "d64\n",
                kPairs);
    TablePrinter table7("Allocation-free match flush + embedding cache");
    table7.SetHeader({"phase", "us/call", "allocs/call", "alloc KB/call",
                      "hit_ratio", "identical"});
    std::vector<float> probs(kPairs);
    std::vector<double> times(kCalls);
    for (const char* phase : {"cold", "warm", "full"}) {
      const bool full = phase[0] == 'f';
      // A full cache holds 64 of the 1,344 distinct rows of the rotation.
      index::EmbeddingCache cache(full ? 64 : 8192);
      nn::FastBagEncoder encoder(bag);
      encoder.set_embedding_cache(&cache);
      matcher::PairMatcher pm(&encoder, &vocab, fopts);
      const int calls = phase[0] == 'c' ? 1 : kCalls;
      bool identical = true;
      const auto flush_of = [&](int call) {
        return full ? call % kFlushes : 0;
      };
      if (phase[0] != 'c') {
        for (int f = 0; f < kFlushes; ++f) {
          pm.PredictProbaInto(flushes[static_cast<size_t>(flush_of(f))], probs.data());
        }
      }
      const index::EmbeddingCacheStats before = cache.stats();
      AllocCounterStart();
      for (int call = 0; call < calls; ++call) {
        const size_t f = static_cast<size_t>(flush_of(call));
        WallTimer timer;
        pm.PredictProbaInto(flushes[f], probs.data());
        times[static_cast<size_t>(call)] = timer.ElapsedSeconds();
        identical = identical && probs == want[f];
      }
      const auto allocs = AllocCounterStop();
      const index::EmbeddingCacheStats after = cache.stats();
      std::vector<double> sorted(times.begin(), times.begin() + calls);
      std::sort(sorted.begin(), sorted.end());
      const double seconds = sorted[sorted.size() / 2];
      const double allocs_per_call = static_cast<double>(allocs.count) / calls;
      const double bytes_per_call = static_cast<double>(allocs.bytes) / calls;
      const uint64_t hits = after.hits - before.hits;
      const uint64_t lookups = hits + after.misses - before.misses;
      table7.AddRow({phase, StrFormat("%.1f", seconds * 1e6),
                     StrFormat("%.1f", allocs_per_call),
                     StrFormat("%.1f", bytes_per_call / 1024.0),
                     StrFormat("%.2f", lookups > 0 ? static_cast<double>(hits) /
                                                         static_cast<double>(lookups)
                                                   : 0.0),
                     identical ? "yes" : "NO"});
      auto& r = records.Add();
      r.Str("bench", "match_steady_state");
      r.Str("encoder", "fastbag_d64");
      r.Str("phase", phase);
      r.Int("n_pairs", kPairs);
      r.Num("seconds", seconds);
      r.Num("allocs_per_call", allocs_per_call);
      r.Num("alloc_bytes_per_call", bytes_per_call);
      r.Bool("identical_to_uncached", identical);
    }
    table7.Print();
  }

  // --- contrastive training steps: per-row vs batched vs batched+threads ---
  // The pre-training hot loop (Algorithm 1): full forward + backward +
  // AdamW steps through the Pretrainer. Counter-based dropout plus the
  // canonical ascending-row gradient accumulation make every
  // configuration produce bit-identical per-step losses (asserted below);
  // the timing columns show what batching/threading buys, and
  // allocs_per_step the heap allocations one Run makes per step. On a
  // 1-core container the thread rows cannot win wall-clock; re-measure on
  // multi-core hardware.
  {
    Rng crng(29);
    std::vector<std::vector<std::string>> corpus;
    const int n_items = 256;
    for (int i = 0; i < n_items; ++i) {
      std::vector<std::string> item;
      const int len = 4 + crng.UniformInt(40);
      for (int t = 0; t < len; ++t) {
        item.push_back("tok" + std::to_string(crng.UniformInt(1500)));
      }
      corpus.push_back(std::move(item));
    }
    const text::Vocab vocab = text::Vocab::Build(corpus);

    struct TrainCase {
      const char* name;
      std::function<std::unique_ptr<nn::Encoder>()> make;
    };
    nn::FastBagConfig bag;
    bag.vocab_size = vocab.size();
    bag.dim = 64;
    bag.hidden_dim = 128;
    bag.max_len = 48;
    nn::TransformerConfig trf;
    trf.vocab_size = vocab.size();
    trf.dim = 32;
    trf.n_layers = 2;
    trf.n_heads = 4;
    trf.ffn_dim = 64;
    trf.max_len = 48;
    const TrainCase cases[] = {
        {"fastbag_d64",
         [&] { return std::make_unique<nn::FastBagEncoder>(bag); }},
        {"transformer_d32",
         [&] { return std::make_unique<nn::TransformerEncoder>(trf); }},
    };

    std::printf("\nTraining steps: %d items, 1 epoch, per-row vs batched\n",
                n_items);
    TablePrinter table4("Contrastive training: per-row vs batched vs threads");
    table4.SetHeader({"encoder", "mode", "num_threads", "seconds",
                      "steps/s", "speedup", "allocs/step",
                      "identical_losses"});
    for (const TrainCase& c : cases) {
      std::vector<float> baseline_losses;
      double per_row_serial = 0.0;
      for (const ModeCase mc : kModes) {
        contrastive::PretrainOptions opts;
        opts.epochs = 1;
        opts.batch_size = 32;
        opts.corpus_cap = n_items;
        opts.num_clusters = 8;
        opts.num_threads = mc.threads;
        // Every run trains a fresh encoder built from the one config. One
        // more run after the timed ones counts the heap allocations made
        // inside Pretrainer::Run.
        bool count_allocs = false;
        uint64_t run_allocs = 0;
        auto train = [&] {
          auto encoder = c.make();
          encoder->set_batched_training(mc.batched);
          contrastive::Pretrainer trainer(encoder.get(), &vocab, opts);
          if (count_allocs) AllocCounterStart();
          WallTimer timer;
          const Status st = trainer.Run(corpus);
          const double seconds = timer.ElapsedSeconds();
          if (count_allocs) run_allocs = AllocCounterStop().count;
          SUDO_CHECK(st.ok());
          return std::make_pair(seconds, trainer.stats().step_loss);
        };
        double seconds = 0.0;
        bool repeatable = false;
        const auto losses = WarmMedian(train, &seconds, &repeatable);
        count_allocs = true;
        repeatable = repeatable && train().second == losses;
        if (!mc.batched) {
          per_row_serial = seconds;
          baseline_losses = losses;
        }
        const bool identical = repeatable && losses == baseline_losses;
        const char* mode = mc.batched ? "batched" : "per_row";
        const double steps = static_cast<double>(losses.size());
        const double allocs_per_step = static_cast<double>(run_allocs) / steps;
        table4.AddRow({c.name, mode, std::to_string(mc.threads),
                       StrFormat("%.3f", seconds),
                       StrFormat("%.2f", steps / seconds),
                       StrFormat("%.2fx", per_row_serial / seconds),
                       StrFormat("%.0f", allocs_per_step),
                       identical ? "yes" : "NO"});
        auto& r = records.Add();
        r.Str("bench", "training_step");
        r.Str("encoder", c.name);
        r.Str("mode", mode);
        r.Int("n_items", n_items);
        r.Int("num_threads", mc.threads);
        r.Num("seconds", seconds);
        r.Num("steps_per_second", steps / seconds);
        r.Num("speedup_vs_per_row_serial", per_row_serial / seconds);
        r.Num("allocs_per_step", allocs_per_step);
        r.Bool("identical_to_per_row", identical);
      }
    }
    table4.Print();
  }

  // --- fan-out cost: one ParallelFor on the global pool ---------------------
  // What a fork-join costs its caller, with an empty body and with about
  // 2.4 us of work per shard (ShardWork). Each record is the median of
  // per-call times after a warm-up, plus heap allocations per call.
  {
    constexpr int kWarmup = 200, kCalls = 5000;
    struct alignas(64) Slot {
      float value = 0.0f;
    };
    Slot sink[4];  // one cache line per shard: no false sharing
    WallTimer work_timer;
    for (int i = 0; i < kCalls; ++i) sink[0].value = ShardWork(sink[0].value);
    const double work_us = work_timer.ElapsedSeconds() / kCalls * 1e6;
    std::printf(
        "\nFan-out: %d ParallelFor calls per record, %.2f us of work per "
        "working shard\n",
        kCalls, work_us);
    TablePrinter table6("ParallelFor fan-out cost");
    table6.SetHeader({"body", "num_shards", "us/call", "allocs/call"});
    std::vector<double> times(kCalls);
    for (const bool work : {false, true}) {
      for (const int shards : {2, 4}) {
        const auto body = [&](int64_t, int64_t, int shard) {
          if (work) sink[shard].value = ShardWork(sink[shard].value);
        };
        for (int i = 0; i < kWarmup; ++i) ParallelFor(shards, shards, body);
        AllocCounterStart();
        for (double& t : times) {
          WallTimer timer;
          ParallelFor(shards, shards, body);
          t = timer.ElapsedSeconds();
        }
        const auto allocs = AllocCounterStop();
        std::vector<double> sorted = times;
        std::sort(sorted.begin(), sorted.end());
        const double seconds = sorted[sorted.size() / 2];
        const double allocs_per_call =
            static_cast<double>(allocs.count) / kCalls;
        const char* body_name = work ? "work" : "empty";
        table6.AddRow({body_name, std::to_string(shards),
                       StrFormat("%.2f", seconds * 1e6),
                       StrFormat("%.2f", allocs_per_call)});
        auto& r = records.Add();
        r.Str("bench", "fanout");
        r.Str("body", body_name);
        r.Int("num_shards", shards);
        r.Int("calls", kCalls);
        r.Num("seconds", seconds);
        r.Num("allocs_per_call", allocs_per_call);
      }
    }
    table6.Print();
    if (sink[0].value == 0.0f) std::printf("(sink)\n");  // keeps the work
  }

  bench::WriteOrReport(records, json_path);
}

}  // namespace
}  // namespace sudowoodo

int main(int argc, char** argv) {
  sudowoodo::Run(sudowoodo::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
