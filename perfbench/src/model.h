// What the workloads share: the set-up steps - generating a scaled
// synthetic EM dataset from the benchmark seed, serializing it, building
// the vocabulary, pre-training and bulk-encoding, each wrapped in the span
// of the layer it calls - the bitwise comparison their checks use, and the
// per-layer metrics more than one workload reports.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "contrastive/pretrainer.h"
#include "data/em_dataset.h"
#include "index/embedding_cache.h"
#include "index/vector_index.h"
#include "nn/encoder.h"
#include "serving/server.h"
#include "text/vocab.h"
#include "trace.h"

namespace sudowoodo::perfbench {

using Tokens = std::vector<std::string>;

// EmPipelineOptions' encoder_dim and max_len defaults.
constexpr int kDim = 64;
constexpr int kMaxLen = 96;

// What the two served workloads share.
constexpr int kTopK = 10;
constexpr size_t kCacheEntries = 4096;
// A request still queued after this long is answered kDeadlineExceeded.
constexpr int64_t kTimeoutUs = 1000000;
// Latency percentiles are medians over this many equal windows of the
// run (see WindowedPercentile).
constexpr int kWindows = 10;

/// One worker's server over `live`: a 100 us batch window, small against
/// the service time of an op, and a queue deep enough that an open-loop
/// client never blocks in Submit.
serving::ServerOptions ServerSettings(index::LiveBlockingIndex* live);

/// A seed for one use (`salt`) of the benchmark seed, so each generated
/// input draws an independent stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// The preset `code` generated from `seed`. A positive `n_entities`
/// scales the preset's entity count, and its B-only extras with it; the
/// labeled pair count stays the preset's. Span "data.generate".
data::EmDataset GenerateEmDataset(const std::string& code, int n_entities,
                                  uint64_t seed, Tracer* tracer);

/// The serialized token stream of every row.
std::vector<Tokens> SerializeTable(const data::Table& table);

/// Span "text.vocab".
text::Vocab BuildVocab(const std::vector<Tokens>& corpus, Tracer* tracer);

/// Token ids of every row ([CLS]-prefixed, as the server expects).
std::vector<std::vector<int>> EncodeIds(const text::Vocab& vocab,
                                        const std::vector<Tokens>& rows);

struct PretrainCost {
  double seconds = 0.0;
  int batches = 0;
};

/// Contrastive pre-training of `encoder` on `corpus`. Span
/// "contrastive.pretrain". Throws on a non-OK status.
PretrainCost Pretrain(nn::Encoder* encoder, const text::Vocab& vocab,
                      const std::vector<Tokens>& corpus,
                      const contrastive::PretrainOptions& options,
                      Tracer* tracer);

/// L2-normalized embeddings of `ids` as one [n, dim] buffer, encoded in
/// chunks through the serving entry point. Span "nn.bulk_encode" per chunk.
std::vector<float> EncodeRows(nn::Encoder* encoder,
                              const std::vector<std::vector<int>>& ids,
                              Tracer* tracer);

/// Same ids and bitwise-equal similarities, in order.
bool SameNeighbors(const std::vector<index::Neighbor>& a,
                   const std::vector<index::Neighbor>& b);

/// serving.flush_size, serving.submit_us and serving.expired.
void AddServingMetrics(const serving::ServerStats& stats, const Tracer& trace,
                       Report* report);

/// index.cache_hit_ratio and index.cache_erasures over the timed phase.
void AddCacheMetrics(const index::EmbeddingCacheStats& before,
                     const index::EmbeddingCacheStats& after, Report* report);

/// The set-up layers: data.generate_s, text.vocab_s,
/// contrastive.pretrain_s and contrastive.step_ms.
void AddSetUpMetrics(const Tracer& trace, const PretrainCost& pretrain,
                     Report* report);

/// Throws std::runtime_error(what) when `ok` is false: a set-up step
/// failed, so the run has nothing to measure.
void Require(bool ok, const std::string& what);

}  // namespace sudowoodo::perfbench

#endif  // PERFBENCH_MODEL_H_
