#include "model.h"

#include <algorithm>
#include <stdexcept>

#include "pipeline/em_pipeline.h"
#include "stats.h"

namespace sudowoodo::perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

data::EmDataset GenerateEmDataset(const std::string& code, int n_entities,
                                  uint64_t seed, Tracer* tracer) {
  ScopedSpan span(tracer, "data.generate");
  data::EmSpec spec = data::GetEmSpec(code);
  if (n_entities > 0) {
    spec.b_extra = static_cast<int>(static_cast<int64_t>(spec.b_extra) *
                                    n_entities / spec.n_entities);
    spec.n_entities = n_entities;
  }
  spec.seed = seed;
  return data::GenerateEm(spec);
}

std::vector<Tokens> SerializeTable(const data::Table& table) {
  std::vector<Tokens> out;
  out.reserve(static_cast<size_t>(table.num_rows()));
  for (int r = 0; r < table.num_rows(); ++r) {
    out.push_back(pipeline::EmPipeline::SerializeRow(table, r));
  }
  return out;
}

text::Vocab BuildVocab(const std::vector<Tokens>& corpus, Tracer* tracer) {
  ScopedSpan span(tracer, "text.vocab");
  return text::Vocab::Build(corpus, pipeline::EmPipelineOptions{}.vocab_size);
}

std::vector<std::vector<int>> EncodeIds(const text::Vocab& vocab,
                                        const std::vector<Tokens>& rows) {
  std::vector<std::vector<int>> out;
  out.reserve(rows.size());
  for (const Tokens& t : rows) out.push_back(vocab.Encode(t));
  return out;
}

PretrainCost Pretrain(nn::Encoder* encoder, const text::Vocab& vocab,
                      const std::vector<Tokens>& corpus,
                      const contrastive::PretrainOptions& options,
                      Tracer* tracer) {
  ScopedSpan span(tracer, "contrastive.pretrain");
  contrastive::Pretrainer pretrainer(encoder, &vocab, options);
  const Status st = pretrainer.Run(corpus);
  Require(st.ok(), "pre-training: " + st.ToString());
  return PretrainCost{pretrainer.stats().seconds,
                      pretrainer.stats().batches_run};
}

std::vector<float> EncodeRows(nn::Encoder* encoder,
                              const std::vector<std::vector<int>>& ids,
                              Tracer* tracer) {
  constexpr size_t kChunk = 256;
  const size_t d = static_cast<size_t>(encoder->dim());
  std::vector<float> rows(ids.size() * d);
  for (size_t begin = 0; begin < ids.size(); begin += kChunk) {
    const size_t end = std::min(ids.size(), begin + kChunk);
    const std::vector<std::vector<int>> chunk(ids.begin() + begin,
                                              ids.begin() + end);
    ScopedSpan span(tracer, "nn.bulk_encode");
    encoder->EncodeNormalizedInto(chunk, rows.data() + begin * d);
  }
  return rows;
}

bool SameNeighbors(const std::vector<index::Neighbor>& a,
                   const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].sim != b[i].sim) return false;
  }
  return true;
}

serving::ServerOptions ServerSettings(index::LiveBlockingIndex* live) {
  serving::ServerOptions options;
  options.max_batch = 32;
  options.max_wait_us = 100;
  options.queue_capacity = 4096;
  options.live_index = live;
  return options;
}

void AddServingMetrics(const serving::ServerStats& stats, const Tracer& trace,
                       Report* report) {
  report->Add("serving.flush_size",
              static_cast<double>(stats.coalesced) /
                  static_cast<double>(std::max<uint64_t>(1, stats.batches)),
              stats.batches);
  std::vector<double> submit_us;
  for (double s : trace.DurationsSeconds("serving.submit")) {
    submit_us.push_back(s * 1e6);
  }
  report->Add("serving.submit_us", Percentile(submit_us, 50),
              submit_us.size());
  report->Add("serving.expired", static_cast<double>(stats.expired));
}

void AddCacheMetrics(const index::EmbeddingCacheStats& before,
                     const index::EmbeddingCacheStats& after, Report* report) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses);
  report->Add("index.cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(lookups),
              lookups);
  report->Add("index.cache_erasures",
              static_cast<double>(after.erasures - before.erasures));
}

void AddSetUpMetrics(const Tracer& trace, const PretrainCost& pretrain,
                     Report* report) {
  const double pretrain_s = trace.TotalSeconds("contrastive.pretrain");
  report->Add("contrastive.pretrain_s", pretrain_s);
  report->Add("contrastive.step_ms",
              pretrain_s * 1e3 / std::max(1, pretrain.batches),
              pretrain.batches);
  report->Add("data.generate_s", trace.TotalSeconds("data.generate"),
              trace.Calls("data.generate"));
  report->Add("text.vocab_s", trace.TotalSeconds("text.vocab"));
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

}  // namespace sudowoodo::perfbench
