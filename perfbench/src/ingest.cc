// ingest: keeping the live corpus fresh, the write path beside resolve's
// reads.
//
// One server worker serves a Transformer encoder (the paper's RoBERTa
// analogue) whose weights come from a short seeded pre-training, over a
// LiveBlockingIndex that starts just below kAuto's exact threshold. One
// client thread keeps a fixed number of requests outstanding (closed
// loop) and walks a seeded schedule of single-item kUpsert of new items,
// kUpsert replacing live items with content perturbed by the dataset's
// noise channel, kDelete, and a minority of kQuery. The schedule is a
// count, not a duration, so a faster build does not grow the corpus
// further; its net growth carries the corpus through the exact -> IVF
// migration and the retrains that follow. Index mutation and Transformer
// encoding do most of the work; the matcher does none.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "index/live_index.h"
#include "pipeline/em_pipeline.h"
#include "serving/server.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace sudowoodo::perfbench {
namespace {

// Ops per second of --seconds: a constant of the workload, sized so a
// run takes about --seconds on a 4-core x86 VM.
constexpr double kOpsPerSecond = 1000.0;
// Just below BlockingIndexOptions::exact_threshold (8,192).
constexpr int kInitialItems = 7800;
constexpr int kOutstanding = 8;
// Schedule mix, percent: insert, replace, delete; the rest are queries.
constexpr int kInsertPct = 40;
constexpr int kReplacePct = 25;
constexpr int kDeletePct = 15;
// Pool rows held back from the corpus as query content.
constexpr int kQueryRows = 512;
// Queries whose recall@10 is the workload's quality.
constexpr int kProbes = 256;
constexpr double kReplaceNoise = 0.35;

/// Op count of an ingest run of `seconds`: a constant rate times the run
/// length, never a measured capacity.
int IngestOpCount(double seconds) {
  return std::max(1, static_cast<int>(std::llround(seconds * kOpsPerSecond)));
}

/// A live corpus and the cache its mutations invalidate.
struct Corpus {
  index::EmbeddingCache cache{kCacheEntries};
  std::unique_ptr<index::LiveBlockingIndex> live;
};

struct IngestState {
  std::vector<std::vector<int>> pool_ids;
  std::vector<std::vector<int>> query_ids;
  text::Vocab vocab;
  std::unique_ptr<nn::Encoder> encoder;
  PretrainCost pretrain;
  std::vector<float> initial_rows;  // [kInitialItems, kDim]
  IngestSchedule schedule;
  Corpus served;
  // The second copy of the set-up state the traced run replays on.
  std::unique_ptr<Corpus> replay;
  // Declared last: destroyed (and its worker joined) first.
  std::unique_ptr<serving::Server> server;
};

void LoadInitial(const IngestState& s, Corpus* corpus) {
  corpus->live = std::make_unique<index::LiveBlockingIndex>(
      kDim, index::BlockingIndexOptions{}, &corpus->cache);
  std::vector<index::LiveItem> items(kInitialItems);
  for (int i = 0; i < kInitialItems; ++i) {
    items[static_cast<size_t>(i)].item_id = i;
    items[static_cast<size_t>(i)].token_key =
        s.pool_ids[static_cast<size_t>(i)];
  }
  const Status st = corpus->live->Upsert(items.data(), s.initial_rows.data(),
                                         kInitialItems, kDim);
  Require(st.ok(), "bulk load: " + st.ToString());
}

std::unique_ptr<IngestState> SetUp(const Config& config, Tracer* tracer) {
  const int n_ops = IngestOpCount(config.seconds);
  // Pool rows: the initial corpus, every insert, and the query rows; a
  // generated entity yields ~2.1 rows (A plus ~1.1 in B), so asking for
  // half as many entities as rows leaves a margin.
  const int rows_needed =
      kInitialItems + n_ops * kInsertPct / 100 + kQueryRows + 64;
  auto s = std::make_unique<IngestState>();
  const data::EmDataset ds = GenerateEmDataset(
      "AB", rows_needed / 2 + 64, DeriveSeed(config.seed, 11), tracer);
  std::vector<Tokens> pool = SerializeTable(ds.table_a);
  const std::vector<Tokens> b = SerializeTable(ds.table_b);
  pool.insert(pool.end(), b.begin(), b.end());
  Require(static_cast<int>(pool.size()) >= rows_needed,
          "generated pool too small for the schedule");
  s->vocab = BuildVocab(pool, tracer);
  s->pool_ids = EncodeIds(s->vocab, pool);
  const size_t n_items = pool.size() - kQueryRows;
  s->query_ids.assign(s->pool_ids.begin() + n_items, s->pool_ids.end());
  pool.resize(n_items);

  s->encoder = pipeline::MakeEncoder(pipeline::EncoderKind::kTransformer,
                                     s->vocab.size(), kDim, kMaxLen,
                                     DeriveSeed(config.seed, 12));
  contrastive::PretrainOptions popts;
  popts.epochs = 1;
  popts.corpus_cap = 256;
  popts.seed = DeriveSeed(config.seed, 13);
  s->pretrain = Pretrain(s->encoder.get(), s->vocab, pool, popts, tracer);

  const std::vector<std::vector<int>> initial(
      s->pool_ids.begin(), s->pool_ids.begin() + kInitialItems);
  s->initial_rows = EncodeRows(s->encoder.get(), initial, tracer);
  {
    ScopedSpan span(tracer, "index.bulk_load");
    LoadInitial(*s, &s->served);
    if (tracer != nullptr) {
      s->replay = std::make_unique<Corpus>();
      LoadInitial(*s, s->replay.get());
    }
  }
  s->encoder->set_embedding_cache(&s->served.cache);
  s->schedule = MakeIngestSchedule(DeriveSeed(config.seed, 14), n_ops, pool,
                                   kInitialItems, s->query_ids, s->vocab);

  s->server = std::make_unique<serving::Server>(
      std::vector<serving::ModelReplica>{{s->encoder.get(), nullptr}},
      ServerSettings(s->served.live.get()));
  return s;
}

const char* KindName(IngestKind kind) {
  switch (kind) {
    case IngestKind::kInsert:
    case IngestKind::kReplace:
      return "kUpsert";
    case IngestKind::kDelete:
      return "kDelete";
    case IngestKind::kQuery:
      return "kQuery";
  }
  return "?";
}

serving::Request MakeRequest(const IngestOp& op) {
  serving::Request r;
  r.timeout_us = kTimeoutUs;
  r.item_id = op.item_id;
  r.ids = op.ids;
  switch (op.kind) {
    case IngestKind::kInsert:
    case IngestKind::kReplace:
      r.kind = serving::RequestKind::kUpsert;
      break;
    case IngestKind::kDelete:
      r.kind = serving::RequestKind::kDelete;
      break;
    case IngestKind::kQuery:
      r.kind = serving::RequestKind::kQuery;
      r.k = kTopK;
      break;
  }
  return r;
}

/// One request as the client saw it.
struct Sent {
  Clock::time_point submitted;
  Clock::time_point accepted;
  Clock::time_point done;
  std::vector<index::Neighbor> neighbors;
  bool ok = false;
};

/// Recall@k of `index` on `probes` against a brute-force top-k over
/// `rows` (ids `ids`), ties toward the lower id as the indexes break them.
double RecallAtK(const index::LiveBlockingIndex& index,
                 const std::vector<float>& probes, const std::vector<int>& ids,
                 const std::vector<float>& rows) {
  const int n_probes = static_cast<int>(probes.size() / kDim);
  std::vector<std::vector<index::Neighbor>> got;
  const Status st =
      index.QueryBatch(probes.data(), n_probes, kDim, kTopK, &got);
  Require(st.ok(), "probe query: " + st.ToString());
  size_t hits = 0;
  std::vector<std::pair<float, int>> scored(ids.size());
  for (int p = 0; p < n_probes; ++p) {
    const float* q = probes.data() + static_cast<size_t>(p) * kDim;
    for (size_t i = 0; i < ids.size(); ++i) {
      const float* r = rows.data() + i * kDim;
      float dot = 0.0f;
      for (int d = 0; d < kDim; ++d) dot += q[d] * r[d];
      scored[i] = {dot, ids[i]};
    }
    const size_t k = std::min<size_t>(kTopK, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    for (const index::Neighbor& nb : got[static_cast<size_t>(p)]) {
      for (size_t j = 0; j < k; ++j) hits += scored[j].second == nb.id;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(std::max(1, n_probes * kTopK));
}

}  // namespace

IngestSchedule MakeIngestSchedule(uint64_t seed, int n_ops,
                                  const std::vector<Tokens>& pool,
                                  int n_initial,
                                  const std::vector<std::vector<int>>& queries,
                                  const text::Vocab& vocab) {
  Rng rng(seed);
  IngestSchedule out;
  out.ops.reserve(static_cast<size_t>(n_ops));
  // The model of the corpus: live ids (swap-removed), their positions,
  // and each item's current content.
  std::vector<int> live;
  std::unordered_map<int, size_t> pos;
  std::unordered_map<int, Tokens> content;
  for (int i = 0; i < n_initial; ++i) {
    pos[i] = live.size();
    live.push_back(i);
    content[i] = pool[static_cast<size_t>(i)];
  }
  int next_new = n_initial;
  for (int i = 0; i < n_ops; ++i) {
    const int roll = rng.UniformInt(100);
    IngestOp op;
    if (roll < kInsertPct && next_new < static_cast<int>(pool.size())) {
      op.kind = IngestKind::kInsert;
      op.item_id = next_new++;
      content[op.item_id] = pool[static_cast<size_t>(op.item_id)];
      op.ids = vocab.Encode(content[op.item_id]);
      pos[op.item_id] = live.size();
      live.push_back(op.item_id);
    } else if (roll < kInsertPct + kReplacePct && !live.empty()) {
      op.kind = IngestKind::kReplace;
      op.item_id = live[static_cast<size_t>(
          rng.UniformInt(static_cast<int>(live.size())))];
      Tokens& tokens = content[op.item_id];
      tokens = data::PerturbTokens(tokens, kReplaceNoise, &rng);
      op.ids = vocab.Encode(tokens);
    } else if (roll < kInsertPct + kReplacePct + kDeletePct && !live.empty()) {
      op.kind = IngestKind::kDelete;
      const size_t at =
          static_cast<size_t>(rng.UniformInt(static_cast<int>(live.size())));
      op.item_id = live[at];
      pos[live.back()] = at;
      live[at] = live.back();
      live.pop_back();
      pos.erase(op.item_id);
      content.erase(op.item_id);
    } else {
      op.kind = IngestKind::kQuery;
      op.ids = queries[static_cast<size_t>(
          rng.UniformInt(static_cast<int>(queries.size())))];
    }
    out.ops.push_back(std::move(op));
  }
  out.final_ids = live;
  std::sort(out.final_ids.begin(), out.final_ids.end());
  for (int id : out.final_ids) out.final_content.push_back(vocab.Encode(content[id]));
  return out;
}

Report RunIngest(const Config& config, Tracer* trace) {
  std::vector<double> setup_seconds;
  const auto state = SetUpRepeatedly<std::unique_ptr<IngestState>>(
      config, [&](bool last) { return SetUp(config, last ? trace : nullptr); },
      &setup_seconds);
  IngestState& s = *state;
  const std::vector<IngestOp>& ops = s.schedule.ops;
  const size_t n = ops.size();
  const index::EmbeddingCacheStats cache_before = s.served.cache.stats();

  Report report;
  std::vector<Sent> sent(n);
  std::deque<std::pair<size_t, std::future<serving::Response>>> inflight;
  const auto complete_oldest = [&] {
    auto& [i, future] = inflight.front();
    serving::Response r = future.get();
    Sent& op = sent[i];
    op.done = Clock::now();
    op.ok = r.status.ok();
    op.neighbors = std::move(r.neighbors);
    report.CountRequest(KindName(ops[i].kind), op.ok);
    if (trace != nullptr && IsTracedOp(i)) {
      const int64_t id = static_cast<int64_t>(i);
      const int root = trace->Add("ingest.op", op.submitted, op.done, -1, id);
      trace->Add("serving.submit", op.submitted, op.accepted, root, id);
      trace->Add("serving.inflight", op.accepted, op.done, root, id);
    }
    inflight.pop_front();
  };
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (inflight.size() == static_cast<size_t>(kOutstanding)) {
      complete_oldest();
    }
    serving::Request r = MakeRequest(ops[i]);
    sent[i].submitted = Clock::now();
    inflight.emplace_back(i, s.server->Submit(std::move(r)));
    sent[i].accepted = Clock::now();
  }
  while (!inflight.empty()) complete_oldest();
  const Clock::time_point end = Clock::now();
  s.server->Shutdown();
  const serving::ServerStats server_stats = s.server->stats();
  const index::EmbeddingCacheStats cache_after = s.served.cache.stats();
  const index::LiveIndexStats live_stats = s.served.live->stats();

  std::vector<double> latency_ms(n);
  std::vector<double> latency_traced, latency_untraced;
  for (size_t i = 0; i < n; ++i) {
    latency_ms[i] = Millis(sent[i].done - sent[i].submitted);
    (IsTracedOp(i) ? latency_traced : latency_untraced).push_back(latency_ms[i]);
    report.attempted++;
    if (!sent[i].ok) report.failed++;
  }

  // Output check: the live id set is the one the schedule implies.
  const std::vector<int>& final_ids = s.schedule.final_ids;
  bool ids_match = s.served.live->size() == static_cast<int>(final_ids.size());
  for (int id : final_ids) ids_match = ids_match && s.served.live->Contains(id);
  if (!ids_match) {
    report.failed++;
    report.CheckFailed("final live id set differs from the schedule's");
  }

  // Quality: recall@10 on the probe queries against a brute-force top-10
  // over the surviving rows. Items still holding their initial content
  // keep their set-up embedding; the rest are encoded again (bitwise what
  // the server encoded, by the batch-invariance contract).
  s.encoder->set_embedding_cache(nullptr);
  std::vector<float> final_rows(final_ids.size() * kDim);
  {
    std::vector<std::vector<int>> changed;
    std::vector<size_t> changed_at;
    for (size_t j = 0; j < final_ids.size(); ++j) {
      const int id = final_ids[j];
      if (id < kInitialItems &&
          s.schedule.final_content[j] == s.pool_ids[static_cast<size_t>(id)]) {
        std::copy_n(s.initial_rows.begin() + static_cast<size_t>(id) * kDim,
                    kDim, final_rows.begin() + j * kDim);
      } else {
        changed.push_back(s.schedule.final_content[j]);
        changed_at.push_back(j);
      }
    }
    const std::vector<float> rows = EncodeRows(s.encoder.get(), changed, nullptr);
    for (size_t c = 0; c < changed_at.size(); ++c) {
      std::copy_n(rows.begin() + c * kDim, kDim,
                  final_rows.begin() + changed_at[c] * kDim);
    }
  }
  const std::vector<std::vector<int>> probe_ids(
      s.query_ids.begin(), s.query_ids.begin() + kProbes);
  const std::vector<float> probes = EncodeRows(s.encoder.get(), probe_ids, nullptr);
  const double recall =
      RecallAtK(*s.served.live, probes, final_ids, final_rows);

  if (trace == nullptr) {
    report.Add("setup_s", Median(setup_seconds), setup_seconds.size());
    report.Add("throughput_rps", static_cast<double>(n) / Seconds(end - start),
               n);
    report.Add("latency_p50_ms", WindowedPercentile(latency_ms, kWindows, 50),
               n);
    report.Add("quality", recall, kProbes);
    report.Add("peak_rss_mb", PeakRssMb());
    return report;
  }

  // Replay the schedule directly through the layers on the second copy,
  // flushing as many requests together as the server did on average.
  const double flush_size =
      static_cast<double>(server_stats.coalesced) /
      static_cast<double>(std::max<uint64_t>(1, server_stats.batches));
  const size_t group = std::max<size_t>(1, std::llround(flush_size));
  s.encoder->set_embedding_cache(&s.replay->cache);
  index::LiveBlockingIndex& live = *s.replay->live;
  std::vector<double> overhead_ms;
  size_t encoded_rows = 0;
  bool replay_exact = true;
  for (size_t g = 0; g < n; g += group) {
    const size_t g_end = std::min(n, g + group);
    std::vector<std::vector<int>> batch;
    std::vector<size_t> row_of(g_end - g, 0);
    for (size_t i = g; i < g_end; ++i) {
      if (ops[i].kind == IngestKind::kDelete) continue;
      row_of[i - g] = batch.size();
      batch.push_back(ops[i].ids);
    }
    std::vector<float> rows(batch.size() * kDim);
    const Clock::time_point e0 = Clock::now();
    if (!batch.empty()) {
      ScopedSpan span(trace, "nn.encode", -1, static_cast<int64_t>(g));
      s.encoder->EncodeNormalizedInto(batch, rows.data());
    }
    const double encode_ms_per_row =
        batch.empty() ? 0.0 : Millis(Clock::now() - e0) / batch.size();
    encoded_rows += batch.size();
    for (size_t i = g; i < g_end; ++i) {
      const IngestOp& op = ops[i];
      const float* row = rows.data() + row_of[i - g] * kDim;
      const Clock::time_point t0 = Clock::now();
      Status st;
      std::vector<index::Neighbor> neighbors;
      const int64_t id = static_cast<int64_t>(i);
      switch (op.kind) {
        case IngestKind::kInsert:
        case IngestKind::kReplace: {
          ScopedSpan span(trace, "index.upsert", -1, id);
          index::LiveItem item;
          item.item_id = op.item_id;
          item.token_key = op.ids;
          st = live.Upsert(&item, row, 1, kDim);
          break;
        }
        case IngestKind::kDelete: {
          ScopedSpan span(trace, "index.remove", -1, id);
          st = live.Remove(&op.item_id, 1);
          break;
        }
        case IngestKind::kQuery: {
          ScopedSpan span(trace, "index.query", -1, id);
          st = live.Query(row, kDim, kTopK, &neighbors);
          break;
        }
      }
      const double layer_ms =
          Millis(Clock::now() - t0) +
          (op.kind == IngestKind::kDelete ? 0.0 : encode_ms_per_row);
      overhead_ms.push_back(latency_ms[i] - layer_ms);
      if (!st.ok() || (op.kind == IngestKind::kQuery && sent[i].ok &&
                       !SameNeighbors(neighbors, sent[i].neighbors))) {
        replay_exact = false;
      }
    }
  }
  replay_exact = replay_exact && live.size() == s.served.live->size();
  for (int id : final_ids) replay_exact = replay_exact && live.Contains(id);
  if (!replay_exact) {
    report.CheckFailed("direct replay of the schedule differs from serving");
  }

  AddServingMetrics(server_stats, *trace, &report);
  AddCacheMetrics(cache_before, cache_after, &report);
  AddSetUpMetrics(*trace, s.pretrain, &report);
  report.Add("serving.latency_p90_ms",
             WindowedPercentile(latency_ms, kWindows, 90), n);
  report.Add("serving.overhead_ms", Median(overhead_ms), overhead_ms.size());
  report.Add("nn.encode_us_per_row",
             trace->TotalSeconds("nn.encode") * 1e6 /
                 static_cast<double>(std::max<size_t>(1, encoded_rows)),
             encoded_rows);
  for (const char* layer : {"index.query", "index.upsert", "index.remove"}) {
    report.Add(std::string(layer) + "_us", trace->MeanSelfMicros(layer),
               trace->Calls(layer));
  }
  report.Add("index.retrains", live_stats.retrains);
  report.Add("index.using_ivf", live_stats.using_ivf ? 1 : 0);
  report.Add("index.live_items", live_stats.live_items);
  report.Add("index.bytes_resident",
             static_cast<double>(live_stats.index_bytes_resident));
  report.Add("trace.overhead",
             Median(latency_traced) / Median(latency_untraced), n);
  report.Add("trace.replay_exact", replay_exact ? 1 : 0, n);
  return report;
}

}  // namespace sudowoodo::perfbench
