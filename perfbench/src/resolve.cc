// resolve: online entity resolution, the read path users wait on.
//
// One server worker holds a FastBag encoder and a fine-tuned PairMatcher
// and serves a LiveBlockingIndex bulk-loaded with table B of a scaled
// synthetic EM dataset (more than 8,192 items, so kAuto serves it from
// IVF). A generator schedules table-A records at a constant offered rate
// (open loop); each resolution is one kQuery (k = 10) followed by one
// kMatch per returned candidate, timed from its due time to the last
// response. Popularity is Zipf-skewed, so records repeat, and the
// embedding cache holds fewer entries than the working set.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "index/live_index.h"
#include "matcher/pair_matcher.h"
#include "nn/weights.h"
#include "pipeline/em_pipeline.h"
#include "serving/server.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace sudowoodo::perfbench {
namespace {

// The offered rate is a constant of the workload, about a third of one
// worker's capacity on a 4-core x86 VM (the knee sat near 1,700/s). The
// margin absorbs the host's capacity swings: at 1,000/s a slow spell
// built a backlog.
constexpr double kOfferedRate = 500.0;
// DBLP-ACM scaled to 10,000 entities gives ~10,250 B items, above
// kAuto's exact threshold.
constexpr const char* kPreset = "DA";
constexpr int kEntities = 10000;
constexpr double kZipfExponent = 1.0;
// Resolutions replayed directly through the layers and checked bitwise.
constexpr int kCheckedOps = 256;

struct ResolveState {
  data::EmDataset ds;
  std::vector<Tokens> tokens_a;
  std::vector<Tokens> tokens_b;
  std::vector<std::vector<int>> ids_a;
  text::Vocab vocab;
  // One cache per encoder: the cache is keyed by token ids, so two
  // encoders with different weights must not share one. A resolution
  // touches ~20 distinct sequences (query, and pair, x and y per
  // candidate), so the working set is far larger than either cache.
  index::EmbeddingCache block_cache{kCacheEntries};
  index::EmbeddingCache match_cache{kCacheEntries};
  // Blocking embeds with the pre-trained encoder and matching runs on a
  // fine-tuned copy of it, as in the paper's pipeline (Fig. 2).
  std::unique_ptr<nn::Encoder> encoder;
  std::unique_ptr<nn::Encoder> match_encoder;
  std::unique_ptr<matcher::PairMatcher> matcher;
  std::unique_ptr<index::LiveBlockingIndex> live;
  PretrainCost pretrain;
  // Declared last: destroyed (and its worker joined) first.
  std::unique_ptr<serving::Server> server;
};

std::unique_ptr<ResolveState> SetUp(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<ResolveState>();
  s->ds = GenerateEmDataset(kPreset, kEntities, DeriveSeed(seed, 1), tracer);
  s->tokens_a = SerializeTable(s->ds.table_a);
  s->tokens_b = SerializeTable(s->ds.table_b);
  std::vector<Tokens> corpus = s->tokens_a;
  corpus.insert(corpus.end(), s->tokens_b.begin(), s->tokens_b.end());
  s->vocab = BuildVocab(corpus, tracer);
  s->ids_a = EncodeIds(s->vocab, s->tokens_a);

  s->encoder = pipeline::MakeEncoder(pipeline::EncoderKind::kFastBag,
                                     s->vocab.size(), kDim, kMaxLen,
                                     DeriveSeed(seed, 2));
  contrastive::PretrainOptions popts;
  popts.seed = DeriveSeed(seed, 3);
  s->pretrain = Pretrain(s->encoder.get(), s->vocab, corpus, popts, tracer);
  s->match_encoder = pipeline::MakeEncoder(pipeline::EncoderKind::kFastBag,
                                           s->vocab.size(), kDim, kMaxLen,
                                           DeriveSeed(seed, 2));
  nn::RestoreWeights(s->match_encoder->Parameters(),
                     nn::SnapshotWeights(s->encoder->Parameters()));

  // The served matcher is fine-tuned on every labeled train and valid
  // pair, which double as the validation set, within EmPipeline's step
  // budget (FinetuneOptions::epochs passes over 500 labels). With 500
  // sampled labels its F1 swung by a fifth from seed to seed.
  std::vector<matcher::PairExample> labeled;
  for (const auto* split : {&s->ds.train, &s->ds.valid}) {
    for (const data::LabeledPair& p : *split) {
      labeled.push_back(pipeline::EmPipeline::MakeExample(s->ds, p));
    }
  }
  matcher::FinetuneOptions fopts;
  fopts.seed = DeriveSeed(seed, 5);
  fopts.max_steps = fopts.epochs * ((500 + fopts.batch_size - 1) / fopts.batch_size);
  s->matcher = std::make_unique<matcher::PairMatcher>(
      s->match_encoder.get(), &s->vocab, fopts);
  {
    ScopedSpan span(tracer, "matcher.train");
    const Status st = s->matcher->Train(labeled, labeled);
    Require(st.ok(), "matcher training: " + st.ToString());
  }

  // Bulk-load table B with the cache detached, so served traffic starts
  // from an empty cache.
  const std::vector<std::vector<int>> ids_b =
      EncodeIds(s->vocab, s->tokens_b);
  const std::vector<float> rows_b =
      EncodeRows(s->encoder.get(), ids_b, tracer);
  s->encoder->set_embedding_cache(&s->block_cache);
  s->match_encoder->set_embedding_cache(&s->match_cache);
  s->live = std::make_unique<index::LiveBlockingIndex>(
      kDim, index::BlockingIndexOptions{}, &s->block_cache);
  std::vector<index::LiveItem> items(ids_b.size());
  for (size_t b = 0; b < ids_b.size(); ++b) {
    items[b].item_id = static_cast<int>(b);
    items[b].token_key = ids_b[b];
  }
  {
    ScopedSpan span(tracer, "index.bulk_load");
    const Status st = s->live->Upsert(items.data(), rows_b.data(),
                                      static_cast<int>(items.size()), kDim);
    Require(st.ok(), "bulk load: " + st.ToString());
  }
  Require(s->live->stats().using_ivf, "bulk-loaded corpus is not on IVF");

  s->server = std::make_unique<serving::Server>(
      std::vector<serving::ModelReplica>{{s->encoder.get(),
                                          s->matcher.get()}},
      ServerSettings(s->live.get()));
  return s;
}

/// The two caches' counters, summed.
index::EmbeddingCacheStats CacheStats(const ResolveState& s) {
  const index::EmbeddingCacheStats a = s.block_cache.stats();
  const index::EmbeddingCacheStats b = s.match_cache.stats();
  index::EmbeddingCacheStats sum;
  sum.hits = a.hits + b.hits;
  sum.misses = a.misses + b.misses;
  sum.erasures = a.erasures + b.erasures;
  return sum;
}

/// One resolution as the client saw it.
struct Resolution {
  // Written by the generator before it publishes the op.
  Clock::time_point due;
  Clock::time_point submitted;  // Submit called
  Clock::time_point accepted;   // Submit returned
  std::future<serving::Response> query;
  // Written by the collector.
  Clock::time_point answered;          // query response in hand
  Clock::time_point matches_sent;      // last kMatch Submit returned
  Clock::time_point done;              // last kMatch response in hand
  std::vector<std::pair<Clock::time_point, Clock::time_point>> match_submits;
  std::vector<index::Neighbor> neighbors;
  std::vector<float> probs;
  bool ok = false;
  // Set by the output checks after the run.
  bool check_failed = false;
};

// The served spans of one resolution: from its due time, the generator's
// lateness, each Submit, and the waits for the query and match responses.
void RecordSpans(const Resolution& op, size_t i, Tracer* trace) {
  const int64_t id = static_cast<int64_t>(i);
  const int root = trace->Add("resolve.op", op.due, op.done, -1, id);
  trace->Add("loadgen.late", op.due, op.submitted, root, id);
  trace->Add("serving.submit", op.submitted, op.accepted, root, id);
  trace->Add("serving.inflight", op.accepted, op.answered, root, id);
  for (const auto& [t0, t1] : op.match_submits) {
    trace->Add("serving.submit", t0, t1, root, id);
  }
  trace->Add("serving.inflight", op.matches_sent, op.done, root, id);
}

}  // namespace

std::vector<Arrival> MakeResolveSchedule(uint64_t seed, double seconds,
                                         int n_records) {
  // Popularity rank r has weight 1 / (r+1)^s; ranks map to records
  // through a seeded permutation, so the popular records are arbitrary.
  std::vector<double> cdf(static_cast<size_t>(n_records));
  double total = 0.0;
  for (int r = 0; r < n_records; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[static_cast<size_t>(r)] = total;
  }
  Rng rng(DeriveSeed(seed, 6));
  std::vector<int> record_of_rank(static_cast<size_t>(n_records));
  for (int r = 0; r < n_records; ++r) record_of_rank[static_cast<size_t>(r)] = r;
  rng.Shuffle(&record_of_rank);

  const int n = static_cast<int>(std::llround(seconds * kOfferedRate));
  std::vector<Arrival> out(static_cast<size_t>(std::max(n, 1)));
  for (size_t i = 0; i < out.size(); ++i) {
    const double u = rng.Uniform() * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out[i].due_s = static_cast<double>(i) / kOfferedRate;
    out[i].record = record_of_rank[std::min(rank, cdf.size() - 1)];
  }
  return out;
}

Report RunResolve(const Config& config, Tracer* trace) {
  std::vector<double> setup_seconds;
  const auto state = SetUpRepeatedly<std::unique_ptr<ResolveState>>(
      config,
      [&](bool last) { return SetUp(config.seed, last ? trace : nullptr); },
      &setup_seconds);
  ResolveState& s = *state;

  const std::vector<Arrival> schedule = MakeResolveSchedule(
      config.seed, config.seconds, static_cast<int>(s.ids_a.size()));
  const size_t n = schedule.size();
  std::vector<Resolution> ops(n);
  const index::EmbeddingCacheStats cache_before = CacheStats(s);

  // The collector waits for each resolution in arrival order, sends its
  // matches as soon as the query is answered, and records completion.
  // One worker serves FIFO, so waiting in order delays no one.
  std::mutex mu;
  std::condition_variable published_cv;
  size_t published = 0;  // guarded by mu
  std::atomic<size_t> completed{0};
  Report report;
  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        published_cv.wait(lock, [&] { return published > i; });
      }
      Resolution& op = ops[i];
      serving::Response q = op.query.get();
      op.answered = Clock::now();
      op.ok = q.status.ok();
      report.CountRequest("kQuery", op.ok);
      op.neighbors = std::move(q.neighbors);
      std::vector<std::future<serving::Response>> matches;
      matches.reserve(op.neighbors.size());
      const int record = schedule[i].record;
      for (const index::Neighbor& nb : op.neighbors) {
        serving::Request m;
        m.kind = serving::RequestKind::kMatch;
        m.pair.x = s.tokens_a[static_cast<size_t>(record)];
        m.pair.y = s.tokens_b[static_cast<size_t>(nb.id)];
        m.timeout_us = kTimeoutUs;
        const Clock::time_point t0 = Clock::now();
        matches.push_back(s.server->Submit(std::move(m)));
        op.match_submits.emplace_back(t0, Clock::now());
      }
      op.matches_sent = Clock::now();
      for (auto& f : matches) {
        const serving::Response r = f.get();
        report.CountRequest("kMatch", r.status.ok());
        op.ok = op.ok && r.status.ok();
        op.probs.push_back(r.prob);
      }
      op.done = Clock::now();
      if (trace != nullptr && IsTracedOp(i)) RecordSpans(op, i, trace);
      completed.store(i + 1, std::memory_order_release);
    }
  });

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < n; ++i) {
    Resolution& op = ops[i];
    op.due = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule[i].due_s));
    std::this_thread::sleep_until(op.due);
    serving::Request q;
    q.kind = serving::RequestKind::kQuery;
    q.ids = s.ids_a[static_cast<size_t>(schedule[i].record)];
    q.k = kTopK;
    q.timeout_us = kTimeoutUs;
    op.submitted = Clock::now();
    op.query = s.server->Submit(std::move(q));
    op.accepted = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    published_cv.notify_one();
  }
  const size_t backlog = n - completed.load(std::memory_order_acquire);
  collector.join();
  s.server->Shutdown();
  const serving::ServerStats server_stats = s.server->stats();
  const index::EmbeddingCacheStats cache_after = CacheStats(s);

  std::vector<double> latency_ms(n), late_ms(n);
  std::vector<double> latency_traced, latency_untraced;
  Clock::time_point last_done = ops[0].done;
  for (size_t i = 0; i < n; ++i) {
    const Resolution& op = ops[i];
    latency_ms[i] = Millis(op.done - op.due);
    late_ms[i] = Millis(op.submitted - op.due);
    last_done = std::max(last_done, op.done);
    (IsTracedOp(i) ? latency_traced : latency_untraced).push_back(latency_ms[i]);
  }

  // Output checks. Every resolution of a record must return the same
  // candidates and probabilities bitwise, whatever it was batched or
  // cached with; and a seeded sample, replayed directly through the
  // layers' public functions, must equal what the server returned.
  std::map<int, size_t> first_of_record;
  for (size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = first_of_record.emplace(schedule[i].record, i);
    if (fresh || !ops[i].ok || !ops[it->second].ok) continue;
    if (!SameNeighbors(ops[i].neighbors, ops[it->second].neighbors) ||
        ops[i].probs != ops[it->second].probs) {
      ops[i].check_failed = true;
      report.CheckFailed("resolution " + std::to_string(i) +
                         " differs from an earlier one of its record");
    }
  }
  Rng sample_rng(DeriveSeed(config.seed, 7));
  std::vector<int> sample = sample_rng.SampleWithoutReplacement(
      static_cast<int>(n), std::min<int>(kCheckedOps, static_cast<int>(n)));
  std::sort(sample.begin(), sample.end());
  std::vector<double> overhead_ms;
  std::vector<float> row(kDim);
  size_t encoded_rows = 0;
  for (int i : sample) {
    Resolution& op = ops[static_cast<size_t>(i)];
    const int record = schedule[static_cast<size_t>(i)].record;
    const Clock::time_point t0 = Clock::now();
    ScopedSpan root(trace, "resolve.replay", -1, i);
    std::vector<index::Neighbor> neighbors;
    Status st;
    {
      ScopedSpan span(trace, "nn.encode", root.id(), i);
      s.encoder->EncodeNormalizedInto({s.ids_a[static_cast<size_t>(record)]},
                                      row.data());
    }
    ++encoded_rows;
    {
      ScopedSpan span(trace, "index.query", root.id(), i);
      st = s.live->Query(row.data(), kDim, kTopK, &neighbors);
    }
    std::vector<matcher::PairExample> pairs;
    for (const index::Neighbor& nb : neighbors) {
      matcher::PairExample p;
      p.x = s.tokens_a[static_cast<size_t>(record)];
      p.y = s.tokens_b[static_cast<size_t>(nb.id)];
      pairs.push_back(std::move(p));
    }
    std::vector<float> probs;
    {
      ScopedSpan span(trace, "matcher.predict", root.id(), i);
      probs = s.matcher->PredictProba(pairs);
    }
    overhead_ms.push_back(latency_ms[static_cast<size_t>(i)] -
                          Millis(Clock::now() - t0));
    if (op.ok && (!st.ok() || !SameNeighbors(neighbors, op.neighbors) ||
                  probs != op.probs)) {
      op.check_failed = true;
      report.CheckFailed("resolution " + std::to_string(i) +
                         ": served result differs from direct layer calls");
    }
  }

  for (const Resolution& op : ops) {
    report.attempted++;
    if (!op.ok || op.check_failed) report.failed++;
  }

  // Quality: F1 of the served match decisions over the distinct records
  // resolved, against the generator's gold pairs.
  std::set<std::pair<int, int>> gold;
  for (const auto& g : s.ds.gold_matches) {
    if (first_of_record.count(g.first)) gold.insert(g);
  }
  std::set<std::pair<int, int>> predicted;
  for (const auto& [record, i] : first_of_record) {
    const Resolution& op = ops[i];
    for (size_t j = 0; j < op.probs.size(); ++j) {
      if (op.probs[j] >= 0.5f) predicted.emplace(record, op.neighbors[j].id);
    }
  }
  size_t tp = 0;
  for (const auto& p : predicted) tp += gold.count(p);
  const double f1 = gold.size() + predicted.size() > 0
                        ? 2.0 * static_cast<double>(tp) /
                              static_cast<double>(gold.size() + predicted.size())
                        : 0.0;

  if (trace == nullptr) {
    report.Add("setup_s", Median(setup_seconds), setup_seconds.size());
    report.Add("throughput_rps",
               static_cast<double>(n) / Seconds(last_done - ops[0].due), n);
    report.Add("latency_p50_ms", WindowedPercentile(latency_ms, kWindows, 50),
               n);
    report.Add("quality", f1, first_of_record.size());
    report.Add("peak_rss_mb", PeakRssMb());
    return report;
  }

  const index::LiveIndexStats live = s.live->stats();
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
  report.Add("index.query_us", trace->MeanSelfMicros("index.query"), sample.size());
  report.Add("index.retrains", live.retrains);
  report.Add("index.using_ivf", live.using_ivf ? 1 : 0);
  report.Add("index.live_items", live.live_items);
  report.Add("index.bytes_resident",
             static_cast<double>(live.index_bytes_resident));
  report.Add("matcher.predict_us", trace->MeanSelfMicros("matcher.predict"),
             sample.size());
  report.Add("matcher.train_s", trace->TotalSeconds("matcher.train"));
  report.Add("loadgen.late_p90_ms", Percentile(late_ms, 90), n);
  report.Add("loadgen.backlog", static_cast<double>(backlog));
  report.Add("trace.overhead",
             Median(latency_traced) / Median(latency_untraced), n);
  report.Add("trace.replay_exact", report.check_failures.empty() ? 1 : 0,
             sample.size());
  return report;
}

}  // namespace sudowoodo::perfbench
