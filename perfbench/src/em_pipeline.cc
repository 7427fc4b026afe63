// em_pipeline: the paper's offline job (Fig. 2) - pre-train, block,
// pseudo-label, fine-tune - through EmPipeline::Run with default options
// (FastBag, 500 labels, pseudo labels, kAuto blocking), single-threaded,
// on AB-preset datasets at paper scale. One op is one job. Contrastive
// pre-training and matcher fine-tuning do most of the work; serving is
// absent and blocking takes milliseconds.
//
// Jobs cycle over five datasets generated from the seed. Job time and
// test F1 both vary from dataset to dataset by several percent, so a
// run's median job and pooled F1 (the workload's quality, over 1,900 test
// pairs) average that variation instead of resting on one dataset.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/ivf_index.h"
#include "matcher/pair_matcher.h"
#include "matcher/pseudo_label.h"
#include "pipeline/em_pipeline.h"
#include "pipeline/metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace sudowoodo::perfbench {
namespace {

constexpr int kDatasets = 5;
// A job takes about a second on a 4-core x86 VM, so a run of --seconds
// makes ceil(seconds / kDatasets) cycles over the datasets: a fixed job
// count, so every run's median rests on as many samples.
int Cycles(double seconds) {
  return std::max(1, static_cast<int>(std::ceil(seconds / kDatasets)));
}

struct EmState {
  std::vector<data::EmDataset> datasets;
  /// Test probabilities of the set-up's warm-up job on datasets[0].
  std::vector<float> warmup_probs;
};

std::unique_ptr<EmState> SetUp(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<EmState>();
  for (int d = 0; d < kDatasets; ++d) {
    s->datasets.push_back(GenerateEmDataset(
        "AB", /*n_entities=*/0, DeriveSeed(seed, 20 + d), tracer));
  }
  pipeline::EmPipeline job(pipeline::EmPipelineOptions{});
  s->warmup_probs = job.Run(s->datasets[0]).test_probs;
  return s;
}

/// EmPipeline::Run's stages one at a time through the layers' public
/// functions, each in its layer's span. Returns the test probabilities,
/// which equal Run's when the replay is faithful.
std::vector<float> ReplayStages(const data::EmDataset& ds,
                                const pipeline::EmPipelineOptions& o,
                                Tracer* trace, PretrainCost* pretrain) {
  // The stages below are Run's for these options and no others.
  Require(!o.skip_pretrain && o.use_pseudo_labels && !o.augment_finetune &&
              o.label_budget > 0 && o.embedding_cache_capacity == 0,
          "stage replay covers only the default pipeline options");
  ScopedSpan root(trace, "em.replay");
  const int parent = root.id();
  const std::vector<Tokens> tokens_a = SerializeTable(ds.table_a);
  const std::vector<Tokens> tokens_b = SerializeTable(ds.table_b);
  std::vector<Tokens> corpus = tokens_a;
  corpus.insert(corpus.end(), tokens_b.begin(), tokens_b.end());
  text::Vocab vocab;
  {
    ScopedSpan span(trace, "text.vocab", parent);
    vocab = text::Vocab::Build(corpus, o.vocab_size);
  }
  std::unique_ptr<nn::Encoder> encoder;
  {
    ScopedSpan span(trace, "nn.make_encoder", parent);
    encoder = pipeline::MakeEncoder(o.encoder_kind, vocab.size(),
                                    o.encoder_dim, o.max_len, o.seed, o.pool,
                                    o.num_threads);
  }
  {
    contrastive::PretrainOptions popts = o.pretrain;
    popts.seed = o.seed * 7919 + 13;
    popts.num_threads = o.train_num_threads;
    popts.pool = o.pool;
    ScopedSpan span(trace, "contrastive.pretrain", parent);
    contrastive::Pretrainer pretrainer(encoder.get(), &vocab, popts);
    Require(pretrainer.Run(corpus).ok(), "replay pre-training failed");
    pretrain->seconds = pretrainer.stats().seconds;
    pretrain->batches = pretrainer.stats().batches_run;
  }

  std::vector<std::vector<float>> emb_a, emb_b;
  {
    ScopedSpan span(trace, "nn.embed", parent);
    emb_a = encoder->EmbedNormalized(EncodeIds(vocab, tokens_a));
    emb_b = encoder->EmbedNormalized(EncodeIds(vocab, tokens_b));
  }
  index::BlockingIndexOptions bopts = o.blocking_index;
  bopts.ivf.seed = o.seed * 6151 + 3;
  bopts.ivf.num_threads = o.num_threads;
  bopts.ivf.pool = o.pool;
  std::unique_ptr<index::BlockingIndex> index_b;
  {
    ScopedSpan span(trace, "index.build", parent);
    index_b = std::make_unique<index::BlockingIndex>(emb_b, bopts);
  }
  std::vector<std::vector<index::Neighbor>> topk;
  {
    ScopedSpan span(trace, "index.query_batch", parent);
    Require(index_b->QueryBatch(emb_a, o.blocking_k, &topk, o.num_threads)
                .ok(),
            "replay blocking failed");
  }
  std::vector<matcher::ScoredPair> candidates;
  for (size_t a = 0; a < topk.size(); ++a) {
    for (const index::Neighbor& nb : topk[a]) {
      candidates.push_back({static_cast<int>(a), nb.id, nb.sim});
    }
  }

  Rng rng(o.seed * 104729 + 1);
  std::vector<data::LabeledPair> label_pool = ds.train;
  label_pool.insert(label_pool.end(), ds.valid.begin(), ds.valid.end());
  std::vector<data::LabeledPair> manual;
  for (int i : rng.SampleWithoutReplacement(
           static_cast<int>(label_pool.size()),
           std::min<int>(o.label_budget,
                         static_cast<int>(label_pool.size())))) {
    manual.push_back(label_pool[static_cast<size_t>(i)]);
  }
  std::vector<matcher::PairExample> train, valid;
  for (const auto& p : manual) {
    train.push_back(pipeline::EmPipeline::MakeExample(ds, p));
  }
  valid = train;

  matcher::PseudoLabelResult pl;
  {
    std::set<std::pair<int, int>> manual_set;
    for (const auto& p : manual) manual_set.insert({p.a_idx, p.b_idx});
    std::vector<matcher::ScoredPair> unlabeled;
    for (const auto& c : candidates) {
      if (!manual_set.count({c.a_idx, c.b_idx})) unlabeled.push_back(c);
    }
    matcher::PseudoLabelOptions plo;
    plo.pos_ratio = ds.PositiveRatio();
    plo.multiplier = o.pl_multiplier;
    plo.base_label_count = o.label_budget;
    ScopedSpan span(trace, "matcher.pseudo_label", parent);
    pl = matcher::GeneratePseudoLabels(unlabeled, plo);
  }
  for (const auto& l : pl.labels) {
    train.push_back(pipeline::EmPipeline::MakeExample(
        ds, data::LabeledPair{l.a_idx, l.b_idx, l.label}));
  }

  matcher::FinetuneOptions fopts = o.finetune;
  fopts.seed = o.seed * 31 + 5;
  const int base = std::max(64, o.label_budget);
  fopts.max_steps =
      fopts.epochs * ((base + fopts.batch_size - 1) / fopts.batch_size);
  matcher::PairMatcher pm(encoder.get(), &vocab, fopts);
  {
    ScopedSpan span(trace, "matcher.train", parent);
    Require(pm.Train(train, valid).ok(), "replay fine-tuning failed");
  }
  std::vector<matcher::PairExample> test;
  for (const auto& p : ds.test) {
    test.push_back(pipeline::EmPipeline::MakeExample(ds, p));
  }
  ScopedSpan span(trace, "matcher.predict", parent);
  return pm.PredictProba(test);
}

}  // namespace

Report RunEmPipeline(const Config& config, Tracer* trace) {
  std::vector<double> setup_seconds;
  const auto state = SetUpRepeatedly<std::unique_ptr<EmState>>(
      config,
      [&](bool last) { return SetUp(config.seed, last ? trace : nullptr); },
      &setup_seconds);
  const EmState& s = *state;
  const pipeline::EmPipelineOptions options;

  // Every job must reproduce its dataset's first job bitwise.
  Report report;
  std::vector<std::vector<float>> reference(kDatasets);
  reference[0] = s.warmup_probs;
  std::vector<double> job_ms, job_ms_traced, job_ms_untraced;
  double records = 0.0;
  double job_seconds = 0.0;
  // A traced run alternates traced and untraced cycles, so it runs two.
  const int cycles = std::max(trace != nullptr ? 2 : 1, Cycles(config.seconds));
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const bool traced = trace != nullptr && cycle % 2 == 0;
    for (int d = 0; d < kDatasets; ++d) {
      const data::EmDataset& ds = s.datasets[static_cast<size_t>(d)];
      pipeline::EmPipeline job(options);
      const Clock::time_point t0 = Clock::now();
      const pipeline::EmRunResult result = job.Run(ds);
      const Clock::time_point t1 = Clock::now();
      if (traced) trace->Add("pipeline.job", t0, t1, -1, report.attempted);
      const double ms = Millis(t1 - t0);
      job_ms.push_back(ms);
      (traced ? job_ms_traced : job_ms_untraced).push_back(ms);
      records += ds.table_a.num_rows() + ds.table_b.num_rows();
      job_seconds += ms / 1e3;
      std::vector<float>& want = reference[static_cast<size_t>(d)];
      if (want.empty()) want = result.test_probs;
      const bool same = result.test_probs == want;
      report.attempted++;
      report.CountRequest("job", same);
      if (!same) {
        report.failed++;
        report.CheckFailed("job " + std::to_string(report.attempted) +
                           " on dataset " + std::to_string(d) +
                           " differs from its first run");
      }
    }
  }

  // Quality: test F1 pooled over the datasets.
  std::vector<int> preds, labels;
  for (int d = 0; d < kDatasets; ++d) {
    const data::EmDataset& ds = s.datasets[static_cast<size_t>(d)];
    for (size_t i = 0; i < ds.test.size(); ++i) {
      preds.push_back(reference[static_cast<size_t>(d)][i] >= 0.5f ? 1 : 0);
      labels.push_back(ds.test[i].label);
    }
  }
  const double f1 = pipeline::ComputePRF1(preds, labels).f1;

  if (trace == nullptr) {
    report.Add("setup_s", Median(setup_seconds), setup_seconds.size());
    report.Add("throughput_rps", records / job_seconds, job_ms.size());
    report.Add("latency_p50_ms", Percentile(job_ms, 50), job_ms.size());
    report.Add("quality", f1, preds.size());
    report.Add("peak_rss_mb", PeakRssMb());
    return report;
  }

  // Run is timed on dataset 0 right before and after the stage replay, so
  // the host's drift over the run stays out of the unattributed share.
  const auto job_seconds_now = [&] {
    const Clock::time_point t0 = Clock::now();
    pipeline::EmPipeline(options).Run(s.datasets[0]);
    return Seconds(Clock::now() - t0);
  };
  const double before_s = job_seconds_now();
  PretrainCost pretrain;
  const std::vector<float> replay_probs =
      ReplayStages(s.datasets[0], options, trace, &pretrain);
  const double after_s = job_seconds_now();
  const bool exact = replay_probs == reference[0];
  if (!exact) {
    report.CheckFailed(
        "stage replay did not reproduce EmPipeline::Run's test predictions; "
        "its layer split is not attributable");
  }
  double staged_s = 0.0;
  for (const char* stage :
       {"text.vocab", "nn.make_encoder", "contrastive.pretrain", "nn.embed",
        "index.build", "index.query_batch", "matcher.pseudo_label",
        "matcher.train", "matcher.predict"}) {
    staged_s += trace->TotalSeconds(stage);
  }
  report.Add("nn.embed_s", trace->TotalSeconds("nn.embed"));
  report.Add("index.build_s", trace->TotalSeconds("index.build"));
  report.Add("index.query_batch_s", trace->TotalSeconds("index.query_batch"));
  report.Add("matcher.predict_us", trace->TotalSeconds("matcher.predict") * 1e6);
  report.Add("matcher.train_s", trace->TotalSeconds("matcher.train"));
  report.Add("matcher.pseudo_label_s",
             trace->TotalSeconds("matcher.pseudo_label"));
  AddSetUpMetrics(*trace, pretrain, &report);
  report.Add("pipeline.unattributed_s", (before_s + after_s) / 2 - staged_s,
             2);
  report.Add("trace.overhead",
             Median(job_ms_traced) / Median(job_ms_untraced), job_ms.size());
  report.Add("trace.replay_exact", exact ? 1 : 0);
  return report;
}

}  // namespace sudowoodo::perfbench
