#include "pipeline/em_pipeline.h"

#include <algorithm>
#include <set>

#include "cluster/batch_scheduler.h"
#include "common/timer.h"
#include "index/ivf_index.h"

namespace sudowoodo::pipeline {

namespace {

/// Blocking-index options for one run: the user-facing selection knobs
/// from the pipeline options plus the pipeline's own seed/threads/pool for
/// IVF cell training (so a fixed pipeline seed fixes the index).
index::BlockingIndexOptions ResolveBlockingIndexOptions(
    const EmPipelineOptions& options) {
  index::BlockingIndexOptions bopts = options.blocking_index;
  bopts.ivf.seed = options.seed * 6151 + 3;
  bopts.ivf.num_threads = options.num_threads;
  bopts.ivf.pool = options.pool;
  return bopts;
}

std::vector<std::vector<int>> EncodeAll(
    const text::Vocab& vocab,
    const std::vector<std::vector<std::string>>& tokens) {
  std::vector<std::vector<int>> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) out.push_back(vocab.Encode(t));
  return out;
}

}  // namespace

std::unique_ptr<nn::Encoder> MakeEncoder(EncoderKind kind, int vocab_size,
                                         int dim, int max_len, uint64_t seed,
                                         ThreadPool* pool, int num_threads,
                                         index::EmbeddingCache* cache) {
  std::unique_ptr<nn::Encoder> encoder;
  if (kind == EncoderKind::kTransformer) {
    nn::TransformerConfig config;
    config.vocab_size = vocab_size;
    config.dim = dim;
    config.max_len = max_len;
    config.n_layers = 2;
    config.n_heads = 4;
    config.ffn_dim = 2 * dim;
    config.pad_id = text::Vocab::kPad;
    config.seed = seed;
    encoder = std::make_unique<nn::TransformerEncoder>(config);
  } else {
    nn::FastBagConfig config;
    config.vocab_size = vocab_size;
    config.dim = dim;
    config.max_len = max_len;
    config.hidden_dim = 2 * dim;
    config.sep_token_id = text::Vocab::kSep;
    config.pad_id = text::Vocab::kPad;
    config.seed = seed;
    encoder = std::make_unique<nn::FastBagEncoder>(config);
  }
  encoder->set_thread_pool(pool);
  encoder->set_num_threads(num_threads);
  encoder->set_embedding_cache(cache);
  return encoder;
}

std::vector<std::string> EmPipeline::SerializeRow(const data::Table& table,
                                                  int row) {
  return text::SerializeAttrs(table.RowAttrs(row));
}

matcher::PairExample EmPipeline::MakeExample(const data::EmDataset& ds,
                                             const data::LabeledPair& pair) {
  matcher::PairExample ex;
  ex.x = SerializeRow(ds.table_a, pair.a_idx);
  ex.y = SerializeRow(ds.table_b, pair.b_idx);
  ex.label = pair.label;
  return ex;
}

EmPipeline::EmPipeline(const EmPipelineOptions& options) : options_(options) {}

EmPipeline::Prepared EmPipeline::Prepare(const data::EmDataset& ds) {
  Prepared prep;
  for (int i = 0; i < ds.table_a.num_rows(); ++i) {
    prep.tokens_a.push_back(SerializeRow(ds.table_a, i));
  }
  for (int i = 0; i < ds.table_b.num_rows(); ++i) {
    prep.tokens_b.push_back(SerializeRow(ds.table_b, i));
  }
  std::vector<std::vector<std::string>> corpus = prep.tokens_a;
  corpus.insert(corpus.end(), prep.tokens_b.begin(), prep.tokens_b.end());
  prep.vocab = text::Vocab::Build(corpus, options_.vocab_size);
  if (options_.embedding_cache_capacity > 0) {
    prep.cache = std::make_unique<index::EmbeddingCache>(
        options_.embedding_cache_capacity);
  }
  prep.encoder =
      MakeEncoder(options_.encoder_kind, prep.vocab.size(),
                  options_.encoder_dim, options_.max_len, options_.seed,
                  options_.pool, options_.num_threads, prep.cache.get());

  if (!options_.skip_pretrain) {
    contrastive::PretrainOptions popts = options_.pretrain;
    popts.seed = options_.seed * 7919 + 13;
    popts.num_threads = options_.train_num_threads;
    popts.pool = options_.pool;
    contrastive::Pretrainer pretrainer(prep.encoder.get(), &prep.vocab, popts);
    SUDO_CHECK_OK(pretrainer.Run(corpus));
    prep.pretrain_seconds = pretrainer.stats().seconds;
  }
  return prep;
}

EmRunResult EmPipeline::Run(const data::EmDataset& ds) {
  WallTimer total_timer;
  EmRunResult result;
  Rng rng(options_.seed * 104729 + 1);

  Prepared prep = Prepare(ds);
  result.pretrain_seconds = prep.pretrain_seconds;

  // ② Blocking: kNN over B for every A row.
  WallTimer blocking_timer;
  auto ids_a = EncodeAll(prep.vocab, prep.tokens_a);
  auto ids_b = EncodeAll(prep.vocab, prep.tokens_b);
  auto emb_a = prep.encoder->EmbedNormalized(ids_a);
  auto emb_b = prep.encoder->EmbedNormalized(ids_b);
  index::BlockingIndex index_b(emb_b, ResolveBlockingIndexOptions(options_));
  std::vector<matcher::ScoredPair> candidates;
  std::vector<std::vector<index::Neighbor>> topk;
  SUDO_CHECK_OK(index_b.QueryBatch(emb_a, options_.blocking_k, &topk,
                                   options_.num_threads));
  for (int a = 0; a < ds.table_a.num_rows(); ++a) {
    for (const auto& nb : topk[static_cast<size_t>(a)]) {
      candidates.push_back({a, nb.id, nb.sim});
    }
  }
  result.blocking_seconds = blocking_timer.ElapsedSeconds();

  // Manual labels: `label_budget` uniform samples from train+valid; the
  // same set doubles as validation (§VI-B).
  std::vector<data::LabeledPair> pool = ds.train;
  pool.insert(pool.end(), ds.valid.begin(), ds.valid.end());
  std::vector<data::LabeledPair> manual;
  if (options_.label_budget > 0) {
    auto idx = rng.SampleWithoutReplacement(
        static_cast<int>(pool.size()),
        std::min<int>(options_.label_budget, static_cast<int>(pool.size())));
    for (int i : idx) manual.push_back(pool[static_cast<size_t>(i)]);
  }

  // ③ Pseudo labeling over the unlabeled candidate set.
  std::vector<matcher::PairExample> train_examples;
  std::vector<matcher::PairExample> valid_examples;
  for (const auto& p : manual) train_examples.push_back(MakeExample(ds, p));
  for (const auto& p : manual) valid_examples.push_back(MakeExample(ds, p));
  if (options_.augment_finetune) {
    Rng aug_rng(options_.seed * 733 + 2);
    const size_t n_manual = train_examples.size();
    for (size_t i = 0; i < n_manual; ++i) {
      matcher::PairExample aug = train_examples[i];
      aug.x = augment::ApplyDaOp(options_.pretrain.da_op, aug.x, &aug_rng);
      aug.y = augment::ApplyDaOp(options_.pretrain.da_op, aug.y, &aug_rng);
      train_examples.push_back(std::move(aug));
    }
  }

  if (options_.use_pseudo_labels) {
    std::set<std::pair<int, int>> manual_set;
    for (const auto& p : manual) manual_set.insert({p.a_idx, p.b_idx});
    std::vector<matcher::ScoredPair> unlabeled;
    for (const auto& c : candidates) {
      if (!manual_set.count({c.a_idx, c.b_idx})) unlabeled.push_back(c);
    }
    matcher::PseudoLabelOptions plo;
    plo.pos_ratio = options_.pl_pos_ratio >= 0.0 ? options_.pl_pos_ratio
                                                 : ds.PositiveRatio();
    plo.multiplier = options_.pl_multiplier;
    plo.base_label_count =
        options_.label_budget > 0 ? options_.label_budget : 500;
    auto pl = matcher::GeneratePseudoLabels(unlabeled, plo);
    result.n_pseudo = static_cast<int>(pl.labels.size());
    result.theta_pos = pl.theta_pos;
    result.theta_neg = pl.theta_neg;

    // Pseudo-label quality vs hidden gold (Table XI).
    std::vector<int> pl_preds, pl_gold;
    for (const auto& l : pl.labels) {
      pl_preds.push_back(l.label);
      pl_gold.push_back(ds.entity_a[static_cast<size_t>(l.a_idx)] ==
                                ds.entity_b[static_cast<size_t>(l.b_idx)]
                            ? 1
                            : 0);
    }
    result.pl_quality = ComputeTprTnr(pl_preds, pl_gold);

    for (size_t i = 0; i < pl.labels.size(); ++i) {
      const auto& l = pl.labels[i];
      data::LabeledPair p{l.a_idx, l.b_idx, l.label};
      if (manual.empty() && i % 5 == 4) {
        // Unsupervised mode: hold out every 5th pseudo label for epoch
        // selection instead of manual validation labels.
        valid_examples.push_back(MakeExample(ds, p));
      } else {
        train_examples.push_back(MakeExample(ds, p));
      }
    }
  }

  if (train_examples.empty()) {
    // Nothing to train on: degenerate configuration.
    if (prep.cache != nullptr) result.embed_cache = prep.cache->stats();
    result.total_seconds = total_timer.ElapsedSeconds();
    return result;
  }

  // ④ Fine-tuning with the step budget fixed to the no-PL schedule.
  matcher::FinetuneOptions fopts = options_.finetune;
  fopts.seed = options_.seed * 31 + 5;
  if (options_.use_pseudo_labels) {
    const int base = std::max(
        64, options_.label_budget > 0 ? options_.label_budget : 500);
    fopts.max_steps =
        fopts.epochs * ((base + fopts.batch_size - 1) / fopts.batch_size);
  }
  matcher::PairMatcher pm(prep.encoder.get(), &prep.vocab, fopts);
  SUDO_CHECK_OK(pm.Train(train_examples, valid_examples));
  result.finetune_seconds = pm.train_seconds();

  // Test evaluation.
  std::vector<matcher::PairExample> test_examples;
  std::vector<int> test_labels;
  for (const auto& p : ds.test) {
    test_examples.push_back(MakeExample(ds, p));
    test_labels.push_back(p.label);
  }
  result.test_probs = pm.PredictProba(test_examples);
  result.test_preds.resize(result.test_probs.size());
  for (size_t i = 0; i < result.test_probs.size(); ++i) {
    result.test_preds[i] = result.test_probs[i] >= 0.5f ? 1 : 0;
  }
  result.test = ComputePRF1(result.test_preds, test_labels);
  if (prep.cache != nullptr) result.embed_cache = prep.cache->stats();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

std::vector<BlockingPoint> EmPipeline::BlockingSweep(const data::EmDataset& ds,
                                                     int k_max) {
  Prepared prep = Prepare(ds);
  auto ids_a = EncodeAll(prep.vocab, prep.tokens_a);
  auto ids_b = EncodeAll(prep.vocab, prep.tokens_b);
  auto emb_a = prep.encoder->EmbedNormalized(ids_a);
  auto emb_b = prep.encoder->EmbedNormalized(ids_b);
  index::BlockingIndex index_b(emb_b, ResolveBlockingIndexOptions(options_));

  // One query at k_max; prefixes give every smaller k.
  std::vector<std::vector<index::Neighbor>> topk;
  SUDO_CHECK_OK(index_b.QueryBatch(emb_a, k_max, &topk, options_.num_threads));

  std::set<std::pair<int, int>> gold(ds.gold_matches.begin(),
                                     ds.gold_matches.end());
  const double denom = static_cast<double>(ds.table_a.num_rows()) *
                       static_cast<double>(ds.table_b.num_rows());

  std::vector<BlockingPoint> points;
  for (int k = 1; k <= k_max; ++k) {
    int64_t n_cand = 0;
    int64_t hit = 0;
    std::set<std::pair<int, int>> seen_gold;
    for (size_t a = 0; a < topk.size(); ++a) {
      const int kk = std::min<int>(k, static_cast<int>(topk[a].size()));
      for (int j = 0; j < kk; ++j) {
        ++n_cand;
        auto key = std::make_pair(static_cast<int>(a), topk[a][j].id);
        if (gold.count(key) && seen_gold.insert(key).second) ++hit;
      }
    }
    BlockingPoint pt;
    pt.k = k;
    pt.n_candidates = static_cast<int>(n_cand);
    pt.recall = gold.empty() ? 1.0
                             : static_cast<double>(hit) /
                                   static_cast<double>(gold.size());
    pt.cssr = denom > 0 ? static_cast<double>(n_cand) / denom : 0.0;
    points.push_back(pt);
  }
  return points;
}

double MeasureClusterFnr(const std::vector<std::vector<std::string>>& tokens_a,
                         const std::vector<std::vector<std::string>>& tokens_b,
                         const data::EmDataset& ds, int num_clusters,
                         int batch_size, uint64_t seed) {
  std::vector<std::vector<std::string>> corpus = tokens_a;
  corpus.insert(corpus.end(), tokens_b.begin(), tokens_b.end());
  cluster::BatchScheduler scheduler(corpus, batch_size, num_clusters, seed);
  const int n_a = static_cast<int>(tokens_a.size());
  int64_t pairs = 0, false_negatives = 0;
  for (const auto& batch : scheduler.NextEpoch()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = i + 1; j < batch.size(); ++j) {
        int u = batch[i], v = batch[j];
        if (u > v) std::swap(u, v);
        // Only A-B pairs can be gold matches.
        if (u >= n_a || v < n_a) continue;
        ++pairs;
        if (ds.entity_a[static_cast<size_t>(u)] ==
            ds.entity_b[static_cast<size_t>(v - n_a)]) {
          ++false_negatives;
        }
      }
    }
  }
  return pairs > 0 ? static_cast<double>(false_negatives) /
                         static_cast<double>(pairs)
                   : 0.0;
}

}  // namespace sudowoodo::pipeline
