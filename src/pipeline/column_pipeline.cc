#include "pipeline/column_pipeline.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/timer.h"
#include "index/ivf_index.h"
#include "text/serialize.h"

namespace sudowoodo::pipeline {

namespace {

/// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

std::vector<std::vector<int>> ConnectedComponents(
    int n, const std::vector<std::pair<int, int>>& edges) {
  UnionFind uf(n);
  for (const auto& [a, b] : edges) uf.Union(a, b);
  std::vector<std::vector<int>> by_root(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    by_root[static_cast<size_t>(uf.Find(i))].push_back(i);
  }
  std::vector<std::vector<int>> out;
  for (auto& c : by_root) {
    if (!c.empty()) out.push_back(std::move(c));
  }
  return out;
}

ColumnPipeline::ColumnPipeline(const ColumnPipelineOptions& options)
    : options_(options) {}

ColumnRunResult ColumnPipeline::Run(const data::ColumnCorpus& corpus) {
  WallTimer total_timer;
  ColumnRunResult result;
  Rng rng(options_.seed * 2083 + 11);
  const int n = static_cast<int>(corpus.columns.size());

  // Bare-bone serialization (§V-B: no column names or meta-information).
  std::vector<std::vector<std::string>> tokens;
  tokens.reserve(static_cast<size_t>(n));
  for (const auto& col : corpus.columns) {
    tokens.push_back(text::SerializeColumn(col.values));
  }
  text::Vocab vocab = text::Vocab::Build(tokens, options_.vocab_size);
  std::unique_ptr<index::EmbeddingCache> cache;
  if (options_.embedding_cache_capacity > 0) {
    cache = std::make_unique<index::EmbeddingCache>(
        options_.embedding_cache_capacity);
  }
  auto encoder =
      MakeEncoder(options_.encoder_kind, vocab.size(), options_.encoder_dim,
                  options_.max_len, options_.seed, options_.pool,
                  options_.num_threads, cache.get());

  // Pre-training with the cell-level operator (attribute ops do not apply
  // to columns, §V-B).
  {
    contrastive::PretrainOptions popts = options_.pretrain;
    popts.da_op = augment::DaOp::kCellShuffle;
    popts.seed = options_.seed * 53 + 1;
    popts.num_threads = options_.train_num_threads;
    popts.pool = options_.pool;
    contrastive::Pretrainer pretrainer(encoder.get(), &vocab, popts);
    SUDO_CHECK_OK(pretrainer.Run(tokens));
  }

  // kNN blocking over column embeddings.
  WallTimer blocking_timer;
  std::vector<std::vector<int>> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) ids.push_back(vocab.Encode(t));
  auto emb = encoder->EmbedNormalized(ids);
  index::BlockingIndexOptions bopts = options_.blocking_index;
  bopts.ivf.seed = options_.seed * 6151 + 3;
  bopts.ivf.num_threads = options_.num_threads;
  bopts.ivf.pool = options_.pool;
  index::BlockingIndex index(emb, bopts);
  std::set<std::pair<int, int>> candidate_set;
  std::vector<std::vector<index::Neighbor>> col_topk;
  SUDO_CHECK_OK(index.QueryBatch(emb, options_.blocking_k + 1, &col_topk,
                                 options_.num_threads));
  for (int i = 0; i < n; ++i) {
    for (const auto& nb : col_topk[static_cast<size_t>(i)]) {
      if (nb.id == i) continue;
      candidate_set.insert({std::min(i, nb.id), std::max(i, nb.id)});
    }
  }
  std::vector<std::pair<int, int>> candidates(candidate_set.begin(),
                                              candidate_set.end());
  result.blocking_seconds = blocking_timer.ElapsedSeconds();
  result.n_candidates = static_cast<int>(candidates.size());
  {
    int64_t pos = 0;
    for (const auto& [a, b] : candidates) {
      if (corpus.columns[static_cast<size_t>(a)].type_id ==
          corpus.columns[static_cast<size_t>(b)].type_id) {
        ++pos;
      }
    }
    result.candidate_pos_ratio =
        candidates.empty()
            ? 0.0
            : static_cast<double>(pos) / static_cast<double>(candidates.size());
  }

  // Label a sample of candidate pairs (match <=> same coarse type; §VI-D)
  // and split 2:1:1.
  WallTimer matching_timer;
  std::vector<int> order = rng.SampleWithoutReplacement(
      static_cast<int>(candidates.size()),
      std::min<int>(options_.labeled_pairs,
                    static_cast<int>(candidates.size())));
  std::vector<ColumnPair> labeled;
  for (int i : order) {
    const auto& [a, b] = candidates[static_cast<size_t>(i)];
    labeled.push_back({a, b,
                       corpus.columns[static_cast<size_t>(a)].type_id ==
                               corpus.columns[static_cast<size_t>(b)].type_id
                           ? 1
                           : 0});
  }
  const int n_lab = static_cast<int>(labeled.size());
  const int n_train = n_lab / 2;
  const int n_valid = n_lab / 4;
  auto to_examples = [&](int begin, int end) {
    std::vector<matcher::PairExample> out;
    for (int i = begin; i < end; ++i) {
      const auto& p = labeled[static_cast<size_t>(i)];
      out.push_back({tokens[static_cast<size_t>(p.c1)],
                     tokens[static_cast<size_t>(p.c2)], p.label});
    }
    return out;
  };
  auto train = to_examples(0, n_train);
  auto valid = to_examples(n_train, n_train + n_valid);
  auto test = to_examples(n_train + n_valid, n_lab);

  matcher::FinetuneOptions fopts = options_.finetune;
  fopts.seed = options_.seed * 97 + 3;
  matcher::PairMatcher pm(encoder.get(), &vocab, fopts);
  SUDO_CHECK_OK(pm.Train(train, valid));

  auto eval = [&](const std::vector<matcher::PairExample>& split) {
    std::vector<int> preds = pm.Predict(split);
    std::vector<int> labels;
    labels.reserve(split.size());
    for (const auto& ex : split) labels.push_back(ex.label);
    return ComputePRF1(preds, labels);
  };
  result.valid = eval(valid);
  result.test = eval(test);

  // Per-type breakdown on the test split (Fig. 12): a pair contributes to
  // the types of both its columns.
  {
    std::vector<std::vector<int>> preds_by_type(
        static_cast<size_t>(corpus.num_types()));
    std::vector<std::vector<int>> labels_by_type(
        static_cast<size_t>(corpus.num_types()));
    std::vector<int> preds = pm.Predict(test);
    for (size_t i = 0; i < test.size(); ++i) {
      const auto& p = labeled[static_cast<size_t>(n_train + n_valid) + i];
      for (int t : {corpus.columns[static_cast<size_t>(p.c1)].type_id,
                    corpus.columns[static_cast<size_t>(p.c2)].type_id}) {
        preds_by_type[static_cast<size_t>(t)].push_back(preds[i]);
        labels_by_type[static_cast<size_t>(t)].push_back(p.label);
      }
    }
    result.per_type.resize(static_cast<size_t>(corpus.num_types()));
    for (int t = 0; t < corpus.num_types(); ++t) {
      result.per_type[static_cast<size_t>(t)] =
          ComputePRF1(preds_by_type[static_cast<size_t>(t)],
                      labels_by_type[static_cast<size_t>(t)]);
    }
  }

  // Cluster discovery: predict over *all* candidate pairs, connect the
  // predicted matches, take connected components (§V-B / Table XIII).
  std::vector<matcher::PairExample> all_pairs;
  all_pairs.reserve(candidates.size());
  for (const auto& [a, b] : candidates) {
    all_pairs.push_back(
        {tokens[static_cast<size_t>(a)], tokens[static_cast<size_t>(b)], 0});
  }
  std::vector<float> match_probs = pm.PredictProba(all_pairs);
  // Conservative edge selection: probability threshold plus a top-3 cap
  // per node. Connected components chain-merge through every false
  // positive, so precision matters far more than recall here (the paper
  // adjusts clustering granularity the same way, §V-B).
  std::vector<std::vector<std::pair<float, int>>> node_edges(
      static_cast<size_t>(n));
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (match_probs[i] < options_.cluster_edge_threshold) continue;
    const auto& [a, b] = candidates[i];
    node_edges[static_cast<size_t>(a)].emplace_back(match_probs[i],
                                                    static_cast<int>(i));
    node_edges[static_cast<size_t>(b)].emplace_back(match_probs[i],
                                                    static_cast<int>(i));
  }
  std::set<int> kept;
  constexpr int kMaxEdgesPerNode = 3;
  for (auto& ne : node_edges) {
    std::sort(ne.begin(), ne.end(), std::greater<>());
    for (size_t j = 0; j < ne.size() && j < kMaxEdgesPerNode; ++j) {
      kept.insert(ne[j].second);
    }
  }
  std::vector<std::pair<int, int>> edges;
  for (int i : kept) edges.push_back(candidates[static_cast<size_t>(i)]);
  result.clusters = ConnectedComponents(n, edges);
  std::vector<int> coarse_labels;
  coarse_labels.reserve(static_cast<size_t>(n));
  for (const auto& col : corpus.columns) coarse_labels.push_back(col.type_id);
  result.purity = ClusterPurity(result.clusters, coarse_labels);
  result.matching_seconds = matching_timer.ElapsedSeconds();
  if (cache != nullptr) result.embed_cache = cache->stats();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace sudowoodo::pipeline
