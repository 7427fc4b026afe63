// The end-to-end Entity Matching pipeline of Fig. 2:
//
//   ① contrastive pre-training on the unlabeled union of tables A and B,
//   ② blocking by kNN similarity search over the learned embeddings,
//   ③ pseudo labeling from the candidate set,
//   ④ similarity-aware fine-tuning of the pairwise matcher.
//
// Every Sudowoodo optimization is a switch, so this one class runs the full
// method, the SimCLR base, all ablations of Table V/VI, and the
// no-pre-training (Ditto-style) baseline configurations.

#ifndef SUDOWOODO_PIPELINE_EM_PIPELINE_H_
#define SUDOWOODO_PIPELINE_EM_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "contrastive/pretrainer.h"
#include "data/em_dataset.h"
#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "matcher/pair_matcher.h"
#include "matcher/pseudo_label.h"
#include "nn/encoder.h"
#include "pipeline/metrics.h"
#include "text/vocab.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h
}

namespace sudowoodo::pipeline {

/// Which encoder backbone to instantiate. FastBag is the cheap DistilBERT
/// analogue; Transformer is the RoBERTa analogue (§VI-A2 / §VI-B).
enum class EncoderKind { kFastBag, kTransformer };

/// Full pipeline configuration.
struct EmPipelineOptions {
  EncoderKind encoder_kind = EncoderKind::kFastBag;
  int encoder_dim = 64;
  /// Token budget per sequence; pairs need roughly twice the single-item
  /// length under the [COL]/[VAL] serialization.
  int max_len = 96;
  int vocab_size = 6000;

  contrastive::PretrainOptions pretrain;
  matcher::FinetuneOptions finetune;

  /// Manually labeled pairs sampled uniformly from train+valid. The same
  /// labels double as the validation set ("We use the same 500 labels for
  /// validation for further label saving", §VI-B). 0 = unsupervised.
  int label_budget = 500;
  /// Step ③: augment with pseudo labels (the PL optimization).
  bool use_pseudo_labels = true;
  /// Positive-ratio prior ρ; < 0 uses the dataset statistic, which the
  /// paper treats as available ("prior knowledge of the positive label
  /// ratio which is available as a dataset statistics", §VI-B).
  double pl_pos_ratio = -1.0;
  int pl_multiplier = 8;
  /// k of the kNN blocking that produces the candidate set for PL.
  int blocking_k = 10;
  /// Which blocking index to build over the B-side embeddings: the exact
  /// oracle, the sub-linear IVF index, or (default) exact below
  /// `blocking_index.exact_threshold` items and IVF above it. The IVF
  /// seed/threads/pool are derived from this struct's seed/num_threads/
  /// pool; see index/ivf_index.h and EXPERIMENTS.md "ANN blocking".
  index::BlockingIndexOptions blocking_index;
  /// Skip step ① (the pre-trained-LM-only baselines: Ditto, RoBERTa-base).
  bool skip_pretrain = false;
  /// Rotom-style fine-tuning augmentation: every manual training pair is
  /// duplicated through a DA operator (the meta-learned operator-selection
  /// of the real Rotom is approximated by a fixed operator).
  bool augment_finetune = false;

  /// Worker threads for the embarrassingly parallel stages (batched
  /// inference encoding - GEMM row shards and per-sequence attention -
  /// and kNN blocking). Results are bit-identical for any value; 1 = the
  /// serial path.
  int num_threads = 1;
  /// Worker threads for contrastive pre-training (batched training
  /// forward/backward GEMM shards, per-sequence attention subgraphs, and
  /// the scheduler's k-means assignment). Training losses are
  /// bit-identical for any value - counter-based dropout keys masks by
  /// position, not draw order (see common/rng.h). 1 = serial training.
  int train_num_threads = 1;
  /// Worker pool those stages run on, plumbed through MakeEncoder into
  /// Linear::Forward's row-sharded GEMM overload. nullptr = the
  /// process-global pool (common/thread_pool.h) when num_threads > 1.
  ThreadPool* pool = nullptr;

  /// Entry budget of the content-keyed embedding cache attached to the
  /// serving-time encoder (blocking, prediction): repeated serialized
  /// entries skip the encoder, with hits bit-identical to fresh encodes
  /// (stale entries are cleared after any training phase). 0 disables.
  /// Hit/miss/eviction counters land in EmRunResult::embed_cache.
  size_t embedding_cache_capacity = 0;

  uint64_t seed = 7;
};

/// Output of a blocking run at one k.
struct BlockingPoint {
  int k = 0;
  int n_candidates = 0;
  double recall = 0.0;
  double cssr = 0.0;  // candidate set size ratio = |cand| / (|A|·|B|)
};

/// Everything a bench needs from one pipeline run.
struct EmRunResult {
  PRF1 test;
  std::vector<int> test_preds;
  std::vector<float> test_probs;

  double pretrain_seconds = 0.0;
  double blocking_seconds = 0.0;
  double finetune_seconds = 0.0;
  double total_seconds = 0.0;

  /// Pseudo-label quality vs (hidden) gold labels - Table XI.
  TprTnr pl_quality;
  int n_pseudo = 0;
  double theta_pos = 0.0;
  double theta_neg = 0.0;
  /// Fraction of in-batch cluster negatives that are actually matches
  /// (the false-negative rate of Fig. 8, row 3).
  double cluster_fnr = 0.0;

  /// Serving-time embedding-cache counters (zero when the cache is off).
  index::EmbeddingCacheStats embed_cache;
};

/// Runs the Fig. 2 pipeline on one dataset.
class EmPipeline {
 public:
  explicit EmPipeline(const EmPipelineOptions& options);

  /// Full run: pre-train, block, pseudo-label, fine-tune, evaluate on test.
  EmRunResult Run(const data::EmDataset& ds);

  /// Pre-trains (or not, per options) and sweeps blocking k = 1..k_max,
  /// reporting recall/CSSR points (Table VII, Fig. 7).
  std::vector<BlockingPoint> BlockingSweep(const data::EmDataset& ds,
                                           int k_max);

  /// Serialized token stream of a row (exposed for the baselines/benches).
  static std::vector<std::string> SerializeRow(const data::Table& table,
                                               int row);

  /// Converts a labeled pair into a training example.
  static matcher::PairExample MakeExample(const data::EmDataset& ds,
                                          const data::LabeledPair& pair);

 private:
  /// Builds vocab + encoder and (unless skipped) runs pre-training.
  struct Prepared {
    text::Vocab vocab;
    std::unique_ptr<index::EmbeddingCache> cache;  // outlives the encoder use
    std::unique_ptr<nn::Encoder> encoder;
    std::vector<std::vector<std::string>> tokens_a;
    std::vector<std::vector<std::string>> tokens_b;
    double pretrain_seconds = 0.0;
    double cluster_fnr = 0.0;
  };
  Prepared Prepare(const data::EmDataset& ds);

  EmPipelineOptions options_;
};

/// Creates an encoder of the given kind (shared with other pipelines).
/// `pool`/`num_threads` configure the batched inference path: the pool
/// (or, when nullptr and num_threads > 1, the process-global one) is
/// threaded through the encoder into Linear::Forward's row-sharded GEMM
/// overload for serving-time encoding. `cache` (caller-owned, optional)
/// attaches a content-keyed embedding cache to the serving path (see
/// Encoder::set_embedding_cache for the staleness contract).
std::unique_ptr<nn::Encoder> MakeEncoder(
    EncoderKind kind, int vocab_size, int dim, int max_len, uint64_t seed,
    ThreadPool* pool = nullptr, int num_threads = 1,
    index::EmbeddingCache* cache = nullptr);

/// Measures how often Algorithm 2's in-batch negatives are actually gold
/// matches (the FNR panel of Fig. 8).
double MeasureClusterFnr(const std::vector<std::vector<std::string>>& tokens_a,
                         const std::vector<std::vector<std::string>>& tokens_b,
                         const data::EmDataset& ds, int num_clusters,
                         int batch_size, uint64_t seed);

}  // namespace sudowoodo::pipeline

#endif  // SUDOWOODO_PIPELINE_EM_PIPELINE_H_
