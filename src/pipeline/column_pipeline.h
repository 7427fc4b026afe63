// Semantic type detection as column matching (§V-B, §VI-D):
//
//   * serialize each column bare-bone ([VAL] v1 [VAL] v2 ...),
//   * contrastive pre-training with the cell-level shuffle operator,
//   * kNN blocking (k = 20) to extract candidate column pairs,
//   * label a small sample of candidate pairs (match <=> same ground-truth
//     type), split 2:1:1, fine-tune the pairwise matcher,
//   * connected components over predicted matches discover column
//     clusters, including fine-grained types beyond the label set
//     (Tables IX, X, XII, XIII; Fig. 12).

#ifndef SUDOWOODO_PIPELINE_COLUMN_PIPELINE_H_
#define SUDOWOODO_PIPELINE_COLUMN_PIPELINE_H_

#include <string>
#include <vector>

#include "contrastive/pretrainer.h"
#include "data/column_corpus.h"
#include "matcher/pair_matcher.h"
#include "pipeline/em_pipeline.h"
#include "pipeline/metrics.h"

namespace sudowoodo::pipeline {

/// Configuration for a column-matching run.
struct ColumnPipelineOptions {
  EncoderKind encoder_kind = EncoderKind::kFastBag;
  int encoder_dim = 64;
  int max_len = 64;
  int vocab_size = 8000;

  contrastive::PretrainOptions pretrain;
  matcher::FinetuneOptions finetune;

  int blocking_k = 20;    // paper: kNN with k = 20
  /// Blocking index selection (exact scan vs sub-linear IVF; default
  /// auto-switches on corpus size). Seed/threads/pool for IVF training are
  /// derived from this struct; see index/ivf_index.h.
  index::BlockingIndexOptions blocking_index;
  int labeled_pairs = 2000;  // paper: 2k pairs, split 2:1:1
  /// Minimum match probability for an edge in cluster discovery. The paper
  /// notes the clustering granularity is adjustable (§V-B); a high
  /// threshold keeps components pure instead of collapsing into one blob.
  float cluster_edge_threshold = 0.9f;

  /// Worker threads for batched inference encoding and kNN blocking;
  /// bit-identical results for any value, 1 = serial.
  int num_threads = 1;
  /// Worker threads for contrastive pre-training (bit-identical losses
  /// for any value; see EmPipelineOptions::train_num_threads).
  int train_num_threads = 1;
  /// Worker pool for those stages; nullptr = the process-global pool when
  /// num_threads > 1 (see EmPipelineOptions::pool).
  ThreadPool* pool = nullptr;

  /// Entry budget of the content-keyed embedding cache on the serving
  /// path (column blocking + pair matching re-encode the same serialized
  /// columns; hits are bit-identical to fresh encodes). 0 disables.
  /// Counters land in ColumnRunResult::embed_cache.
  size_t embedding_cache_capacity = 0;

  uint64_t seed = 29;
};

/// A labeled candidate column pair.
struct ColumnPair {
  int c1 = 0;
  int c2 = 0;
  int label = 0;
};

/// Outcome of a run.
struct ColumnRunResult {
  PRF1 valid;
  PRF1 test;
  /// Discovered clusters (connected components of predicted matches).
  std::vector<std::vector<int>> clusters;
  double purity = 0.0;  // vs coarse ground-truth types
  int n_candidates = 0;
  double candidate_pos_ratio = 0.0;
  double blocking_seconds = 0.0;
  double matching_seconds = 0.0;
  double total_seconds = 0.0;
  /// Per-coarse-type test F1 (Fig. 12); indexed by type id.
  std::vector<PRF1> per_type;
  /// Serving-time embedding-cache counters (zero when the cache is off).
  index::EmbeddingCacheStats embed_cache;
};

/// Runs §V-B end to end.
class ColumnPipeline {
 public:
  explicit ColumnPipeline(const ColumnPipelineOptions& options);

  ColumnRunResult Run(const data::ColumnCorpus& corpus);

 private:
  ColumnPipelineOptions options_;
};

/// Connected components over an undirected edge list on n nodes.
std::vector<std::vector<int>> ConnectedComponents(
    int n, const std::vector<std::pair<int, int>>& edges);

}  // namespace sudowoodo::pipeline

#endif  // SUDOWOODO_PIPELINE_COLUMN_PIPELINE_H_
