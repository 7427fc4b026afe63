// The data-cleaning pipeline of §V-A: error correction formulated as
// matching cells with candidate corrections.
//
//   * pre-train the representation model on all cells and their candidate
//     corrections (contextual or context-free serialization, as in Rotom);
//   * fine-tune the pairwise matcher on 20 uniformly sampled labeled rows
//     (the same supervision budget Baran's active learning uses, §VI-C);
//   * for each cell output argmax_{r^c in cand(r_i)} M_pm(r_i, r^c)_1 and
//     correct the cell when the model predicts a change.
//
// No pseudo labeling (the task is not similarity-based) and no blocking
// (candidate sets are small) - both per the paper.

#ifndef SUDOWOODO_PIPELINE_CLEANING_PIPELINE_H_
#define SUDOWOODO_PIPELINE_CLEANING_PIPELINE_H_

#include <memory>
#include <vector>

#include "contrastive/pretrainer.h"
#include "data/cleaning_dataset.h"
#include "data/profiling.h"
#include "matcher/pair_matcher.h"
#include "pipeline/em_pipeline.h"
#include "pipeline/metrics.h"

namespace sudowoodo::pipeline {

/// Configuration for one cleaning run.
struct CleaningPipelineOptions {
  EncoderKind encoder_kind = EncoderKind::kFastBag;
  int encoder_dim = 64;
  int max_len = 64;
  int vocab_size = 6000;

  contrastive::PretrainOptions pretrain;
  matcher::FinetuneOptions finetune;

  /// Labeled rows (paper: 20, matching Baran's supervision).
  int labeled_rows = 20;
  /// Use the contextual serialization (whole row) instead of context-free
  /// ("[COL] attr [VAL] value"); §V-A describes both.
  bool contextual = false;
  /// Skip contrastive pre-training (the "RoBERTa-base" row of Table VIII).
  bool skip_pretrain = false;
  /// Correction bias: the winning candidate's probability must exceed
  /// keep_prob - correction_bias. Positive values trade precision for
  /// recall; 0 (pure contest vs the identity score) works best.
  float correction_bias = 0.0f;
  /// Append profiling hint tokens (frequency bucket, FD agreement) to the
  /// serialization. See DESIGN.md §1.2 for why this substitution stands in
  /// for large-LM language knowledge.
  bool profile_hints = true;
  /// Cap on candidates per cell used to build training pairs (balance and
  /// speed knob; the true correction is always kept when covered).
  int max_train_candidates = 4;

  /// Worker threads for batched inference encoding (prediction over cell /
  /// candidate pairs); bit-identical results for any value, 1 = serial.
  int num_threads = 1;
  /// Worker threads for contrastive pre-training (bit-identical losses
  /// for any value; see EmPipelineOptions::train_num_threads).
  int train_num_threads = 1;
  /// Worker pool for those stages; nullptr = the process-global pool when
  /// num_threads > 1 (see EmPipelineOptions::pool).
  ThreadPool* pool = nullptr;

  /// Entry budget of the content-keyed embedding cache on the serving
  /// path. Cleaning's pair scoring re-encodes each cell's serialization
  /// once per candidate (plus the identity pair), so repeats dominate and
  /// the cache skips most encoder calls; hits are bit-identical to fresh
  /// encodes. 0 disables. Counters land in CleaningRunResult::embed_cache.
  size_t embedding_cache_capacity = 0;

  uint64_t seed = 23;
};

/// Outcome of a cleaning run.
struct CleaningRunResult {
  PRF1 correction;       // EC P/R/F1 over the evaluation rows (Table VIII)
  double pretrain_seconds = 0.0;
  double finetune_seconds = 0.0;
  double total_seconds = 0.0;
  int corrections_made = 0;
  int corrections_right = 0;
  int true_errors = 0;
  /// Serving-time embedding-cache counters (zero when the cache is off).
  index::EmbeddingCacheStats embed_cache;
};

/// Runs §V-A end to end on one generated benchmark.
class CleaningPipeline {
 public:
  explicit CleaningPipeline(const CleaningPipelineOptions& options);

  CleaningRunResult Run(const data::CleaningDataset& ds);

  /// Serialization of a cell (with an optional replacement value), exposed
  /// for tests. Context-free or contextual per the options. When profile
  /// hints are enabled the serialization appends the value's frequency
  /// bucket and its agreement with the row's FD-implied value - profiling
  /// signals standing in for the LM's language knowledge (DESIGN.md §1.2).
  std::vector<std::string> SerializeCell(const data::CleaningDataset& ds,
                                         int row, int col,
                                         const std::string* replace) const;

 private:
  CleaningPipelineOptions options_;
  std::unique_ptr<data::ColumnProfiles> profiles_;
  std::unique_ptr<data::VicinityModel> vicinity_;
};

}  // namespace sudowoodo::pipeline

#endif  // SUDOWOODO_PIPELINE_CLEANING_PIPELINE_H_
