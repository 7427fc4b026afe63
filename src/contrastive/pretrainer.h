// Algorithm 1 of the paper: SimCLR-style contrastive pre-training with
// Sudowoodo's three optimizations - cutoff DA (§IV-A), clustering-based
// negative sampling (§IV-B) and Barlow-Twins redundancy regularization
// (§IV-C). All three are independently switchable, which is what powers the
// ablation rows of Tables V, VI and XV.

#ifndef SUDOWOODO_CONTRASTIVE_PRETRAINER_H_
#define SUDOWOODO_CONTRASTIVE_PRETRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "augment/cutoff.h"
#include "augment/da_ops.h"
#include "common/status.h"
#include "nn/encoder.h"
#include "nn/layers.h"
#include "text/vocab.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h
}

namespace sudowoodo::contrastive {

/// Pre-training hyper-parameters. Defaults mirror the paper's Table IV
/// best combination (cutoff 0.05, 90 clusters, alpha_bt 1e-3) with sizes
/// scaled to the CPU mini-LM substrate.
struct PretrainOptions {
  int epochs = 3;            // paper: 3
  int batch_size = 32;       // paper: 64
  float lr = 1e-3f;
  float tau = 0.07f;         // paper: 0.07
  float bt_lambda = 3.9e-3f; // paper: 3.9e-3
  float alpha_bt = 1e-3f;    // Eq. 6 weight; 0 turns RR off
  augment::DaOp da_op = augment::DaOp::kTokenDel;
  augment::CutoffKind cutoff = augment::CutoffKind::kSpan;
  double cutoff_ratio = 0.05;
  bool cluster_negatives = true;  // Algorithm 2 vs uniform batches
  int num_clusters = 90;          // paper: 90
  int corpus_cap = 1200;     // paper fixes the corpus to 10,000 (§VI-A2)
  int projector_dim = 64;    // projector head width g
  float grad_clip = 5.0f;
  uint64_t seed = 97;

  /// Worker threads for the training loop: batched forward + backward
  /// GEMMs row-shard, per-sequence attention subgraphs fan out, and the
  /// scheduler's k-means assignment step splits across workers. Losses
  /// are bit-identical for any value (counter-based dropout + fixed-shard
  /// kernels); 1 = the serial path.
  int num_threads = 1;
  /// Worker pool those stages run on; nullptr = the process-global pool
  /// (common/thread_pool.h) when num_threads > 1.
  ThreadPool* pool = nullptr;
};

/// Per-epoch training statistics.
struct PretrainStats {
  std::vector<float> epoch_loss;
  /// Loss of every optimizer step in order - the bit-identity surface of
  /// the batched/threaded training equivalence battery.
  std::vector<float> step_loss;
  double seconds = 0.0;
  int batches_run = 0;
};

/// Runs Algorithm 1 over an unlabeled corpus of serialized token streams,
/// updating `encoder` in place. The projector head g is created internally
/// and discarded afterwards (Algorithm 1, line 11).
class Pretrainer {
 public:
  Pretrainer(nn::Encoder* encoder, const text::Vocab* vocab,
             const PretrainOptions& options);

  /// One full pre-training run. `corpus` holds serialized items (entity
  /// entries, cells, or columns); it is up/down-sampled to
  /// options.corpus_cap as in §VI-A2.
  Status Run(const std::vector<std::vector<std::string>>& corpus);

  const PretrainStats& stats() const { return stats_; }

 private:
  nn::Encoder* encoder_;
  const text::Vocab* vocab_;
  PretrainOptions options_;
  PretrainStats stats_;
};

}  // namespace sudowoodo::contrastive

#endif  // SUDOWOODO_CONTRASTIVE_PRETRAINER_H_
