#include "contrastive/pretrainer.h"

#include "cluster/batch_scheduler.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "contrastive/losses.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace sudowoodo::contrastive {

namespace ts = sudowoodo::tensor;

Pretrainer::Pretrainer(nn::Encoder* encoder, const text::Vocab* vocab,
                       const PretrainOptions& options)
    : encoder_(encoder), vocab_(vocab), options_(options) {
  SUDO_CHECK(encoder != nullptr && vocab != nullptr);
}

Status Pretrainer::Run(const std::vector<std::vector<std::string>>& corpus) {
  if (corpus.size() < 4) {
    return Status::InvalidArgument("pre-training corpus too small");
  }
  WallTimer timer;
  Rng rng(options_.seed);

  // The training parallelism knob flows into the encoder here; it is
  // loss-invariant (see PretrainOptions), so it is execution strategy,
  // not a hyper-parameter. The batched/per-row training route is the
  // encoder's own setting (Encoder::set_batched_training).
  encoder_->set_train_num_threads(options_.num_threads);
  if (options_.pool != nullptr) encoder_->set_thread_pool(options_.pool);
  ThreadPool* pool =
      options_.num_threads > 1
          ? (options_.pool != nullptr ? options_.pool : &ThreadPool::Global())
          : nullptr;

  // Fix the corpus size by up/down-sampling (§VI-A2 fixes it to 10k).
  std::vector<std::vector<std::string>> items;
  items.reserve(static_cast<size_t>(options_.corpus_cap));
  if (static_cast<int>(corpus.size()) >= options_.corpus_cap) {
    auto idx = rng.SampleWithoutReplacement(static_cast<int>(corpus.size()),
                                            options_.corpus_cap);
    for (int i : idx) items.push_back(corpus[static_cast<size_t>(i)]);
  } else {
    items = corpus;
    while (static_cast<int>(items.size()) < options_.corpus_cap) {
      items.push_back(
          corpus[static_cast<size_t>(rng.UniformInt(
              static_cast<int>(corpus.size())))]);
    }
  }

  // Projector head g: a linear layer (§III-A), appended as M = g ∘ M_emb
  // (Algorithm 1, line 3) and discarded after training (line 11).
  Rng proj_rng = rng.Fork();
  nn::Linear projector(encoder_->dim(), options_.projector_dim, &proj_rng);

  std::vector<ts::Tensor> params = encoder_->Parameters();
  nn::AppendParameters(&params, projector.Parameters());
  nn::AdamWOptions opt_options;
  opt_options.lr = options_.lr;
  nn::AdamW optimizer(params, opt_options);

  // Batch scheduler: Algorithm 2 replaces the uniform shuffle (line 5 of
  // Algorithm 1) when cluster negatives are on.
  std::unique_ptr<cluster::BatchScheduler> scheduler;
  if (options_.cluster_negatives) {
    scheduler = std::make_unique<cluster::BatchScheduler>(
        items, options_.batch_size, options_.num_clusters,
        rng.Fork().NextU32(), options_.num_threads, pool);
  } else {
    scheduler = std::make_unique<cluster::BatchScheduler>(
        static_cast<int>(items.size()), options_.batch_size,
        rng.Fork().NextU32());
  }

  Rng aug_rng = rng.Fork();
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    int n_batches = 0;
    for (const auto& batch_idx : scheduler->NextEpoch()) {
      // Counter-based dropout streams for this step: ori is view 0, aug
      // view 1, and each mask element is keyed by (epoch, step, row,
      // site, position) - independent of batching and thread count.
      encoder_->BeginTrainStep(static_cast<uint64_t>(epoch),
                               static_cast<uint64_t>(n_batches));
      // Build the two views (Algorithm 1, line 7): the original item and a
      // DA-transformed item; the aug view additionally gets the batch-wise
      // cutoff at the embedding level (§IV-A).
      std::vector<std::vector<int>> ori_ids, aug_ids;
      ori_ids.reserve(batch_idx.size());
      aug_ids.reserve(batch_idx.size());
      for (int i : batch_idx) {
        const auto& toks = items[static_cast<size_t>(i)];
        ori_ids.push_back(vocab_->Encode(toks));
        aug_ids.push_back(
            vocab_->Encode(augment::ApplyDaOp(options_.da_op, toks, &aug_rng)));
      }
      augment::CutoffPlan plan = augment::SampleCutoff(
          options_.cutoff, encoder_->dim(), options_.cutoff_ratio, &aug_rng);

      // Encode and project (line 8).
      ts::Tensor h_ori =
          encoder_->EncodeBatch(ori_ids, /*cutoff=*/nullptr, /*training=*/true);
      ts::Tensor h_aug = encoder_->EncodeBatch(
          aug_ids, options_.cutoff == augment::CutoffKind::kNone ? nullptr
                                                                 : &plan,
          /*training=*/true);
      ts::Tensor z_ori = projector.Forward(h_ori, pool, options_.num_threads);
      ts::Tensor z_aug = projector.Forward(h_aug, pool, options_.num_threads);

      // L_Sudowoodo (Eq. 6; line 9 of Algorithm 1).
      ts::Tensor loss = CombinedLoss(z_ori, z_aug, options_.tau,
                                     options_.bt_lambda, options_.alpha_bt);

      optimizer.ZeroGrad();
      ts::Backward(loss);
      optimizer.ClipGradNorm(options_.grad_clip);
      optimizer.Step();

      epoch_loss += loss.item();
      stats_.step_loss.push_back(loss.item());
      ++n_batches;
    }
    stats_.epoch_loss.push_back(
        n_batches > 0 ? static_cast<float>(epoch_loss / n_batches) : 0.0f);
    stats_.batches_run += n_batches;
  }
  stats_.seconds = timer.ElapsedSeconds();
  return Status::OK();
}

}  // namespace sudowoodo::contrastive
