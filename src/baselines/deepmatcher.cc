#include "baselines/deepmatcher.h"

#include "nn/encoder.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "pipeline/em_pipeline.h"
#include "text/vocab.h"

namespace sudowoodo::baselines {

namespace ts = sudowoodo::tensor;

pipeline::PRF1 RunDeepMatcherOnEm(const data::EmDataset& ds,
                                  const DeepMatcherOptions& options) {
  // Corpus + vocab over both tables.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < ds.table_a.num_rows(); ++i) {
    corpus.push_back(pipeline::EmPipeline::SerializeRow(ds.table_a, i));
  }
  for (int i = 0; i < ds.table_b.num_rows(); ++i) {
    corpus.push_back(pipeline::EmPipeline::SerializeRow(ds.table_b, i));
  }
  text::Vocab vocab = text::Vocab::Build(corpus, 6000);

  nn::FastBagConfig config;
  config.vocab_size = vocab.size();
  config.dim = options.dim;
  config.max_len = options.max_len;
  config.hidden_dim = 2 * options.dim;
  config.seed = options.seed;
  nn::FastBagEncoder encoder(config);

  // Similarity-feature head: [Zx, Zy, |Zx-Zy|, Zx*Zy] -> MLP -> 2.
  Rng rng(options.seed + 1);
  nn::Mlp head(4 * options.dim, 2 * options.dim, 2, &rng);

  std::vector<ts::Tensor> params = encoder.Parameters();
  nn::AppendParameters(&params, head.Parameters());
  nn::AdamWOptions aopts;
  aopts.lr = options.lr;
  nn::AdamW optimizer(params, aopts);

  auto forward = [&](const std::vector<const data::LabeledPair*>& batch,
                     bool training) {
    std::vector<std::vector<int>> x_ids, y_ids;
    for (const auto* p : batch) {
      x_ids.push_back(vocab.Encode(
          pipeline::EmPipeline::SerializeRow(ds.table_a, p->a_idx)));
      y_ids.push_back(vocab.Encode(
          pipeline::EmPipeline::SerializeRow(ds.table_b, p->b_idx)));
    }
    ts::Tensor zx = encoder.EncodeBatch(x_ids, nullptr, training);
    ts::Tensor zy = encoder.EncodeBatch(y_ids, nullptr, training);
    ts::Tensor feat = ts::ConcatCols(
        {zx, zy, ts::Abs(ts::Sub(zx, zy)), ts::Mul(zx, zy)});
    return head.Forward(feat);
  };

  // Train on the full training split (the "(full)" configuration).
  std::vector<int> order(ds.train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t b = 0; b < order.size();
         b += static_cast<size_t>(options.batch_size)) {
      const size_t end = std::min(
          order.size(), b + static_cast<size_t>(options.batch_size));
      std::vector<const data::LabeledPair*> batch;
      std::vector<int> labels;
      for (size_t i = b; i < end; ++i) {
        batch.push_back(&ds.train[static_cast<size_t>(order[i])]);
        labels.push_back(ds.train[static_cast<size_t>(order[i])].label);
      }
      ts::Tensor loss =
          ts::CrossEntropyWithLogits(forward(batch, true), labels);
      optimizer.ZeroGrad();
      ts::Backward(loss);
      optimizer.ClipGradNorm(5.0f);
      optimizer.Step();
    }
  }

  // Evaluate on test.
  ts::NoGradGuard ng;
  std::vector<int> preds, labels;
  for (size_t b = 0; b < ds.test.size();
       b += static_cast<size_t>(options.batch_size)) {
    const size_t end =
        std::min(ds.test.size(), b + static_cast<size_t>(options.batch_size));
    std::vector<const data::LabeledPair*> batch;
    for (size_t i = b; i < end; ++i) batch.push_back(&ds.test[i]);
    ts::Tensor probs = ts::RowSoftmax(forward(batch, false));
    for (int i = 0; i < probs.rows(); ++i) {
      preds.push_back(probs.at(i, 1) >= 0.5f ? 1 : 0);
    }
  }
  for (const auto& p : ds.test) labels.push_back(p.label);
  return pipeline::ComputePRF1(preds, labels);
}

}  // namespace sudowoodo::baselines
