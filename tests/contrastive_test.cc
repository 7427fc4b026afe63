// Tests for the contrastive losses (NT-Xent, Barlow Twins, combined) and
// the Algorithm 1 pre-trainer.

#include <gtest/gtest.h>

#include <memory>

#include "contrastive/losses.h"
#include "contrastive/pretrainer.h"
#include "nn/encoder.h"
#include "text/vocab.h"

namespace sudowoodo::contrastive {
namespace {

namespace ts = sudowoodo::tensor;

Tensor RandBatch(int n, int d, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(n, d, 1.0f, &rng, /*requires_grad=*/true);
}

TEST(NtXentTest, AlignedPairsScoreLowerThanRandom) {
  Tensor z = RandBatch(8, 16, 1);
  // Perfectly aligned views: loss should be much lower than vs an
  // independent random view.
  Tensor aligned = NtXentLoss(z, z, 0.07f);
  Tensor random = NtXentLoss(z, RandBatch(8, 16, 2), 0.07f);
  EXPECT_LT(aligned.item(), random.item());
}

TEST(NtXentTest, LowerTemperatureSharpensAlignedLoss) {
  Tensor z = RandBatch(8, 16, 3);
  const float sharp = NtXentLoss(z, z, 0.05f).item();
  const float smooth = NtXentLoss(z, z, 1.0f).item();
  EXPECT_LT(sharp, smooth);
}

TEST(NtXentTest, GradientMatchesNumeric) {
  Tensor zo = RandBatch(4, 6, 4);
  Tensor za = RandBatch(4, 6, 5);
  zo.ZeroGrad();
  za.ZeroGrad();
  Tensor loss = NtXentLoss(zo, za, 0.2f);
  ts::Backward(loss);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      const float numeric = ts::NumericGradient(
          [&]() { return NtXentLoss(zo, za, 0.2f); }, zo, r, c);
      EXPECT_NEAR(zo.grad_at(r, c), numeric,
                  2e-2f * std::max(1.0f, std::fabs(numeric)));
    }
  }
}

TEST(NtXentTest, PermutationInvarianceOfAverage) {
  // Swapping the two views leaves the symmetric loss unchanged (Eq. 2).
  Tensor zo = RandBatch(6, 8, 6);
  Tensor za = RandBatch(6, 8, 7);
  EXPECT_NEAR(NtXentLoss(zo, za, 0.1f).item(),
              NtXentLoss(za, zo, 0.1f).item(), 1e-4f);
}

TEST(BarlowTwinsTest, IdenticalViewsNearZeroInvariance) {
  Tensor z = RandBatch(16, 8, 8);
  // C_ii = 1 exactly when views are identical -> only (tiny) off-diagonal
  // terms remain.
  const float same = BarlowTwinsObjective(z, z, 5e-3f).item();
  const float diff =
      BarlowTwinsObjective(z, RandBatch(16, 8, 9), 5e-3f).item();
  EXPECT_LT(same, diff);
}

TEST(BarlowTwinsTest, GradientMatchesNumeric) {
  Tensor zo = RandBatch(6, 4, 10);
  Tensor za = RandBatch(6, 4, 11);
  zo.ZeroGrad();
  Tensor loss = BarlowTwinsObjective(zo, za, 0.01f);
  ts::Backward(loss);
  for (int c = 0; c < 4; ++c) {
    const float numeric = ts::NumericGradient(
        [&]() { return BarlowTwinsObjective(zo, za, 0.01f); }, zo, 0, c);
    EXPECT_NEAR(zo.grad_at(0, c), numeric,
                4e-2f * std::max(1.0f, std::fabs(numeric)));
  }
}

TEST(CombinedLossTest, AlphaZeroIsPureContrastive) {
  Tensor zo = RandBatch(8, 8, 12);
  Tensor za = RandBatch(8, 8, 13);
  EXPECT_NEAR(CombinedLoss(zo, za, 0.1f, 0.01f, 0.0f).item(),
              NtXentLoss(zo, za, 0.1f).item(), 1e-5f);
}

TEST(CombinedLossTest, InterpolatesLinearly) {
  Tensor zo = RandBatch(8, 8, 14);
  Tensor za = RandBatch(8, 8, 15);
  const float c = NtXentLoss(zo, za, 0.1f).item();
  const float b = BarlowTwinsObjective(zo, za, 0.01f).item();
  const float mixed = CombinedLoss(zo, za, 0.1f, 0.01f, 0.3f).item();
  EXPECT_NEAR(mixed, 0.7f * c + 0.3f * b, 1e-3f * std::fabs(mixed) + 1e-3f);
}

class PretrainerTest : public ::testing::Test {
 protected:
  // A tiny corpus with two lexical families.
  std::vector<std::vector<std::string>> MakeCorpus() {
    std::vector<std::vector<std::string>> corpus;
    for (int i = 0; i < 20; ++i) {
      corpus.push_back({"[COL]", "name", "[VAL]", "red", "widget",
                        std::to_string(i)});
      corpus.push_back({"[COL]", "name", "[VAL]", "blue", "gadget",
                        std::to_string(i)});
    }
    return corpus;
  }

  PretrainOptions FastOptions() {
    PretrainOptions o;
    o.epochs = 2;
    o.batch_size = 8;
    o.corpus_cap = 40;
    o.num_clusters = 2;
    return o;
  }
};

TEST_F(PretrainerTest, RunsAndRecordsStats) {
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  nn::FastBagConfig config;
  config.vocab_size = vocab.size();
  config.dim = 16;
  config.hidden_dim = 32;
  nn::FastBagEncoder encoder(config);
  Pretrainer trainer(&encoder, &vocab, FastOptions());
  ASSERT_TRUE(trainer.Run(corpus).ok());
  EXPECT_EQ(trainer.stats().epoch_loss.size(), 2u);
  EXPECT_GT(trainer.stats().batches_run, 0);
  EXPECT_GT(trainer.stats().seconds, 0.0);
}

TEST_F(PretrainerTest, LossDecreases) {
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  nn::FastBagConfig config;
  config.vocab_size = vocab.size();
  config.dim = 16;
  config.hidden_dim = 32;
  nn::FastBagEncoder encoder(config);
  PretrainOptions o = FastOptions();
  o.epochs = 4;
  Pretrainer trainer(&encoder, &vocab, o);
  ASSERT_TRUE(trainer.Run(corpus).ok());
  const auto& losses = trainer.stats().epoch_loss;
  EXPECT_LT(losses.back(), losses.front());
}

TEST_F(PretrainerTest, PretrainingImprovesSimilarityStructure) {
  // After pre-training, two augment-similar items should be closer than
  // two cross-family items.
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  nn::FastBagConfig config;
  config.vocab_size = vocab.size();
  config.dim = 16;
  config.hidden_dim = 32;
  nn::FastBagEncoder encoder(config);
  PretrainOptions o = FastOptions();
  o.epochs = 5;
  Pretrainer trainer(&encoder, &vocab, o);
  ASSERT_TRUE(trainer.Run(corpus).ok());
  auto emb = encoder.EmbedNormalized(
      {vocab.Encode(corpus[0]), vocab.Encode(corpus[2]),
       vocab.Encode(corpus[1])});
  // corpus[0] and corpus[2] are same-family ("red widget"); corpus[1] is
  // the other family.
  float same = 0, cross = 0;
  for (size_t j = 0; j < emb[0].size(); ++j) {
    same += emb[0][j] * emb[1][j];
    cross += emb[0][j] * emb[2][j];
  }
  EXPECT_GT(same, cross);
}

TEST_F(PretrainerTest, RejectsTinyCorpus) {
  text::Vocab vocab;
  nn::FastBagConfig config;
  config.vocab_size = vocab.size();
  nn::FastBagEncoder encoder(config);
  Pretrainer trainer(&encoder, &vocab, FastOptions());
  EXPECT_FALSE(trainer.Run({{"a"}}).ok());
}

TEST_F(PretrainerTest, UniformAndClusterSchedulersBothWork) {
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  for (bool cluster : {false, true}) {
    nn::FastBagConfig config;
    config.vocab_size = vocab.size();
    config.dim = 8;
    config.hidden_dim = 16;
    nn::FastBagEncoder encoder(config);
    PretrainOptions o = FastOptions();
    o.cluster_negatives = cluster;
    Pretrainer trainer(&encoder, &vocab, o);
    EXPECT_TRUE(trainer.Run(corpus).ok()) << "cluster=" << cluster;
  }
}

// ---------------------------------------------------------------------------
// Loss-trajectory bit-identity battery: training must produce *identical*
// losses at every optimizer step whether forwards run per-row or padded-
// batched, and for any thread count. This is the determinism contract of
// the batched-training tentpole (counter-based dropout + canonical
// ascending-row gradient accumulation); see src/tensor/README.md.
// ---------------------------------------------------------------------------

enum class TestEncoderKind { kFastBag, kTransformer };

const char* KindName(TestEncoderKind k) {
  return k == TestEncoderKind::kFastBag ? "FastBag" : "Transformer";
}

class TrainingDeterminismTest : public ::testing::Test {
 protected:
  // Mixed lengths (1..~20 tokens) plus serialized [SEP] pairs: exercises
  // truncation, ragged buckets, the empty-ish single-token rows, and the
  // FastBag two-segment pooling in one corpus.
  std::vector<std::vector<std::string>> MakeCorpus() {
    std::vector<std::vector<std::string>> corpus;
    const std::vector<std::string> words = {"red",  "blue",  "widget",
                                            "gadget", "acme", "zeta"};
    for (int i = 0; i < 24; ++i) {
      std::vector<std::string> item;
      const int len = 1 + (i * 7) % 20;
      for (int j = 0; j < len; ++j) {
        item.push_back(words[static_cast<size_t>((i + j) % words.size())]);
        if (i % 3 == 0 && j == len / 2) item.push_back("[SEP]");
      }
      corpus.push_back(std::move(item));
    }
    return corpus;
  }

  std::unique_ptr<nn::Encoder> MakeEncoder(TestEncoderKind kind, int vocab) {
    switch (kind) {
      case TestEncoderKind::kTransformer: {
        nn::TransformerConfig c;
        c.vocab_size = vocab;
        c.max_len = 16;
        c.dim = 16;
        c.n_layers = 2;
        c.n_heads = 2;
        c.ffn_dim = 32;
        return std::make_unique<nn::TransformerEncoder>(c);
      }
      default: {
        nn::FastBagConfig c;
        c.vocab_size = vocab;
        c.max_len = 24;
        c.dim = 16;
        c.hidden_dim = 32;
        return std::make_unique<nn::FastBagEncoder>(c);
      }
    }
  }

  std::vector<float> RunPretrain(TestEncoderKind kind,
                                 const std::vector<std::vector<std::string>>&
                                     corpus,
                                 const text::Vocab& vocab, bool batched,
                                 int threads) {
    auto encoder = MakeEncoder(kind, vocab.size());
    encoder->set_batched_training(batched);
    PretrainOptions o;
    o.epochs = 2;
    o.batch_size = 8;
    o.corpus_cap = 24;
    o.num_clusters = 2;
    o.num_threads = threads;
    Pretrainer trainer(encoder.get(), &vocab, o);
    EXPECT_TRUE(trainer.Run(corpus).ok());
    EXPECT_FALSE(trainer.stats().step_loss.empty());
    return trainer.stats().step_loss;
  }
};

TEST_F(TrainingDeterminismTest, LossTrajectoryBitIdentityBattery) {
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  for (TestEncoderKind kind :
       {TestEncoderKind::kFastBag, TestEncoderKind::kTransformer}) {
    const std::vector<float> ref =
        RunPretrain(kind, corpus, vocab, /*batched=*/false, /*threads=*/1);
    for (bool batched : {false, true}) {
      for (int threads : {1, 2, 4}) {
        if (!batched && threads == 1) continue;  // the reference itself
        const std::vector<float> got =
            RunPretrain(kind, corpus, vocab, batched, threads);
        ASSERT_EQ(ref.size(), got.size())
            << KindName(kind) << " batched=" << batched
            << " threads=" << threads;
        for (size_t s = 0; s < ref.size(); ++s) {
          // Exact float equality: the losses must match bit for bit, at
          // every step - any reduction-order leak diverges within a step
          // or two once optimizer feedback amplifies it.
          ASSERT_EQ(ref[s], got[s])
              << KindName(kind) << " batched=" << batched
              << " threads=" << threads << " step=" << s;
        }
      }
    }
  }
}

TEST_F(TrainingDeterminismTest, BatchedTrainingLossStillDecreases) {
  // The batched path is the default; make sure it actually trains.
  auto corpus = MakeCorpus();
  text::Vocab vocab = text::Vocab::Build(corpus);
  auto encoder = MakeEncoder(TestEncoderKind::kFastBag, vocab.size());
  PretrainOptions o;
  o.epochs = 4;
  o.batch_size = 8;
  o.corpus_cap = 24;
  o.num_clusters = 2;
  Pretrainer trainer(encoder.get(), &vocab, o);
  ASSERT_TRUE(trainer.Run(corpus).ok());
  const auto& losses = trainer.stats().epoch_loss;
  EXPECT_LT(losses.back(), losses.front());
}

}  // namespace
}  // namespace sudowoodo::contrastive
