// Bitwise battery for PairMatcher::PredictProbaInto, the one-pass match
// flush: it must equal the graph route - ForwardBatch in eval mode with
// the tape off, then RowSoftmax, in chunks of FinetuneOptions::batch_size
// (what PredictProba computed before the one-pass flush) - bit for bit.
// Covered: the FastBag and Transformer encoders; the Sudowoodo head
// on and off; Linear and Mlp heads; side features on and off; batches of
// 1, 10 and 33 pairs with repeated x sides and an x == y pair; an
// embedding cache cold and warm. CI re-runs it on the portable tier and
// under both sanitizer legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "index/embedding_cache.h"
#include "matcher/pair_matcher.h"
#include "nn/encoder.h"
#include "tensor/tensor.h"
#include "text/serialize.h"
#include "text/vocab.h"

namespace sudowoodo::matcher {

// Reads PairMatcher's graph route and its id rows.
class PairMatcherTestPeer {
 public:
  /// What PredictProba computed before the one-pass flush.
  static std::vector<float> GraphPredictProba(
      PairMatcher* pm, const std::vector<PairExample>& pairs) {
    tensor::NoGradGuard ng;
    std::vector<float> out;
    const size_t bs = static_cast<size_t>(pm->options_.batch_size);
    for (size_t b = 0; b < pairs.size(); b += bs) {
      std::vector<const PairExample*> batch;
      for (size_t i = b; i < std::min(pairs.size(), b + bs); ++i) {
        batch.push_back(&pairs[i]);
      }
      const tensor::Tensor probs =
          tensor::RowSoftmax(pm->ForwardBatch(batch, /*training=*/false));
      for (int i = 0; i < probs.rows(); ++i) out.push_back(probs.at(i, 1));
    }
    return out;
  }

  /// The x⊕y id row of pair i in the last pass.
  static const std::vector<int>& PairRow(PairMatcher* pm, size_t i) {
    return pm->rows_[i];
  }
};

namespace {

enum class Kind { kFastBag, kTransformer };

constexpr int kWords = 300;
constexpr int kDim = 16;
constexpr int kMaxLen = 32;

text::Vocab TestVocab() {
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < kWords; ++i) corpus.push_back({"w" + std::to_string(i)});
  return text::Vocab::Build(corpus, kWords + 8);
}

std::unique_ptr<nn::Encoder> MakeEncoder(Kind kind, int vocab_size) {
  switch (kind) {
    case Kind::kFastBag: {
      nn::FastBagConfig c;
      c.vocab_size = vocab_size;
      c.dim = kDim;
      c.hidden_dim = 2 * kDim;
      c.max_len = kMaxLen;
      return std::make_unique<nn::FastBagEncoder>(c);
    }
    case Kind::kTransformer: {
      nn::TransformerConfig c;
      c.vocab_size = vocab_size;
      c.dim = kDim;
      c.n_layers = 2;
      c.n_heads = 2;
      c.ffn_dim = 2 * kDim;
      c.max_len = kMaxLen;
      return std::make_unique<nn::TransformerEncoder>(c);
    }
  }
  return nullptr;
}

std::vector<std::string> RandomTokens(Rng* rng) {
  std::vector<std::string> tokens;
  const int len = rng->UniformInt(14);  // an empty side too, now and then
  for (int t = 0; t < len; ++t) {
    // Mostly vocabulary words, some unknown ones, and a marker token.
    const int w = rng->UniformInt(kWords + 20);
    tokens.push_back(w == 0 ? "[COL]" : "w" + std::to_string(w));
  }
  return tokens;
}

// `n` pairs in runs that share x (a record against its candidates), one
// x == y pair, and side features when `side_dim` > 0.
std::vector<PairExample> MakePairs(int n, int side_dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<PairExample> pairs;
  std::vector<std::string> x = RandomTokens(&rng);
  for (int i = 0; i < n; ++i) {
    if (rng.UniformInt(4) == 0) x = RandomTokens(&rng);
    PairExample ex;
    ex.x = x;
    ex.y = i == n / 2 ? x : RandomTokens(&rng);
    ex.label = rng.UniformInt(2);
    for (int j = 0; j < side_dim; ++j) {
      ex.side.push_back(static_cast<float>(rng.Uniform()) - 0.5f);
    }
    pairs.push_back(std::move(ex));
  }
  return pairs;
}

using Config = std::tuple<Kind, bool /*sudowoodo_head*/, bool /*mlp_head*/,
                          int /*side_dim*/>;

class PredictProbaBitwiseTest : public ::testing::TestWithParam<Config> {};

TEST_P(PredictProbaBitwiseTest, EqualsGraphRoute) {
  const auto [kind, sudowoodo_head, mlp_head, side_dim] = GetParam();
  const text::Vocab vocab = TestVocab();
  auto encoder = MakeEncoder(kind, vocab.size());
  FinetuneOptions fopts;
  fopts.sudowoodo_head = sudowoodo_head;
  fopts.mlp_head = mlp_head;
  fopts.side_dim = side_dim;
  fopts.epochs = 1;
  fopts.max_steps = 2;
  fopts.select_best_epoch = false;
  PairMatcher pm(encoder.get(), &vocab, fopts);
  // Two training steps move the head and encoder off their initial
  // weights, so the probabilities are not all near 0.5.
  ASSERT_TRUE(pm.Train(MakePairs(32, side_dim, 1), {}).ok());

  index::EmbeddingCache cache(4096);
  for (const int n : {1, 10, 33}) {
    const std::vector<PairExample> pairs =
        MakePairs(n, side_dim, 100 + static_cast<uint64_t>(n));
    encoder->set_embedding_cache(nullptr);
    const std::vector<float> want =
        PairMatcherTestPeer::GraphPredictProba(&pm, pairs);
    ASSERT_EQ(want.size(), pairs.size());

    // No cache, then a cold cache, then the same pairs all hitting it.
    std::vector<std::vector<float>> got;
    got.push_back(pm.PredictProba(pairs));
    encoder->set_embedding_cache(&cache);
    cache.Clear();
    got.push_back(pm.PredictProba(pairs));
    const uint64_t misses = cache.stats().misses;
    got.push_back(pm.PredictProba(pairs));
    EXPECT_EQ(cache.stats().misses, misses) << "warm call missed";
    for (size_t run = 0; run < got.size(); ++run) {
      ASSERT_EQ(got[run].size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[run][i], want[i])
            << "run " << run << ", n " << n << ", pair " << i;
      }
    }

    // The x⊕y rows are Encode(SerializePairTokens(x, y)).
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(PairMatcherTestPeer::PairRow(&pm, i),
                vocab.Encode(text::SerializePairTokens(pairs[i].x,
                                                       pairs[i].y)))
          << "pair " << i;
    }
  }
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const auto [kind, sudowoodo_head, mlp_head, side_dim] = info.param;
  const char* kinds[] = {"FastBag", "Transformer"};
  return std::string(kinds[static_cast<int>(kind)]) +
         (sudowoodo_head ? "Sudowoodo" : "Plain") +
         (mlp_head ? "Mlp" : "Linear") + (side_dim > 0 ? "Side" : "");
}

INSTANTIATE_TEST_SUITE_P(
    AllHeads, PredictProbaBitwiseTest,
    ::testing::Combine(::testing::Values(Kind::kFastBag, Kind::kTransformer),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(0, 3)),
    ConfigName);

}  // namespace
}  // namespace sudowoodo::matcher
