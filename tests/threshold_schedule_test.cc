// Tests for the §III-C hill-climbing threshold search.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "matcher/threshold_search.h"

namespace sudowoodo {
namespace {

using matcher::GeneratePseudoLabels;
using matcher::HillClimbPositiveRatio;
using matcher::PseudoLabelOptions;
using matcher::PseudoLabelResult;
using matcher::ScoredPair;
using matcher::ThresholdSearchOptions;

std::vector<ScoredPair> MakeScored(int n) {
  Rng rng(3);
  std::vector<ScoredPair> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({i, i, static_cast<float>(rng.Uniform())});
  }
  return out;
}

TEST(ThresholdSearchTest, ClimbsTowardBetterRatio) {
  // Quality peaks when the positive ratio is ~0.2: score is a concave
  // function of the generated positive count.
  auto scored = MakeScored(2000);
  PseudoLabelOptions base;
  base.pos_ratio = 0.05;
  base.multiplier = 3;
  base.base_label_count = 200;
  auto trial = [](const PseudoLabelResult& r) {
    const double ratio =
        static_cast<double>(r.n_pos) / (r.n_pos + r.n_neg);
    return -std::fabs(ratio - 0.2);
  };
  ThresholdSearchOptions opts;
  opts.max_trials = 8;
  auto result = HillClimbPositiveRatio(scored, base, trial, opts);
  EXPECT_GT(result.best_pos_ratio, base.pos_ratio);
  EXPECT_LE(result.trials_run, 8);
  EXPECT_EQ(result.history.size(), static_cast<size_t>(result.trials_run));
}

TEST(ThresholdSearchTest, ReversesDirectionWhenUpIsWorse) {
  auto scored = MakeScored(2000);
  PseudoLabelOptions base;
  base.pos_ratio = 0.3;
  base.multiplier = 3;
  base.base_label_count = 200;
  // Quality decreases with the ratio: the climb must go down.
  auto trial = [](const PseudoLabelResult& r) {
    return -static_cast<double>(r.n_pos);
  };
  auto result = HillClimbPositiveRatio(scored, base, trial,
                                       ThresholdSearchOptions{});
  EXPECT_LT(result.best_pos_ratio, 0.3 + 1e-9);
}

TEST(ThresholdSearchTest, RespectsTrialBudget) {
  auto scored = MakeScored(500);
  PseudoLabelOptions base;
  base.pos_ratio = 0.1;
  int calls = 0;
  auto trial = [&calls](const PseudoLabelResult&) {
    ++calls;
    return static_cast<double>(calls);  // always improving
  };
  ThresholdSearchOptions opts;
  opts.max_trials = 4;
  auto result = HillClimbPositiveRatio(scored, base, trial, opts);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(result.trials_run, 4);
}

}  // namespace
}  // namespace sudowoodo
