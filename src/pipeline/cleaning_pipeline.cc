#include "pipeline/cleaning_pipeline.h"

#include <algorithm>

#include "common/timer.h"
#include "sparse/similarity.h"
#include "text/serialize.h"

namespace sudowoodo::pipeline {

CleaningPipeline::CleaningPipeline(const CleaningPipelineOptions& options)
    : options_(options) {}

namespace {
constexpr int kSideDim = 8;
}  // namespace

std::vector<std::string> CleaningPipeline::SerializeCell(
    const data::CleaningDataset& ds, int row, int col,
    const std::string* replace) const {
  const std::string& value =
      replace != nullptr ? *replace : ds.dirty.Cell(row, col);
  std::vector<text::AttrValue> attrs;
  if (!options_.contextual) {
    attrs.push_back({ds.dirty.attrs[static_cast<size_t>(col)], value});
  } else {
    // Contextual: serialize the whole row, substituting the candidate into
    // the target cell (§V-A).
    attrs = ds.dirty.RowAttrs(row);
    attrs[static_cast<size_t>(col)].second = value;
  }
  if (options_.profile_hints && profiles_ != nullptr) {
    attrs.push_back({"vfreq", profiles_->FrequencyBucket(col, value)});
    const std::string implied = vicinity_->ImpliedValue(ds.dirty, row, col);
    std::string fd_state = "none";
    if (!implied.empty()) fd_state = implied == value ? "agree" : "clash";
    attrs.push_back({"fdok", fd_state});
  }
  return text::SerializeAttrs(attrs);
}

CleaningRunResult CleaningPipeline::Run(const data::CleaningDataset& ds) {
  WallTimer total_timer;
  CleaningRunResult result;
  Rng rng(options_.seed * 6121 + 7);
  const int n_rows = ds.dirty.num_rows();
  const int n_cols = ds.dirty.num_attrs();
  if (options_.profile_hints) {
    profiles_ = std::make_unique<data::ColumnProfiles>(ds.dirty);
    vicinity_ = std::make_unique<data::VicinityModel>(ds.dirty);
  }
  data::CharBigramModel bigrams(ds.dirty);
  // Dense per-pair profiling features for the matcher head (side input):
  // {freq(cand), freq(cur), edit_sim(cur, cand), vicinity(cand),
  //  vicinity(cur), cur is empty, bigram_ll(cand), bigram_ll(cur)}.
  // The bigram log-likelihoods are the label-free well-formedness signal
  // that makes typos in unique-value columns detectable (DESIGN.md §1.2).
  auto side_features = [&](int r, int c, const std::string& cur,
                           const std::string& cand) -> std::vector<float> {
    if (!options_.profile_hints) return {};
    return {static_cast<float>(profiles_->Frequency(c, cand)),
            static_cast<float>(profiles_->Frequency(c, cur)),
            static_cast<float>(sparse::EditSimilarity(cur, cand)),
            static_cast<float>(vicinity_->Agreement(ds.dirty, r, c, cand)),
            static_cast<float>(vicinity_->Agreement(ds.dirty, r, c, cur)),
            cur.empty() ? 1.0f : 0.0f,
            static_cast<float>(bigrams.Score(c, cand)),
            static_cast<float>(bigrams.Score(c, cur))};
  };

  // --- corpus: every cell and every candidate correction -----------------
  std::vector<std::vector<std::string>> corpus;
  for (int r = 0; r < n_rows; ++r) {
    for (int c = 0; c < n_cols; ++c) {
      corpus.push_back(SerializeCell(ds, r, c, nullptr));
      // One serialized candidate per cell keeps the corpus size sane; the
      // paper caps the corpus anyway (§VI-A2).
      const auto& cands =
          ds.candidates[static_cast<size_t>(r)][static_cast<size_t>(c)];
      if (!cands.empty()) {
        const std::string& cand = cands[static_cast<size_t>(
            rng.UniformInt(static_cast<int>(cands.size())))];
        corpus.push_back(SerializeCell(ds, r, c, &cand));
      }
    }
  }
  text::Vocab vocab = text::Vocab::Build(corpus, options_.vocab_size);
  std::unique_ptr<index::EmbeddingCache> cache;
  if (options_.embedding_cache_capacity > 0) {
    cache = std::make_unique<index::EmbeddingCache>(
        options_.embedding_cache_capacity);
  }
  auto encoder =
      MakeEncoder(options_.encoder_kind, vocab.size(), options_.encoder_dim,
                  options_.max_len, options_.seed, options_.pool,
                  options_.num_threads, cache.get());

  if (!options_.skip_pretrain) {
    contrastive::PretrainOptions popts = options_.pretrain;
    popts.seed = options_.seed * 131 + 3;
    popts.num_threads = options_.train_num_threads;
    popts.pool = options_.pool;
    contrastive::Pretrainer pretrainer(encoder.get(), &vocab, popts);
    SUDO_CHECK_OK(pretrainer.Run(corpus));
    result.pretrain_seconds = pretrainer.stats().seconds;
  }

  // --- 20 uniformly sampled labeled rows --> training pairs ---------------
  std::vector<int> rows = rng.SampleWithoutReplacement(
      n_rows, std::min(options_.labeled_rows, n_rows));
  std::vector<bool> is_labeled(static_cast<size_t>(n_rows), false);
  for (int r : rows) is_labeled[static_cast<size_t>(r)] = true;

  std::vector<matcher::PairExample> train_examples;
  const std::vector<data::ErrorType> kSynthTypes = {
      data::ErrorType::kTypo, data::ErrorType::kFormatIssue,
      data::ErrorType::kMissingValue};
  for (int r : rows) {
    for (int c = 0; c < n_cols; ++c) {
      const auto& cands =
          ds.candidates[static_cast<size_t>(r)][static_cast<size_t>(c)];
      if (cands.empty()) continue;
      const std::string& truth = ds.clean.Cell(r, c);
      // Real signal: the cell's own candidates, positives kept, negatives
      // capped for class balance.
      std::vector<int> keep;
      std::vector<int> negatives;
      for (size_t k = 0; k < cands.size(); ++k) {
        if (cands[k] == truth) {
          keep.push_back(static_cast<int>(k));
        } else {
          negatives.push_back(static_cast<int>(k));
        }
      }
      rng.Shuffle(&negatives);
      for (int k : negatives) {
        if (static_cast<int>(keep.size()) >= options_.max_train_candidates) {
          break;
        }
        keep.push_back(k);
      }
      for (int k : keep) {
        matcher::PairExample ex;
        ex.x = SerializeCell(ds, r, c, nullptr);
        ex.y = SerializeCell(ds, r, c, &cands[static_cast<size_t>(k)]);
        ex.label = cands[static_cast<size_t>(k)] == truth ? 1 : 0;
        ex.side = side_features(r, c, ds.dirty.Cell(r, c),
                                cands[static_cast<size_t>(k)]);
        train_examples.push_back(std::move(ex));
      }
      // Synthetic signal: labeled rows reveal the true value of every one
      // of their cells, so (corrupted(truth), truth) is a known-positive
      // pair and (corrupted(truth), other-candidate) known negatives.
      // This is the matching-formulation analogue of how Baran updates its
      // correctors from the labeled tuples, and it is what makes 20 rows
      // enough supervision despite the ~3-16% error rates.
      {
        const data::ErrorType type = kSynthTypes[static_cast<size_t>(
            rng.UniformInt(static_cast<int>(kSynthTypes.size())))];
        const std::string corrupted = data::CorruptValue(truth, type, &rng);
        matcher::PairExample pos;
        pos.x = SerializeCell(ds, r, c, &corrupted);
        pos.y = SerializeCell(ds, r, c, &truth);
        pos.label = 1;
        pos.side = side_features(r, c, corrupted, truth);
        train_examples.push_back(std::move(pos));
        int added = 0;
        for (const auto& cand : cands) {
          if (cand == truth) continue;
          matcher::PairExample neg;
          neg.x = SerializeCell(ds, r, c, &corrupted);
          neg.y = SerializeCell(ds, r, c, &cand);
          neg.label = 0;
          neg.side = side_features(r, c, corrupted, cand);
          train_examples.push_back(std::move(neg));
          if (++added >= 2) break;
        }
        // Identity calibration: a well-formed value is its own correction
        // (positive), a corrupted value is not (negative). At correction
        // time the winning candidate must beat the cell's identity score,
        // which implements "the cell is considered clean if r_i = r'_i"
        // with a learned notion of well-formedness.
        matcher::PairExample id_pos;
        id_pos.x = SerializeCell(ds, r, c, &truth);
        id_pos.y = id_pos.x;
        id_pos.label = 1;
        id_pos.side = side_features(r, c, truth, truth);
        train_examples.push_back(std::move(id_pos));
        matcher::PairExample id_neg;
        id_neg.x = SerializeCell(ds, r, c, &corrupted);
        id_neg.y = id_neg.x;
        id_neg.label = 0;
        id_neg.side = side_features(r, c, corrupted, corrupted);
        train_examples.push_back(std::move(id_neg));
      }
    }
  }

  matcher::FinetuneOptions fopts = options_.finetune;
  if (fopts.epochs < 25) fopts.epochs = 25;  // head-only training is cheap
  fopts.seed = options_.seed * 17 + 9;
  fopts.select_best_epoch = false;  // no validation labels in this setting
  if (options_.profile_hints) fopts.side_dim = kSideDim;
  // 20 labeled rows produce a tiny, token-disjoint training set; training
  // the encoder on it memorizes rather than generalizes, so only the head
  // is trained on top of the frozen contrastive representations.
  fopts.freeze_encoder = true;
  fopts.mlp_head = true;
  matcher::PairMatcher pm(encoder.get(), &vocab, fopts);
  SUDO_CHECK_OK(pm.Train(train_examples, {}));
  result.finetune_seconds = pm.train_seconds();

  // --- correction on the remaining rows -----------------------------------
  // Batch all (cell, candidate) pairs, then take per-cell argmax.
  struct CellRef {
    int row, col;
    int first_pair, n_pairs;  // candidate pairs; the identity pair follows
  };
  std::vector<CellRef> cells;
  std::vector<matcher::PairExample> eval_pairs;
  std::vector<const std::string*> pair_candidate;
  for (int r = 0; r < n_rows; ++r) {
    if (is_labeled[static_cast<size_t>(r)]) continue;
    for (int c = 0; c < n_cols; ++c) {
      const auto& cands =
          ds.candidates[static_cast<size_t>(r)][static_cast<size_t>(c)];
      if (cands.empty()) continue;
      CellRef ref{r, c, static_cast<int>(eval_pairs.size()),
                  static_cast<int>(cands.size())};
      for (const auto& cand : cands) {
        matcher::PairExample ex;
        ex.x = SerializeCell(ds, r, c, nullptr);
        ex.y = SerializeCell(ds, r, c, &cand);
        ex.side = side_features(r, c, ds.dirty.Cell(r, c), cand);
        eval_pairs.push_back(std::move(ex));
        pair_candidate.push_back(&cand);
      }
      // Identity pair: "is the current value its own correction?"
      matcher::PairExample id;
      id.x = SerializeCell(ds, r, c, nullptr);
      id.y = id.x;
      id.side =
          side_features(r, c, ds.dirty.Cell(r, c), ds.dirty.Cell(r, c));
      eval_pairs.push_back(std::move(id));
      pair_candidate.push_back(nullptr);
      cells.push_back(ref);
    }
  }
  std::vector<float> probs = pm.PredictProba(eval_pairs);

  int corrections_made = 0, corrections_right = 0, true_errors = 0;
  for (int r = 0; r < n_rows; ++r) {
    if (is_labeled[static_cast<size_t>(r)]) continue;
    for (int c = 0; c < n_cols; ++c) {
      if (ds.IsError(r, c)) ++true_errors;
    }
  }
  for (const auto& cell : cells) {
    float best_prob = -1.0f;
    int best = -1;
    for (int k = 0; k < cell.n_pairs; ++k) {
      const float p = probs[static_cast<size_t>(cell.first_pair + k)];
      if (p > best_prob) {
        best_prob = p;
        best = cell.first_pair + k;
      }
    }
    // The identity pair score is the learned "the cell is already clean"
    // confidence; a correction must both be affirmed (>= 0.5, §V-A's
    // M_pm(r_i, r'_i) = 1) and beat keeping the current value.
    const float keep_prob =
        probs[static_cast<size_t>(cell.first_pair + cell.n_pairs)];
    if (best < 0 || best_prob <= keep_prob - options_.correction_bias) {
      continue;
    }
    const std::string& proposed = *pair_candidate[static_cast<size_t>(best)];
    if (proposed == ds.dirty.Cell(cell.row, cell.col)) continue;
    ++corrections_made;
    if (ds.IsError(cell.row, cell.col) &&
        proposed == ds.clean.Cell(cell.row, cell.col)) {
      ++corrections_right;
    }
  }

  result.corrections_made = corrections_made;
  result.corrections_right = corrections_right;
  result.true_errors = true_errors;
  result.correction.precision =
      corrections_made > 0
          ? static_cast<double>(corrections_right) / corrections_made
          : 0.0;
  result.correction.recall =
      true_errors > 0 ? static_cast<double>(corrections_right) / true_errors
                      : 0.0;
  result.correction.f1 =
      (result.correction.precision + result.correction.recall) > 0.0
          ? 2.0 * result.correction.precision * result.correction.recall /
                (result.correction.precision + result.correction.recall)
          : 0.0;
  if (cache != nullptr) result.embed_cache = cache->stats();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace sudowoodo::pipeline
