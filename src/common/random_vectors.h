// Seeded random dense-vector generation, shared by the kNN tests and the
// thread-scaling bench so both drive the index with the same workload.

#ifndef SUDOWOODO_COMMON_RANDOM_VECTORS_H_
#define SUDOWOODO_COMMON_RANDOM_VECTORS_H_

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace sudowoodo {

/// n Gaussian vectors of the given width, L2-normalized (so inner product
/// equals cosine similarity, matching the blocking index's contract).
inline std::vector<std::vector<float>> RandomUnitVectors(int n, int dim,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  for (auto& v : out) {
    v.resize(static_cast<size_t>(dim));
    float norm = 0.0f;
    for (auto& x : v) {
      x = static_cast<float>(rng.Gaussian());
      norm += x * x;
    }
    norm = std::sqrt(norm);
    for (auto& x : v) x /= norm;
  }
  return out;
}

}  // namespace sudowoodo

#endif  // SUDOWOODO_COMMON_RANDOM_VECTORS_H_
