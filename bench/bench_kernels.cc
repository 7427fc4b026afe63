// GFLOP/s microbenchmark for the tensor/kernels.h layer at the dense
// shapes the pipelines actually run (see EXPERIMENTS.md "Kernel shapes"),
// measured with the kernel each workload actually executes:
//
//   - "gemm" shapes (Transformer projections, feed-forward) go through
//     ks::Gemm (MatMul / Linear): the seed engine's unblocked loop
//     ("naive") vs the register-blocked SIMD micro-kernel on the best
//     tier this machine supports, serial and row-sharded
//     ("micro"/"micro_threads").
//   - "gemm_bt" shapes (attention scores Q*K^T, NT-Xent Z*Z^T, kNN batch
//     scoring) go through ks::GemmBT (MatMulBT / BlockingIndex): a scalar
//     single-chain dot per element (the seed engine's structure) vs the
//     micro-kernel.
//
// The micro rows are verified within 1e-4 relative of naive: a tier with
// fused multiply-adds rounds each term once where the naive loop rounds
// twice (kernels.h). Each micro record carries the dispatch tier it ran
// on ("tier"); the compare tool treats that as metadata, not identity,
// and skips the strict seconds band when the tier changed between
// baseline and fresh run (different machines legitimately dispatch
// differently). The naive rows run no dispatched kernel and carry no
// tier.
//
// The output buffer is zeroed *outside* the timed region, so the numbers
// are kernel time only. `--json <path>` additionally writes the
// measurements as JSON records.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "tensor/kernels.h"

namespace sudowoodo {
namespace {

namespace ks = tensor::kernels;

/// The seed engine's accumulation structure for C += A*B: i/k/j with a
/// saxpy inner loop but no cache blocking.
void NaiveGemm(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// The seed engine's structure for C += A*B^T (B is [n,k]): one scalar
/// single-chain dot per output element.
void NaiveGemmBT(int m, int n, int k, const float* a, const float* b,
                 float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float acc = 0.0f;
      for (int l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] += acc;
    }
  }
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

enum class Kind { kGemm, kGemmBT };

struct Shape {
  const char* name;  // which pipeline hot path this shape stands for
  Kind kind;
  int m, n, k;
};

struct Measurement {
  std::string variant;
  const char* tier = nullptr;  // dispatch tier; none for the naive loops
  int num_shards = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  bool matches = true;
};

/// The best micro-kernel tier available here, whatever tier the
/// environment pins.
ks::KernelTier BestMicroTier() {
  for (ks::KernelTier t :
       {ks::KernelTier::kAvx512, ks::KernelTier::kAvx2,
        ks::KernelTier::kNeon}) {
    if (ks::KernelTierSupported(t)) return t;
  }
  return ks::KernelTier::kPortable;
}

/// Mean seconds per call over enough repetitions to pass ~0.2s of kernel
/// time. The per-rep zeroing of C runs outside the timed window.
template <typename Fn>
double TimePerCall(std::vector<float>* c, const Fn& fn) {
  std::fill(c->begin(), c->end(), 0.0f);
  fn();  // warm-up
  double total = 0.0;
  int reps = 0;
  while (total < 0.2) {
    std::fill(c->begin(), c->end(), 0.0f);
    WallTimer timer;
    fn();
    total += timer.ElapsedSeconds();
    ++reps;
  }
  return total / reps;
}

bool MatchesWithin(const std::vector<float>& got,
                   const std::vector<float>& want, float rel_tol) {
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = rel_tol * (std::fabs(want[i]) + 1.0f);
    if (!(std::fabs(got[i] - want[i]) <= tol)) return false;
  }
  return true;
}

void Run(const std::string& json_path) {
  const Shape shapes[] = {
      // ks::Gemm consumers: MatMul forward, Linear inference.
      {"transformer_proj", Kind::kGemm, 128, 768, 768},
      {"ffn_up", Kind::kGemm, 128, 3072, 768},
      // Batched inference encoding: a length bucket's [B*T, d] residual
      // stream through the projection GEMMs (m = rows per bucket; the
      // per-row path capped m at one sequence's T <= 128).
      {"batched_encode_m256", Kind::kGemm, 256, 768, 768},
      {"batched_encode_m512", Kind::kGemm, 512, 768, 768},
      {"batched_encode_m1024", Kind::kGemm, 1024, 768, 768},
      // ks::GemmBT consumers: MatMulBT (attention, NT-Xent), kNN scoring.
      {"attention_scores", Kind::kGemmBT, 128, 128, 64},
      {"ntxent_similarity", Kind::kGemmBT, 256, 256, 768},
      {"knn_batch_score", Kind::kGemmBT, 512, 2500, 768},
  };
  const int kShards = 4;
  ThreadPool& pool = ThreadPool::Global();

  bench::JsonRecords records;
  TablePrinter table("GEMM kernels, GFLOP/s (verified against the naive reference)");
  table.SetHeader({"shape", "kernel", "m", "n", "k", "variant", "tier",
                   "ms", "GFLOP/s", "matches"});

  for (const Shape& s : shapes) {
    // For kGemmBT, b is the [n,k] transposed operand.
    const auto a = RandomVec(static_cast<size_t>(s.m) * s.k, 7);
    const auto b = RandomVec(static_cast<size_t>(s.k) * s.n, 11);
    std::vector<float> c(static_cast<size_t>(s.m) * s.n, 0.0f);
    const double flops = 2.0 * s.m * s.n * s.k;

    const ks::KernelTier micro_tier = BestMicroTier();
    std::vector<float> reference;
    std::vector<Measurement> ms;
    if (s.kind == Kind::kGemm) {
      {
        Measurement x;
        x.variant = "naive";
        x.seconds = TimePerCall(&c, [&] {
          NaiveGemm(s.m, s.n, s.k, a.data(), b.data(), c.data());
        });
        reference = c;
        ms.push_back(x);
      }
      ks::SetKernelTier(micro_tier);
      {
        Measurement x;
        x.variant = "micro";
        x.tier = ks::KernelTierName(micro_tier);
        x.seconds = TimePerCall(&c, [&] {
          ks::Gemm(s.m, s.n, s.k, a.data(), b.data(), c.data());
        });
        // fma vs separate multiply+add: equal within rounding only.
        x.matches = MatchesWithin(c, reference, 1e-4f);
        ms.push_back(x);
      }
      {
        Measurement x;
        x.variant = "micro_threads";
        x.tier = ks::KernelTierName(micro_tier);
        x.num_shards = kShards;
        x.seconds = TimePerCall(&c, [&] {
          ks::Gemm(s.m, s.n, s.k, a.data(), b.data(), c.data(), &pool,
                   kShards);
        });
        x.matches = MatchesWithin(c, reference, 1e-4f);
        ms.push_back(x);
      }
      ks::ResetKernelTier();
    } else {
      {
        Measurement x;
        x.variant = "naive";
        x.seconds = TimePerCall(&c, [&] {
          NaiveGemmBT(s.m, s.n, s.k, a.data(), b.data(), c.data());
        });
        reference = c;
        ms.push_back(x);
      }
      ks::SetKernelTier(micro_tier);
      {
        Measurement x;
        x.variant = "micro";
        x.tier = ks::KernelTierName(micro_tier);
        x.seconds = TimePerCall(&c, [&] {
          ks::GemmBT(s.m, s.n, s.k, a.data(), b.data(), c.data());
        });
        x.matches = MatchesWithin(c, reference, 1e-4f);
        ms.push_back(x);
      }
      ks::ResetKernelTier();
    }

    const char* kernel = s.kind == Kind::kGemm ? "gemm" : "gemm_bt";
    for (Measurement& x : ms) {
      x.gflops = flops / x.seconds / 1e9;
      table.AddRow({s.name, kernel, std::to_string(s.m), std::to_string(s.n),
                    std::to_string(s.k), x.variant,
                    x.tier != nullptr ? x.tier : "-",
                    StrFormat("%.2f", x.seconds * 1e3),
                    StrFormat("%.2f", x.gflops), x.matches ? "yes" : "NO"});
      auto& r = records.Add();
      r.Str("bench", "kernels_gemm");
      r.Str("shape", s.name);
      r.Str("kernel", kernel);
      r.Int("m", s.m);
      r.Int("n", s.n);
      r.Int("k", s.k);
      r.Str("variant", x.variant);
      r.Int("num_shards", x.num_shards);
      if (x.tier != nullptr) r.Str("tier", x.tier);
      r.Num("seconds", x.seconds);
      r.Num("gflops", x.gflops);
      r.Bool("matches_reference", x.matches);
    }
  }
  table.Print();
  bench::WriteOrReport(records, json_path);
}

}  // namespace
}  // namespace sudowoodo

int main(int argc, char** argv) {
  sudowoodo::Run(sudowoodo::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
