// Ablation A (DESIGN.md §5): the matrix-exponential kernels.
//
//   - Eq. 9 (gemm, ~2n^3) vs Eq. 10 (syrk, ~n^3) reconstruction, in both
//     kernel flavors: the paper's central claim, "saves about half of the
//     flops".
//   - The symmetric eigendecomposition (once per omega class) and the Pade
//     oracle, for context on where time goes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "backend/compute_backend.hpp"
#include "backend/expm_pade.hpp"
#include "expm/codon_eigen_system.hpp"
#include "linalg/diag.hpp"
#include "linalg/simd.hpp"
#include "model/codon_model.hpp"
#include "oracle/pade.hpp"
#include "sim/evolver.hpp"
#include "sim/rng.hpp"

namespace {

using namespace slim;

struct Setup {
  std::vector<double> pi;
  linalg::Matrix s;
  expm::CodonEigenSystem es;

  Setup()
      : pi(makePi()),
        s(makeS()),
        es(s, pi) {}

  static std::vector<double> makePi() {
    sim::Rng rng(31);
    return sim::randomCodonFrequencies(61, 5, rng);
  }
  static linalg::Matrix makeS() {
    linalg::Matrix m(61, 61);
    model::buildExchangeability(bio::GeneticCode::universal(), 2.0, 0.4, m);
    return m;
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

void reconstruct(benchmark::State& state, expm::ReconstructionPath path,
                 linalg::Flavor flavor) {
  auto& s = setup();
  expm::ExpmWorkspace ws;
  linalg::Matrix p(61, 61);
  double t = 0.01;
  for (auto _ : state) {
    s.es.transitionMatrix(t, path, flavor, ws, p);
    benchmark::DoNotOptimize(p.data());
    t += 1e-6;  // defeat any value caching
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Reconstruct_Gemm_Naive(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Gemm, linalg::Flavor::Naive);
}
void BM_Reconstruct_Gemm_Opt(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Gemm, linalg::Flavor::Opt);
}
void BM_Reconstruct_Syrk_Naive(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Syrk, linalg::Flavor::Naive);
}
void BM_Reconstruct_Syrk_Opt(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Syrk, linalg::Flavor::Opt);
}
BENCHMARK(BM_Reconstruct_Gemm_Naive);
BENCHMARK(BM_Reconstruct_Gemm_Opt);
BENCHMARK(BM_Reconstruct_Syrk_Naive);
BENCHMARK(BM_Reconstruct_Syrk_Opt);

// --- SIMD-dispatched reconstruction (linalg/simd.hpp) -------------------
//
// "Fused" runs the kernel-table transitionMatrix overload: the Pi sandwich
// and clamp are folded into the rank-update loop.  "Unfused" forms Y Y^T
// from the same level's dot kernel, then runs the separate scaleSandwich
// and clamp passes — the Flavor::Opt step sequence — isolating what fusion
// buys at the same ISA.  Levels the host cannot run are skipped.
void reconstructSimd(benchmark::State& state, linalg::SimdLevel level,
                     bool fused) {
  if (!linalg::simdLevelAvailable(level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return;
  }
  auto& s = setup();
  const auto& kern = linalg::simdKernels(level);
  expm::ExpmWorkspace ws;
  linalg::Matrix p(61, 61);
  double t = 0.01;
  if (fused) {
    for (auto _ : state) {
      s.es.transitionMatrix(t, expm::ReconstructionPath::Syrk, kern, ws, p);
      benchmark::DoNotOptimize(p.data());
      t += 1e-6;
    }
  } else {
    linalg::Matrix y(61, 61), z(61, 61);
    std::vector<double> expDiag(61);
    for (auto _ : state) {
      for (std::size_t i = 0; i < 61; ++i)
        expDiag[i] = std::exp(0.5 * s.es.eigenvalues()[i] * t);
      linalg::scaleCols(s.es.eigenvectors(), expDiag, y);
      // Unfused Y Y^T on the level's dot kernel: the upper triangle row by
      // row, then the mirror.
      for (std::size_t i = 0; i < 61; ++i)
        kern.gemmNT(y.row(i), y.row(i), z.row(i) + i, 1, 61, 61 - i);
      for (std::size_t i = 1; i < 61; ++i)
        for (std::size_t j = 0; j < i; ++j) z(i, j) = z(j, i);
      linalg::scaleSandwich(z, s.es.invSqrtPi(), s.es.sqrtPi(), p);
      for (std::size_t k = 0; k < p.size(); ++k)
        if (p.data()[k] < 0.0) p.data()[k] = 0.0;
      benchmark::DoNotOptimize(p.data());
      t += 1e-6;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Reconstruct_Syrk_ScalarFused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Scalar, true);
}
void BM_Reconstruct_Syrk_Avx2Unfused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx2, false);
}
void BM_Reconstruct_Syrk_Avx2Fused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx2, true);
}
void BM_Reconstruct_Syrk_Avx512Unfused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx512, false);
}
void BM_Reconstruct_Syrk_Avx512Fused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx512, true);
}
BENCHMARK(BM_Reconstruct_Syrk_ScalarFused);
BENCHMARK(BM_Reconstruct_Syrk_Avx2Unfused);
BENCHMARK(BM_Reconstruct_Syrk_Avx2Fused);
BENCHMARK(BM_Reconstruct_Syrk_Avx512Unfused);
BENCHMARK(BM_Reconstruct_Syrk_Avx512Fused);

void BM_Eigendecomposition(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    expm::CodonEigenSystem es(s.s, s.pi);
    benchmark::DoNotOptimize(es.eigenvalues()[0]);
  }
}
BENCHMARK(BM_Eigendecomposition);

void BM_PadeOracle(benchmark::State& state) {
  auto& s = setup();
  linalg::Matrix q(61, 61);
  model::buildRateMatrix(s.s, s.pi, q);
  for (std::size_t k = 0; k < q.size(); ++k) q.data()[k] *= 0.3;
  for (auto _ : state) {
    auto p = oracle::expmPade(q);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_PadeOracle);

// --- Propagator-builder dimension: eigen vs adaptive expm ---------------
//
// The eigen path amortizes one decomposition per omega class and costs one
// reconstruction per (branch, class); the Higham scaling-and-squaring path
// (src/backend/expm_pade.cpp) pays its Pade evaluation on every call but
// needs no symmetrizable Q.  Benchmarked per call at a typical branch
// length through each available backend's gemm.
void adaptiveExpm(benchmark::State& state, backend::BackendKind kind) {
  if (!backend::backendAvailable(kind)) {
    state.SkipWithError("backend unavailable in this build");
    return;
  }
  auto& s = setup();
  const auto be = backend::computeBackend(kind, linalg::detectSimdLevel());
  linalg::Matrix q(61, 61);
  model::buildRateMatrix(s.s, s.pi, q);
  backend::AdaptiveExpmWorkspace ws;
  linalg::Matrix qt(61, 61), p(61, 61);
  double t = 0.01;
  for (auto _ : state) {
    for (std::size_t k = 0; k < q.size(); ++k) qt.data()[k] = q.data()[k] * t;
    backend::expmAdaptive(qt, be.ops, ws, p);
    benchmark::DoNotOptimize(p.data());
    t += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(be.name);
}

void BM_AdaptiveExpm_Reference(benchmark::State& state) {
  adaptiveExpm(state, backend::BackendKind::Reference);
}
void BM_AdaptiveExpm_Simd(benchmark::State& state) {
  adaptiveExpm(state, backend::BackendKind::Simd);
}
void BM_AdaptiveExpm_Blas(benchmark::State& state) {
  adaptiveExpm(state, backend::BackendKind::Blas);
}
BENCHMARK(BM_AdaptiveExpm_Reference);
BENCHMARK(BM_AdaptiveExpm_Simd);
BENCHMARK(BM_AdaptiveExpm_Blas);

}  // namespace

BENCHMARK_MAIN();
