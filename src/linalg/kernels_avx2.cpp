// AVX2+FMA kernel table.  This translation unit is the only place AVX2
// instructions are emitted (CMake compiles it with -mavx2 -mfma when the
// compiler supports them and defines SLIM_SIMD_AVX2); everything it defines
// is reached exclusively through the function-pointer table, which
// simd.cpp hands out only after __builtin_cpu_supports("avx2") confirms the
// host can execute it.  The file deliberately includes no project header
// with inline function bodies besides the lean simd.hpp, so no AVX-compiled
// copy of a shared inline function can leak into generic code via the
// linker.
//
// Determinism: gemm computes each output row from a fixed-order k-loop over
// fixed-width column chunks, and the dot kernels accumulate in four fixed
// vector partials reduced in a fixed tree — results depend only on operand
// values, never on how callers partition rows across threads or blocks.

#include "linalg/simd.hpp"

#if defined(SLIM_SIMD_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace slim::linalg::detail {

namespace {

// Sum the four lanes: (v0 + v2) + (v1 + v3) — fixed reduction tree.
inline double hsum4(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// 4-accumulator dot over contiguous rows (k is 61 for codon panels).
inline double dotAvx2(const double* SLIM_RESTRICT x,
                      const double* SLIM_RESTRICT y, std::size_t kk) noexcept {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 16 <= kk; k += 16) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 4), _mm256_loadu_pd(y + k + 4),
                         s1);
    s2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 8), _mm256_loadu_pd(y + k + 8),
                         s2);
    s3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 12),
                         _mm256_loadu_pd(y + k + 12), s3);
  }
  for (; k + 4 <= kk; k += 4)
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k), s0);
  double t = hsum4(_mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3)));
  for (; k < kk; ++k) t += x[k] * y[k];
  return t;
}

void gemmAvx2(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
              double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
              std::size_t n) {
  const std::size_t nv = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; ++i) {
    double* SLIM_RESTRICT crow = c + i * n;
    std::size_t j = 0;
    const __m256d zero = _mm256_setzero_pd();
    for (; j < nv; j += 4) _mm256_storeu_pd(crow + j, zero);
    for (; j < n; ++j) crow[j] = 0.0;

    const double* SLIM_RESTRICT arow = a + i * kk;
    std::size_t k = 0;
    for (; k + 4 <= kk; k += 4) {
      const __m256d a0 = _mm256_set1_pd(arow[k]);
      const __m256d a1 = _mm256_set1_pd(arow[k + 1]);
      const __m256d a2 = _mm256_set1_pd(arow[k + 2]);
      const __m256d a3 = _mm256_set1_pd(arow[k + 3]);
      const double* SLIM_RESTRICT b0 = b + k * n;
      const double* SLIM_RESTRICT b1 = b + (k + 1) * n;
      const double* SLIM_RESTRICT b2 = b + (k + 2) * n;
      const double* SLIM_RESTRICT b3 = b + (k + 3) * n;
      for (j = 0; j < nv; j += 4) {
        __m256d cj = _mm256_loadu_pd(crow + j);
        cj = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), cj);
        cj = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), cj);
        cj = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), cj);
        cj = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), cj);
        _mm256_storeu_pd(crow + j, cj);
      }
      for (; j < n; ++j)
        crow[j] += arow[k] * b0[j] + arow[k + 1] * b1[j] + arow[k + 2] * b2[j] +
                   arow[k + 3] * b3[j];
    }
    for (; k < kk; ++k) {
      const __m256d ak = _mm256_set1_pd(arow[k]);
      const double* SLIM_RESTRICT brow = b + k * n;
      for (j = 0; j < nv; j += 4) {
        __m256d cj = _mm256_loadu_pd(crow + j);
        cj = _mm256_fmadd_pd(ak, _mm256_loadu_pd(brow + j), cj);
        _mm256_storeu_pd(crow + j, cj);
      }
      for (; j < n; ++j) crow[j] += arow[k] * brow[j];
    }
  }
}

void gemmNTAvx2(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j)
      crow[j] = dotAvx2(arow, b + j * kk, kk);
  }
}

void syrkSandwichAvx2(const double* SLIM_RESTRICT y,
                      const double* SLIM_RESTRICT l,
                      const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                      std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx2(yi, y + j * kk, kk);
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * n + j] = pij < 0.0 ? 0.0 : pij;
      p[j * n + i] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichAvx2(const double* SLIM_RESTRICT a,
                        const double* SLIM_RESTRICT b,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT c,
                        std::size_t m, std::size_t kk, std::size_t n,
                        bool clampNegative) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    const double li = l[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * dotAvx2(arow, b + j * kk, kk) * r[j];
      crow[j] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr SimdKernels kAvx2Kernels{
    "avx2", gemmAvx2, gemmNTAvx2, syrkSandwichAvx2, gemmNTSandwichAvx2,
};

}  // namespace

const SimdKernels* avx2KernelTable() noexcept { return &kAvx2Kernels; }

}  // namespace slim::linalg::detail

#else  // !SLIM_SIMD_AVX2

namespace slim::linalg::detail {
const SimdKernels* avx2KernelTable() noexcept { return nullptr; }
}  // namespace slim::linalg::detail

#endif
