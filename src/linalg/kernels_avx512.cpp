// AVX-512 (F/DQ/VL) kernel table.  Compiled with the AVX-512 ISA flags only
// in this translation unit (CMake defines SLIM_SIMD_AVX512 alongside them);
// reachable exclusively through the dispatch table after cpuid checks, and
// includes no project header with inline bodies besides simd.hpp — see
// kernels_avx2.cpp for the rationale.
//
// n = 61 (sense codons) is 7 full zmm lanes of 8 plus a 5-lane masked tail;
// the masked tail is processed with the same instruction sequence every
// call, so results stay bit-identical across any row partition.

#include "linalg/simd.hpp"

#if defined(SLIM_SIMD_AVX512) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace slim::linalg::detail {

namespace {

inline __mmask8 tailMask(std::size_t n) noexcept {
  return static_cast<__mmask8>((1u << (n & 7)) - 1u);
}

// 4-accumulator dot; _mm512_reduce_add_pd is a fixed reduction tree.
inline double dotAvx512(const double* SLIM_RESTRICT x,
                        const double* SLIM_RESTRICT y,
                        std::size_t kk) noexcept {
  __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
  __m512d s2 = _mm512_setzero_pd(), s3 = _mm512_setzero_pd();
  std::size_t k = 0;
  for (; k + 32 <= kk; k += 32) {
    s0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k), s0);
    s1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 8), _mm512_loadu_pd(y + k + 8),
                         s1);
    s2 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 16),
                         _mm512_loadu_pd(y + k + 16), s2);
    s3 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 24),
                         _mm512_loadu_pd(y + k + 24), s3);
  }
  for (; k + 8 <= kk; k += 8)
    s0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k), s0);
  if (k < kk) {
    const __mmask8 m = tailMask(kk);
    s1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, x + k),
                         _mm512_maskz_loadu_pd(m, y + k), s1);
  }
  return _mm512_reduce_add_pd(
      _mm512_add_pd(_mm512_add_pd(s0, s1), _mm512_add_pd(s2, s3)));
}

void gemmAvx512(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                std::size_t n) {
  const std::size_t nv = n & ~std::size_t{7};
  const __mmask8 tm = tailMask(n);
  for (std::size_t i = 0; i < m; ++i) {
    double* SLIM_RESTRICT crow = c + i * n;
    const __m512d zero = _mm512_setzero_pd();
    for (std::size_t j = 0; j < nv; j += 8) _mm512_storeu_pd(crow + j, zero);
    if (nv < n) _mm512_mask_storeu_pd(crow + nv, tm, zero);

    const double* SLIM_RESTRICT arow = a + i * kk;
    std::size_t k = 0;
    for (; k + 4 <= kk; k += 4) {
      const __m512d a0 = _mm512_set1_pd(arow[k]);
      const __m512d a1 = _mm512_set1_pd(arow[k + 1]);
      const __m512d a2 = _mm512_set1_pd(arow[k + 2]);
      const __m512d a3 = _mm512_set1_pd(arow[k + 3]);
      const double* SLIM_RESTRICT b0 = b + k * n;
      const double* SLIM_RESTRICT b1 = b + (k + 1) * n;
      const double* SLIM_RESTRICT b2 = b + (k + 2) * n;
      const double* SLIM_RESTRICT b3 = b + (k + 3) * n;
      for (std::size_t j = 0; j < nv; j += 8) {
        __m512d cj = _mm512_loadu_pd(crow + j);
        cj = _mm512_fmadd_pd(a0, _mm512_loadu_pd(b0 + j), cj);
        cj = _mm512_fmadd_pd(a1, _mm512_loadu_pd(b1 + j), cj);
        cj = _mm512_fmadd_pd(a2, _mm512_loadu_pd(b2 + j), cj);
        cj = _mm512_fmadd_pd(a3, _mm512_loadu_pd(b3 + j), cj);
        _mm512_storeu_pd(crow + j, cj);
      }
      if (nv < n) {
        __m512d cj = _mm512_maskz_loadu_pd(tm, crow + nv);
        cj = _mm512_fmadd_pd(a0, _mm512_maskz_loadu_pd(tm, b0 + nv), cj);
        cj = _mm512_fmadd_pd(a1, _mm512_maskz_loadu_pd(tm, b1 + nv), cj);
        cj = _mm512_fmadd_pd(a2, _mm512_maskz_loadu_pd(tm, b2 + nv), cj);
        cj = _mm512_fmadd_pd(a3, _mm512_maskz_loadu_pd(tm, b3 + nv), cj);
        _mm512_mask_storeu_pd(crow + nv, tm, cj);
      }
    }
    for (; k < kk; ++k) {
      const __m512d ak = _mm512_set1_pd(arow[k]);
      const double* SLIM_RESTRICT brow = b + k * n;
      for (std::size_t j = 0; j < nv; j += 8) {
        __m512d cj = _mm512_loadu_pd(crow + j);
        cj = _mm512_fmadd_pd(ak, _mm512_loadu_pd(brow + j), cj);
        _mm512_storeu_pd(crow + j, cj);
      }
      if (nv < n) {
        __m512d cj = _mm512_maskz_loadu_pd(tm, crow + nv);
        cj = _mm512_fmadd_pd(ak, _mm512_maskz_loadu_pd(tm, brow + nv), cj);
        _mm512_mask_storeu_pd(crow + nv, tm, cj);
      }
    }
  }
}

void gemmNTAvx512(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                  double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                  std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j)
      crow[j] = dotAvx512(arow, b + j * kk, kk);
  }
}

void syrkSandwichAvx512(const double* SLIM_RESTRICT y,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                        std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx512(yi, y + j * kk, kk);
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * n + j] = pij < 0.0 ? 0.0 : pij;
      p[j * n + i] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichAvx512(const double* SLIM_RESTRICT a,
                          const double* SLIM_RESTRICT b,
                          const double* SLIM_RESTRICT l,
                          const double* SLIM_RESTRICT r,
                          double* SLIM_RESTRICT c, std::size_t m,
                          std::size_t kk, std::size_t n, bool clampNegative) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    const double li = l[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * dotAvx512(arow, b + j * kk, kk) * r[j];
      crow[j] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr SimdKernels kAvx512Kernels{
    "avx512",           gemmAvx512,          gemmNTAvx512,
    syrkSandwichAvx512, gemmNTSandwichAvx512,
};

}  // namespace

const SimdKernels* avx512KernelTable() noexcept { return &kAvx512Kernels; }

}  // namespace slim::linalg::detail

#else  // !SLIM_SIMD_AVX512

namespace slim::linalg::detail {
const SimdKernels* avx512KernelTable() noexcept { return nullptr; }
}  // namespace slim::linalg::detail

#endif
