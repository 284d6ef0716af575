#include "linalg/blas3.hpp"

#include "support/require.hpp"

namespace slim::linalg {

namespace {

// PAML matby transcription: dot-product form with strided column access of B.
// This is the memory access pattern of CodeML's hand-rolled matrix product.
void gemmNaive(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double t = 0.0;
      for (std::size_t k = 0; k < kk; ++k) t += a(i, k) * b(k, j);
      c(i, j) = t;
    }
}

// The scalar SIMD table holds the optimized (saxpy gemm / dot gemmNT) loop
// nests on raw pointers; the Flavor::Opt overloads (syrk included, through
// gemmNT's row dots) delegate to it so the "opt kernel" and the
// simd = scalar reference are one implementation, bit for bit.
const SimdKernels& scalarKernels() {
  static const SimdKernels& k = simdKernels(SimdLevel::Scalar);
  return k;
}

// Naive A * B^T: dot products of rows; access is contiguous but unassisted.
void gemmNTNaive(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double t = 0.0;
      for (std::size_t k = 0; k < kk; ++k) t += a(i, k) * b(j, k);
      c(i, j) = t;
    }
}

}  // namespace

void gemm(Flavor flavor, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemm: output must not alias inputs");
  if (flavor == Flavor::Naive)
    gemmNaive(a, b, c);
  else
    scalarKernels().gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                         b.cols());
}

void gemm(Flavor flavor, const Matrix& a, const Matrix& b, Matrix& c) {
  gemm(flavor, a.view(), b.view(), c.view());
}

void gemmNT(Flavor flavor, ConstMatrixView a, ConstMatrixView b,
            MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.cols(), "gemmNT: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
               "gemmNT: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemmNT: output must not alias inputs");
  if (flavor == Flavor::Naive)
    gemmNTNaive(a, b, c);
  else
    // Optimized A * B^T: multi-accumulator dot products over contiguous
    // rows.  For large pattern panels the saxpy-form gemm against a
    // pre-transposed B is substantially faster; the likelihood engine
    // therefore stores BundledGemm propagators transposed and calls gemm.
    scalarKernels().gemmNT(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                           b.rows());
}

void gemmNT(Flavor flavor, const Matrix& a, const Matrix& b, Matrix& c) {
  gemmNT(flavor, a.view(), b.view(), c.view());
}

void syrk(Flavor flavor, const Matrix& y, Matrix& c) {
  SLIM_REQUIRE(c.rows() == y.rows() && c.cols() == y.rows(),
               "syrk: output shape mismatch");
  SLIM_REQUIRE(&c != &y, "syrk: output must not alias input");
  if (flavor == Flavor::Naive) {
    // What CodeML effectively does: a full general product, 2 n^2 k flops.
    gemmNTNaive(y.view(), y.view(), c.view());
    return;
  }
  // Upper triangle only (n^2 k flops), then mirror — the dsyrk trick.  Row
  // i of the triangle is the dot-form product of y_i with rows i..n-1, the
  // same dots the fused scalar syrkSandwich forms.
  const std::size_t n = y.rows(), k = y.cols();
  for (std::size_t i = 0; i < n; ++i)
    scalarKernels().gemmNT(y.row(i), y.row(i), c.row(i) + i, 1, k, n - i);
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
}

void gemm(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
          MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemm: output must not alias inputs");
  kern.gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
}

void gemmNT(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
            MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.cols(), "gemmNT: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
               "gemmNT: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemmNT: output must not alias inputs");
  kern.gemmNT(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
}

}  // namespace slim::linalg
