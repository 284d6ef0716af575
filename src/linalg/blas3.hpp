#pragma once
// BLAS level-3 style kernels (matrix-matrix).
//
// gemm is the Eq. 9 reconstruction kernel (Z = Ytilde * X^T, ~2n^3 flops) and
// the bundled CPV-propagation kernel (Sec. III-B "single matrix x matrix
// operation ... including all sites").  syrk is the Eq. 10 kernel
// (Z = Y * Y^T, ~n^3 flops) that constitutes the paper's headline saving.

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace slim::linalg {

/// C := A * B.  Shapes: A (m x k), B (k x n), C (m x n); C is overwritten.
void gemm(Flavor flavor, const Matrix& a, const Matrix& b, Matrix& c);

/// Panel form over row-block views (the pattern-blocked engine's kernel);
/// numerically identical to the Matrix overload for any row partition.
void gemm(Flavor flavor, ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C := A * B^T.  Shapes: A (m x k), B (n x k), C (m x n); C is overwritten.
/// This is the exact Eq. 9 operation with A = X e^{Lambda t} and B = X.
void gemmNT(Flavor flavor, const Matrix& a, const Matrix& b, Matrix& c);

/// Panel form of gemmNT over row-block views.
void gemmNT(Flavor flavor, ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C := Y * Y^T (symmetric rank-k update, full result stored).
/// Shapes: Y (n x k), C (n x n); C is overwritten.
/// The Opt flavor computes only the upper triangle and mirrors it
/// (~n^2 k flops instead of ~2 n^2 k) — the dsyrk trick of Eq. 10.
/// The Naive flavor runs the full gemmNT(A=Y, B=Y) loop nest, i.e. what a
/// code base without a symmetric kernel would do.
void syrk(Flavor flavor, const Matrix& y, Matrix& c);

// --- SIMD-dispatched forms ----------------------------------------------
// Same shapes and checks as the Flavor overloads, routed through a
// runtime-selected kernel table (linalg/simd.hpp).  With the scalar table
// these are bit-identical to the Flavor::Opt overloads (same machine code);
// AVX tables agree to floating-point reassociation.

void gemm(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
          MatrixView c);
void gemmNT(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
            MatrixView c);

}  // namespace slim::linalg
