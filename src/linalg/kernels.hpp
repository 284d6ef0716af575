#pragma once
// Kernel flavor selection.
//
// The SlimCodeML paper compares CodeML's hand-rolled C loops against tuned
// BLAS kernels (GotoBLAS2).  We reproduce that comparison with two in-repo
// flavors of every kernel:
//
//   Flavor::Naive — faithful transcriptions of the textbook / PAML loop
//                   nests (dot-product-form gemm with strided column access,
//                   per-element gemv, no blocking, no restrict).
//   Flavor::Opt   — cache- and vectorizer-friendly implementations (saxpy-
//                   form gemm, k-blocking, __restrict pointers, symmetric
//                   rank-k kernels that exploit structure).
//
// Every kernel produces identical results up to floating-point reassociation;
// tests assert agreement to tight tolerances.

#ifndef SLIM_RESTRICT
#if defined(__GNUC__) || defined(__clang__)
#define SLIM_RESTRICT __restrict__
#else
#define SLIM_RESTRICT
#endif
#endif

namespace slim::linalg {

enum class Flavor {
  Naive,  ///< CodeML-style reference loops.
  Opt,    ///< SlimCodeML-style optimized kernels.
};

/// Human-readable flavor name for reports and benchmarks.
constexpr const char* flavorName(Flavor f) noexcept {
  return f == Flavor::Naive ? "naive" : "opt";
}

}  // namespace slim::linalg
