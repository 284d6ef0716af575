#pragma once
// Runtime-pluggable compute backends for the likelihood engine's hot ops.
//
// PR 4 introduced a cpuid-dispatched SIMD kernel table (linalg/simd.hpp);
// this layer promotes that table into a real backend interface: a
// ComputeBackend bundles an identity (kind + name) with a full
// linalg::SimdKernels ops table covering the hot likelihood panels — the
// saxpy-form panel gemm, the dot-form gemmNT, and the two fused Pi-sandwich
// reconstructions the propagator builder runs.  The evaluator resolves
// `backend =` once at construction (exactly like `simd =`) and routes every
// Flavor::Opt panel and propagator through the chosen table.
//
// Backends:
//   * reference — the scalar kernel table.  This is the bit-exact oracle:
//     its entries are the very code the Flavor::Opt kernels run, so
//     `backend = reference` output is bit-identical to the unfused
//     Flavor::Opt sequences (tests/simd_kernel_test.cpp pins it).
//   * simd — the existing AVX2/AVX-512 dispatch, at whatever level
//     `simd =` resolves to.  Agrees with reference to <= 1e-10 relative on
//     the log-likelihood (the PR 4 contract, unchanged).
//   * blas — vendor CBLAS (OpenBLAS/MKL/...) behind the SLIM_WITH_BLAS
//     CMake option.  When the option is off the backend is "not compiled"
//     and an explicit `backend = blas` fails with a keyed error at
//     evaluator construction, mirroring resolveSimdLevel's contract.
//     Row-major dgemm/dsyrk with the Pi sandwich and clamp applied in a
//     follow-up pass (vendor kernels cannot fuse them).
//   * (GPU slot) — a future `cuda`/`hip` backend plugs in here: add a
//     BackendKind enumerator, a TU returning its kernel table behind a
//     CMake option (the backend_blas.cpp pattern), and extend
//     backendCompiled/backendAvailable.  Because the interface is the same
//     row-major panel contract the engine already batches through, no
//     evaluator change is needed.  See docs/backends.md.
//
// Resolution contract (resolveBackendKind): Auto picks Reference when the
// resolved SIMD level is Scalar and Simd otherwise — i.e. exactly what the
// engine did before this layer existed.  Auto never picks Blas; vendor
// libraries reassociate sums, so leaving the deterministic default requires
// an explicit opt-in.

#include <string_view>

#include "linalg/simd.hpp"

namespace slim::backend {

/// What the user asked for (`backend =` ctl key / LikelihoodOptions).
enum class BackendMode {
  Auto,       ///< Reference at scalar SIMD, Simd otherwise (pre-PR behavior).
  Reference,  ///< Force the scalar reference path (bit-exact oracle).
  Simd,       ///< Require the SIMD kernel table at the resolved `simd` level.
  Blas,       ///< Require vendor CBLAS; fails if not compiled in.
};

/// What resolution actually selected (recorded in reports).
enum class BackendKind {
  Reference,
  Simd,
  Blas,
};

const char* backendModeName(BackendMode m) noexcept;
const char* backendKindName(BackendKind k) noexcept;

/// Parse a ctl-file value ("auto", "reference", "simd", "blas").  Returns
/// false on unknown text (out untouched).
bool parseBackendMode(std::string_view text, BackendMode& out) noexcept;
/// Parse a resolved kind ("reference", "simd", "blas"); false on unknown.
bool parseBackendKind(std::string_view text, BackendKind& out) noexcept;

/// One resolved backend: identity plus the kernel table the evaluator calls.
/// The ops table obeys the linalg::SimdKernels row-determinism contract
/// (row i of each output depends only on the operands' row i, or on the full
/// inputs in a fixed accumulation order), which the engine's thread-count /
/// block-size bit-invariance rests on.  Vendor BLAS keeps the contract
/// per-call (one call -> one deterministic result for the whole panel) but
/// may reassociate within a row, hence the <= 1e-10 (not bit) lnL contract.
struct ComputeBackend {
  BackendKind kind = BackendKind::Reference;
  const char* name = "reference";
  /// SIMD level the ops table runs at (Scalar for reference and blas).
  linalg::SimdLevel simdLevel = linalg::SimdLevel::Scalar;
  linalg::SimdKernels ops{};
};

/// Whether this binary contains the backend (reference/simd: always; blas:
/// SLIM_WITH_BLAS builds only).
bool backendCompiled(BackendKind k) noexcept;

/// Compiled in AND runnable right now (same as compiled for reference and
/// blas; for simd it means some vector level beyond scalar is available).
bool backendAvailable(BackendKind k) noexcept;

/// Resolve a requested mode against the already-resolved SIMD level.  Auto
/// picks Reference when `simdLevel` is Scalar and Simd otherwise.  An
/// explicit unavailable backend throws std::invalid_argument with a keyed
/// message (mirroring resolveSimdLevel), so a ctl file demanding blas on a
/// non-BLAS build fails loudly at evaluator construction.
BackendKind resolveBackendKind(BackendMode mode, linalg::SimdLevel simdLevel);

/// The backend descriptor for a resolved kind.  `simdLevel` selects the
/// kernel table for BackendKind::Simd and is ignored otherwise.  The kind
/// must be available (resolveBackendKind enforces this).
ComputeBackend computeBackend(BackendKind kind, linalg::SimdLevel simdLevel);

namespace detail {
/// Implemented by backend_blas.cpp (the only TU that includes <cblas.h>);
/// returns nullptr when SLIM_WITH_BLAS was off, mirroring
/// linalg::detail::avx2KernelTable().
const linalg::SimdKernels* blasKernelTable() noexcept;
}  // namespace detail

}  // namespace slim::backend
