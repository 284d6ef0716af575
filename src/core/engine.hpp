#pragma once
// Engine presets: the two systems compared throughout the paper's
// evaluation.  Both run the same parser, tree, optimizer and pruning
// machinery; they differ exactly in the likelihood-kernel options (kernel
// flavor, reconstruction path and one of the two propagation strategies —
// see lik/options.hpp).

#include "lik/options.hpp"

namespace slim::core {

enum class EngineKind {
  CodemlBaseline,  ///< CodeML v4.4c stand-in (naive kernels, Eq. 9, per-site gemv).
  Slim,            ///< SlimCodeML (opt kernels, Eq. 10 syrk, bundled BLAS-3).
  SlimParallel,    ///< Slim + all-core pattern-block sweep + propagator cache.
};

constexpr const char* engineName(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::CodemlBaseline: return "CodeML";
    case EngineKind::Slim: return "SlimCodeML";
    case EngineKind::SlimParallel: return "SlimCodeML-MT";
  }
  return "?";
}

constexpr lik::LikelihoodOptions engineOptions(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::CodemlBaseline: return lik::codemlBaselineOptions();
    case EngineKind::Slim: return lik::slimOptions();
    case EngineKind::SlimParallel: return lik::slimParallelOptions();
  }
  return lik::slimOptions();
}

/// Where the workers go when several *independent* fit tasks are available
/// (the H0/H1 pair of one gene, or the genes of a batch): fanning whole
/// tasks across the pool, gcodeml-style, or keeping each task sequential
/// and parallelizing inside its pattern sweep.  Either way each evaluation's
/// arithmetic is unchanged, so results are bit-identical across policies.
enum class ParallelPolicy {
  Auto,          ///< Task-level when tasks >= workers, pattern-level otherwise.
  TaskLevel,     ///< One worker per fit task; evaluators run single-threaded.
  PatternLevel,  ///< Tasks run sequentially; each evaluator uses all workers.
};

constexpr const char* parallelPolicyName(ParallelPolicy p) noexcept {
  switch (p) {
    case ParallelPolicy::Auto: return "auto";
    case ParallelPolicy::TaskLevel: return "task";
    case ParallelPolicy::PatternLevel: return "pattern";
  }
  return "?";
}

/// How the optimizer obtains gradients of the likelihood objective
/// (`gradient =` in the control file).
enum class GradientMode {
  /// Forward/central finite differences, one evaluation per coordinate,
  /// probed on the fit's own (possibly pattern-parallel) evaluator (the
  /// default, and the reference the analytic mode is checked against).
  FiniteDiff,
  /// Full analytic gradient: every coordinate — branch lengths, kappa,
  /// the omegas and the mixture proportions — from one extra pruning-style
  /// sweep over the evaluation's retained state (dP/dt and dP/dtheta via
  /// the eigendecomposition), so eigen-path fits spend no evaluation on
  /// gradients.  Under expm = adaptive (no eigensystem) kappa and the
  /// omegas are finite-differenced.
  Analytic,
};

constexpr const char* gradientModeName(GradientMode g) noexcept {
  switch (g) {
    case GradientMode::FiniteDiff: return "fd";
    case GradientMode::Analytic: return "analytic";
  }
  return "?";
}

/// Tuning overrides layered on an engine preset (values < 0 keep the
/// preset's setting).  Kept out of EngineKind so parallelism and caching
/// stay orthogonal to the paper's kernel comparison.
struct LikelihoodTuning {
  int numThreads = -1;        ///< see lik::LikelihoodOptions::numThreads
  int blockSize = -1;         ///< see lik::LikelihoodOptions::blockSize
  int cachePropagators = -1;  ///< tri-state: -1 preset, 0 off, 1 on
  /// Nested-parallelism policy for schedulers running independent fit
  /// tasks (core::TaskScheduler / core::BatchAnalysis).
  ParallelPolicy policy = ParallelPolicy::Auto;
  /// Gradient computation for the BFGS fits.
  GradientMode gradient = GradientMode::FiniteDiff;
  /// SIMD kernel selection for the Opt-flavor hot paths (`simd =` ctl key);
  /// see lik::LikelihoodOptions::simd.  The resolved level is recorded in
  /// FitResult::simd and the text/JSON reports.
  linalg::SimdMode simd = linalg::SimdMode::Auto;
  /// Compute-backend selection (`backend =` ctl key); see
  /// lik::LikelihoodOptions::backend.  The resolved kind is recorded in
  /// FitResult::backend and the text/JSON reports.
  backend::BackendMode backend = backend::BackendMode::Auto;
  /// Propagator builder (`expm =` ctl key); see lik::LikelihoodOptions::expm.
  backend::ExpmAlgorithm expm = backend::ExpmAlgorithm::Eigen;
};

constexpr lik::LikelihoodOptions resolvedEngineOptions(
    EngineKind e, const LikelihoodTuning& tuning) noexcept {
  lik::LikelihoodOptions o = engineOptions(e);
  if (tuning.numThreads >= 0) o.numThreads = tuning.numThreads;
  if (tuning.blockSize >= 0) o.blockSize = tuning.blockSize;
  if (tuning.cachePropagators >= 0)
    o.cachePropagators = tuning.cachePropagators != 0;
  o.simd = tuning.simd;
  o.backend = tuning.backend;
  o.expm = tuning.expm;
  return o;
}

}  // namespace slim::core
