// Gradient-mode comparison on a full H1 fit: fd vs fd-parallel vs analytic,
// end-to-end through core::fitHypothesis (the production path).
//
// Expected shape: evals_per_fit drops by >= 3x under `analytic` — every BFGS
// iteration replaces all of its finite-difference probes (branch lengths,
// kappa, omegas, proportions) with one pruning-style gradient sweep over
// the line search's last evaluation.  `fd-parallel`
// keeps the evaluation count of `fd` but fans the probe points across
// single-threaded evaluators (a wall-clock win on multi-core hosts; on the
// 1-core dev container it collapses to the serial path).
//
// Emit machine-readable numbers for tracking with
//   ./gradient_scaling --benchmark_format=json > BENCH_gradient_scaling.json

#include <benchmark/benchmark.h>

#include "core/analysis.hpp"
#include "model/frequencies.hpp"
#include "sim/datasets.hpp"
#include "sim/evolver.hpp"
#include "sim/random_tree.hpp"
#include "sim/rng.hpp"

namespace {

using namespace slim;

struct Inputs {
  seqio::CodonAlignment codons;
  tree::Tree tree;
};

// 10 species -> 18 branches: large enough that the per-branch FD axis
// dominates the gradient bill (the regime the analytic mode targets).
const Inputs& inputs() {
  static const Inputs in = [] {
    sim::Rng rng(733);
    auto tree = sim::yuleTree(10, rng);
    sim::pickForegroundBranch(tree, rng);
    const auto& gc = bio::GeneticCode::universal();
    const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
    const auto simOut =
        sim::evolveBranchSite(gc, tree, sim::defaultSimulationParams(),
                              model::Hypothesis::H1, /*numCodons=*/40, pi, rng);
    return Inputs{seqio::encodeCodons(simOut.alignment, gc), std::move(tree)};
  }();
  return in;
}

// Args: (mode: 0 fd / 1 fd-parallel / 2 analytic, workers).
void BM_H1FitByGradientMode(benchmark::State& state) {
  const core::GradientMode mode =
      state.range(0) == 0   ? core::GradientMode::FiniteDiff
      : state.range(0) == 1 ? core::GradientMode::ParallelFiniteDiff
                            : core::GradientMode::Analytic;
  const int workers = static_cast<int>(state.range(1));

  core::FitOptions options;
  options.bfgs.maxIterations = 30;
  options.tuning.gradient = mode;
  options.tuning.numThreads = workers;
  options.tuning.policy = core::ParallelPolicy::TaskLevel;
  options.tuning.cachePropagators = 1;

  double lnLSum = 0;
  std::int64_t evaluations = 0, sweeps = 0;
  long gradientEvals = 0;
  for (auto _ : state) {
    core::BranchSiteAnalysis analysis(inputs().codons, inputs().tree,
                                      core::EngineKind::Slim, options);
    const auto fit = analysis.fit(model::Hypothesis::H1);
    lnLSum += fit.lnL;
    evaluations += fit.counters.evaluations;
    sweeps += fit.counters.gradientSweeps;
    gradientEvals += fit.gradientEvaluations;
    benchmark::DoNotOptimize(fit);
  }
  benchmark::DoNotOptimize(lnLSum);
  state.SetLabel(core::gradientModeName(mode));
  state.counters["workers"] = workers;
  state.counters["evals_per_fit"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kAvgIterations);
  state.counters["grad_evals_per_fit"] = benchmark::Counter(
      static_cast<double>(gradientEvals), benchmark::Counter::kAvgIterations);
  state.counters["grad_sweeps_per_fit"] = benchmark::Counter(
      static_cast<double>(sweeps), benchmark::Counter::kAvgIterations);
}

}  // namespace

BENCHMARK(BM_H1FitByGradientMode)
    ->ArgNames({"mode", "workers"})
    ->Args({0, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK_MAIN();
