#include "core/batch.hpp"

#include <chrono>

#include "core/checkpoint.hpp"
#include "support/require.hpp"

namespace slim::core {

using model::Hypothesis;

BatchAnalysis::BatchAnalysis(EngineKind engine, BatchOptions options)
    : engine_(engine), options_(std::move(options)) {}

FitOptions BatchAnalysis::resolveGeneOptions(FitOptions base,
                                             GeneHandle gene) const {
  if (options_.jitterSeedBase != 0)
    base.startJitterSeed = options_.jitterSeedBase + static_cast<std::uint64_t>(gene);
  return base;
}

GeneHandle BatchAnalysis::addGene(const seqio::CodonAlignment& alignment,
                                  const tree::Tree& tree) {
  return addGene(alignment, std::make_shared<const tree::Tree>(tree));
}

GeneHandle BatchAnalysis::addGene(const seqio::CodonAlignment& alignment,
                                  std::shared_ptr<const tree::Tree> tree) {
  return addGene(alignment, std::move(tree), options_.fit);
}

GeneHandle BatchAnalysis::addGene(const seqio::CodonAlignment& alignment,
                                  std::shared_ptr<const tree::Tree> tree,
                                  FitOptions geneOptions, std::string name) {
  const auto gene = static_cast<GeneHandle>(contexts_.size());
  contexts_.push_back(AnalysisContext::create(
      alignment, std::move(tree), engine_,
      resolveGeneOptions(std::move(geneOptions), gene)));
  names_.push_back(name.empty() ? "gene" + std::to_string(gene)
                                : std::move(name));
  return gene;
}

GeneHandle BatchAnalysis::addGene(std::shared_ptr<const AnalysisContext> context,
                                  std::string name) {
  SLIM_REQUIRE(context != nullptr, "BatchAnalysis: null context");
  SLIM_REQUIRE(context->engine() == engine_,
               "BatchAnalysis: context engine does not match the batch engine");
  const auto gene = static_cast<GeneHandle>(contexts_.size());
  contexts_.push_back(std::move(context));
  names_.push_back(name.empty() ? "gene" + std::to_string(gene)
                                : std::move(name));
  return gene;
}

std::vector<PositiveSelectionTest> BatchAnalysis::runAll() {
  const auto t0 = std::chrono::steady_clock::now();
  const int n = static_cast<int>(contexts_.size());
  totals_ = {};
  if (n == 0) {
    lastRun_ = {};
    return {};
  }

  // The batch-level tuning sizes the worker pool and picks the policy; the
  // scheduler then decides per phase whether whole tasks fan out (each
  // evaluator single-threaded) or run sequentially over a parallel pattern
  // sweep.  Either way each evaluation's arithmetic is identical, so the
  // choice affects wall clock only.
  const lik::LikelihoodOptions batchResolved =
      resolvedEngineOptions(engine_, options_.fit.tuning);
  const ParallelPolicy policy = options_.fit.tuning.policy;
  TaskScheduler scheduler(batchResolved.numThreads);

  // Phase 1: the 2N independent fits (gene g's H0 at task 2g, H1 at 2g+1).
  const int numFitTasks = 2 * n;
  const int fitThreads = scheduler.taskThreads(numFitTasks, policy);
  std::vector<FitResult> fits(numFitTasks);
  CheckpointManager* const ckpt = options_.checkpoint;
  scheduler.run(numFitTasks, policy, [&](int t) {
    const GeneHandle g = t / 2;
    const Hypothesis h = (t % 2 == 0) ? Hypothesis::H0 : Hypothesis::H1;
    const auto& ctx = *contexts_[g];
    lik::LikelihoodOptions lk = ctx.likelihoodOptions();
    lk.numThreads = fitThreads;
    if (ckpt == nullptr) {
      fits[t] = fitHypothesis(ctx, h, ctx.options(), lk,
                              ctx.cacheShard(AnalysisContext::shardSlot(h)));
      return;
    }
    const std::string key = fitTaskKey(g, names_[g], h);
    if (auto done = ckpt->completedFit(key)) {
      // Already finished by the run this checkpoint came from: skip the
      // fit, keep the recorded result (provenance filled in by the manager).
      fits[t] = std::move(*done);
      return;
    }
    FitCheckpointHooks hooks;
    hooks.sink = ckpt->fitSink(key);
    hooks.resumeFrom = ckpt->inFlightState(key);
    if (hooks.resumeFrom) hooks.resumedFromPath = ckpt->path();
    fits[t] = fitHypothesis(ctx, h, ctx.options(), lk,
                            ctx.cacheShard(AnalysisContext::shardSlot(h)),
                            &hooks);
    // A cancelled fit is an *interrupted* trajectory, not a finished one —
    // recording it complete would make a later resume skip the rest of the
    // optimization.  Flush instead so the last in-flight snapshot is on disk.
    if (fits[t].cancelled)
      ckpt->flush();
    else
      ckpt->recordCompleted(key, fits[t]);
  });

  // Phase 2: the N site scans at the H1 maxima, each warm-starting from its
  // gene's H1 shard.
  const int scanThreads = scheduler.taskThreads(n, policy);
  std::vector<lik::SiteClassPosteriors> posteriors(n);
  std::vector<lik::EvalCounters> scanCounters(n);
  scheduler.run(n, policy, [&](int g) {
    // No scan for a cancelled H1 fit: posteriors at a truncated point are
    // not meaningful, and skipping them lets SIGTERM/drain exit promptly.
    if (fits[2 * g + 1].cancelled) return;
    const auto& ctx = *contexts_[g];
    // The branch model has no site mixture — nothing to scan.
    if (!ctx.options().modelSpec.hasSiteMixture()) return;
    lik::LikelihoodOptions lk = ctx.likelihoodOptions();
    lk.numThreads = scanThreads;
    posteriors[g] = siteScanAtFit(
        ctx, fits[2 * g + 1], lk,
        ctx.cacheShard(AnalysisContext::shardSlot(Hypothesis::H1)),
        scanCounters[g]);
  });

  // Assembly + deterministic counter merge, strictly in gene order.
  std::vector<PositiveSelectionTest> tests;
  tests.reserve(n);
  for (int g = 0; g < n; ++g) {
    const double df =
        contexts_[g]->options().modelSpec.lrtDegreesOfFreedom();
    tests.push_back(makePositiveSelectionTest(
        std::move(fits[2 * g]), std::move(fits[2 * g + 1]),
        std::move(posteriors[g]), scanCounters[g], df));
    totals_ += tests.back().counters;
  }

  lastRun_.taskLevel = scheduler.useTaskLevel(numFitTasks, policy);
  lastRun_.workers = scheduler.numWorkers();
  lastRun_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return tests;
}

}  // namespace slim::core
