#include "traced_run.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "backend/compute_backend.hpp"
#include "core/analysis.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/scan.hpp"
#include "expm/codon_eigen_system.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/branch_site.hpp"
#include "sim/datasets.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "tree/branch_classes.hpp"

namespace e2ebench {
namespace {

using namespace slim;
using Clock = std::chrono::steady_clock;
using model::Hypothesis;

// timeSetup: after kSetupWarmupSeconds of untimed passes, kSetupSamples
// samples, each the mean of the set-up passes made in kSetupSampleSeconds
// (one pass can take well under a millisecond).
constexpr double kSetupWarmupSeconds = 0.1;
constexpr int kSetupSamples = 5;
constexpr double kSetupSampleSeconds = 0.04;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run f, add its wall time to `acc`, return f's result.
template <class F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += secondsSince(t0);
  } else {
    auto r = f();
    acc += secondsSince(t0);
    return r;
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// A JSON object written member by member; keys, strings and numbers go
/// through support/json.hpp.
class JsonObject {
 public:
  explicit JsonObject(std::ostream& os) : os_(os) { os_ << '{'; }
  void close() { os_ << '}'; }
  /// Writes `"k":` and returns the stream for the member's value.
  std::ostream& key(std::string_view k) {
    if (!first_) os_ << ',';
    first_ = false;
    support::jsonString(os_, k);
    return os_ << ':';
  }
  void num(std::string_view k, double v) { support::jsonNumber(key(k), v); }
  void str(std::string_view k, std::string_view v) {
    support::jsonString(key(k), v);
  }
  void list(std::string_view k, const std::vector<double>& v) {
    auto& os = key(k);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ',';
      support::jsonNumber(os, v[i]);
    }
    os << ']';
  }
  /// A nested object member; close() it before the next member.
  JsonObject object(std::string_view k) { return JsonObject(key(k)); }

 private:
  std::ostream& os_;
  bool first_ = true;
};

/// "dir/gene-007.fasta" -> "gene-007": the gene label the CLI reports.
std::string fileStem(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

/// Set-up timings of one pass (seconds).
struct SetupTimes {
  double parse = 0, load = 0, context = 0, checkpoint = 0;
  double total() const { return parse + load + context + checkpoint; }
};

/// A workload after the CLI's set-up calls: the parsed config and either
/// the single-gene analysis or the batch / scan, ready to run.
struct Prepared {
  core::Config config;
  bool batchPath = false;
  std::unique_ptr<core::BranchSiteAnalysis> single;
  std::unique_ptr<core::CheckpointManager> checkpoint;
  std::unique_ptr<core::BatchAnalysis> batch;
  std::unique_ptr<core::ScanAnalysis> scan;
  std::vector<std::string> names;  ///< Task names in result order.
  SetupTimes times;

  const core::BatchAnalysis& batchAnalysis() const {
    return scan ? scan->batch() : *batch;
  }
  std::size_t numTasks() const {
    return batchPath ? batchAnalysis().numGenes() : 1;
  }
  const core::AnalysisContext& context(std::size_t task) const {
    return batchPath ? batchAnalysis().context(static_cast<int>(task))
                     : single->context();
  }
};

/// The set-up calls of slimcodeml_main's runFromConfig / runBatchFromConfig
/// for `ctl`, timed per layer.  `checkpointPrefix` renames the checkpoint
/// file, so the CLI's own stays untouched.
Prepared prepare(const std::string& ctl, const std::string& checkpointPrefix) {
  Prepared p;
  p.config = timed(p.times.parse, [&] {
    auto c = core::resolveTuningProfile(core::Config::parseFile(ctl));
    // slimcodeml_main polls its SIGTERM flag through this predicate.
    c.fit.bfgs.cancel = [] { return false; };
    return c;
  });
  auto& config = p.config;
  if (config.analysis == core::AnalysisKind::Site || config.timeoutSec > 0)
    throw std::invalid_argument(
        "workload control files run the branch-classification models "
        "without a timeout");
  p.batchPath = config.seqfiles.size() > 1 || !config.foreground.empty();

  if (!p.batchPath) {
    const auto codons = timed(p.times.load, [&] {
      return core::loadAlignmentFile(config.seqfile,
                                     config.stopCodonsAsMissing);
    });
    const auto tree =
        timed(p.times.load, [&] { return core::loadTreeFile(config.treefile); });
    timed(p.times.context, [&] {
      config.fit.modelSpec =
          core::modelSpecFor(config.analysis, tree::numBranchClasses(tree));
      p.single = std::make_unique<core::BranchSiteAnalysis>(
          codons, tree, config.engine, config.fit);
    });
    p.names.push_back(fileStem(config.seqfile));
    return p;
  }

  const auto tree = timed(p.times.load, [&] {
    return std::make_shared<const tree::Tree>(
        core::loadTreeFile(config.treefile));
  });
  core::BatchOptions options;
  if (!config.checkpointPath.empty()) {
    timed(p.times.checkpoint, [&] {
      p.checkpoint = core::CheckpointManager::open(
          checkpointPrefix + config.checkpointPath, config.checkpointEverySec,
          core::checkpointConfigHash(config), false);
    });
  }
  options.fit = config.fit;
  options.checkpoint = p.checkpoint.get();
  if (!config.foreground.empty()) {
    timed(p.times.context, [&] {
      config.fit.modelSpec = core::modelSpecFor(config.analysis, 2);
      options.fit.modelSpec = config.fit.modelSpec;
      p.scan = std::make_unique<core::ScanAnalysis>(
          config.engine, *tree, config.foreground, options);
    });
    for (const auto& path : config.seqfiles) {
      const auto codons = timed(p.times.load, [&] {
        return core::loadAlignmentFile(path, config.stopCodonsAsMissing);
      });
      timed(p.times.context,
            [&] { p.scan->addGene(codons, config.fit, fileStem(path)); });
    }
    p.names = p.scan->taskNames();
  } else {
    timed(p.times.context, [&] {
      config.fit.modelSpec = core::modelSpecFor(
          config.analysis, tree::numBranchClasses(*tree));
      options.fit.modelSpec = config.fit.modelSpec;
      p.batch = std::make_unique<core::BatchAnalysis>(config.engine, options);
    });
    for (const auto& path : config.seqfiles) {
      p.names.push_back(fileStem(path));
      const auto codons = timed(p.times.load, [&] {
        return core::loadAlignmentFile(path, config.stopCodonsAsMissing);
      });
      timed(p.times.context, [&] {
        p.batch->addGene(codons, tree, config.fit, p.names.back());
      });
    }
  }
  return p;
}

std::size_t totalPatterns(const Prepared& p) {
  // A scan's tasks are gene-major and share each gene's patterns.
  const std::size_t stride = p.scan ? p.scan->numSets() : 1;
  std::size_t n = 0;
  for (std::size_t t = 0; t < p.numTasks(); t += stride)
    n += p.context(t).patterns().numPatterns();
  return n;
}

/// The truth the workload's gene `task` was simulated under.
model::BranchSiteParams truthParams(const WorkloadSpec& spec,
                                    const Prepared& p, std::size_t task) {
  const std::size_t gene = p.scan ? task / p.scan->numSets() : task;
  auto params = sim::defaultSimulationParams();
  params.omega2 = spec.genes.at(gene).omega2;
  return params;
}

/// An evaluator over the context's data; `lengths` (post-order, as in
/// FitResult) replaces the tree's branch lengths when non-null.
std::unique_ptr<lik::BranchSiteLikelihood> evaluatorAt(
    const core::AnalysisContext& ctx, Hypothesis h,
    const lik::LikelihoodOptions& options, const std::vector<double>* lengths) {
  auto e = std::make_unique<lik::BranchSiteLikelihood>(
      ctx.alignment(), ctx.patterns(), ctx.pi(), ctx.tree(), h, options);
  if (lengths) {
    if (lengths->size() != static_cast<std::size_t>(e->numBranches()))
      throw std::runtime_error("fit has the wrong number of branch lengths");
    for (int k = 0; k < e->numBranches(); ++k)
      e->setBranchLength(k, (*lengths)[k]);
  }
  return e;
}

/// Branch lengths of truth.nwk in the evaluators' branch order.  It has the
/// input tree's topology, written by the same generator, so the two parse
/// into the same node order; the leaf labels are checked to be sure.
std::vector<double> truthBranchLengths(const tree::Tree& input) {
  const auto truth = core::loadTreeFile("truth.nwk");
  const auto nodes = truth.branches();
  const auto inputNodes = input.branches();
  if (nodes.size() != inputNodes.size())
    throw std::runtime_error("truth.nwk and the input tree differ in size");
  std::vector<double> lengths;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    if (truth.node(nodes[k]).label != input.node(inputNodes[k]).label)
      throw std::runtime_error("truth.nwk and the input tree differ");
    lengths.push_back(truth.branchLength(nodes[k]));
  }
  return lengths;
}

/// lnL of both hypotheses under the simulation's parameters, on the
/// simulation's branch lengths (truth) and on the input tree's (input).
struct ReferenceLnL {
  double truth0 = 0, truth1 = 0, input0 = 0, input1 = 0;
};

ReferenceLnL referenceLnL(const WorkloadSpec& spec, const Prepared& p,
                          std::size_t task,
                          const std::vector<double>& truthLengths) {
  const auto& ctx = p.context(task);
  auto options = ctx.likelihoodOptions();
  options.numThreads = 1;
  const auto params = truthParams(spec, p, task);
  const auto at = [&](Hypothesis h, const std::vector<double>* lengths) {
    return evaluatorAt(ctx, h, options, lengths)->logLikelihood(params);
  };
  return {at(Hypothesis::H0, &truthLengths), at(Hypothesis::H1, &truthLengths),
          at(Hypothesis::H0, nullptr), at(Hypothesis::H1, nullptr)};
}

/// |lnL(codeml preset) - reported lnL| at a fit's MLE; `ms` receives the
/// oracle evaluation's wall time.
double oracleDiff(const core::AnalysisContext& ctx, const core::FitResult& fit,
                  double* ms = nullptr) {
  if (fit.modelKind != model::ModelKind::BranchSite)
    throw std::runtime_error("the oracle check covers branch-site A fits");
  auto e = evaluatorAt(ctx, fit.hypothesis, lik::codemlBaselineOptions(),
                       &fit.branchLengths);
  double s = 0;
  const double lnL = timed(s, [&] { return e->logLikelihood(fit.params); });
  if (ms) *ms = 1e3 * s;
  return std::abs(lnL - fit.lnL);
}

void writeReferences(JsonObject& json, const WorkloadSpec& spec,
                     const Prepared& p) {
  const auto truthLengths = truthBranchLengths(p.context(0).tree());
  auto all = json.object("reference");
  for (std::size_t t = 0; t < p.numTasks(); ++t) {
    const auto r = referenceLnL(spec, p, t, truthLengths);
    auto task = all.object(p.names[t]);
    task.num("truth0", r.truth0);
    task.num("truth1", r.truth1);
    task.num("input0", r.input0);
    task.num("input1", r.input1);
    task.close();
  }
  all.close();
}

/// Per-call costs replayed at one task's H1 MLE (milliseconds, warm
/// propagator cache, so evaluations time the pruning sweep alone).
struct Replay {
  double evalWorkers = 0;  ///< logLikelihood on all the run's workers
  double eval1t = 0;       ///< logLikelihood on one thread
  double sweepFit = 0;     ///< gradientBranchesAtLastEvaluation, fit threads
  double buildsPerSweep = 0;
  double evalFit(int fitThreads) const {
    return fitThreads == 1 ? eval1t : evalWorkers;
  }
};

Replay replayAt(const core::AnalysisContext& ctx, const core::FitResult& h1,
                int workers, int fitThreads, int reps) {
  Replay r;
  auto options = ctx.likelihoodOptions();
  const auto evalMs = [&](int threads) {
    options.numThreads = threads;
    auto e = evaluatorAt(ctx, Hypothesis::H1, options, &h1.branchLengths);
    std::vector<double> grad(e->numBranches());
    e->logLikelihood(h1.params);  // builds every propagator once
    std::vector<double> evals, sweeps;
    for (int i = 0; i < reps; ++i) {
      double s = 0;
      timed(s, [&] { e->logLikelihood(h1.params); });
      evals.push_back(1e3 * s);
      if (threads != fitThreads) continue;
      const auto before = e->counters().propagatorBuilds;
      s = 0;
      timed(s, [&] { e->gradientBranchesAtLastEvaluation(grad); });
      sweeps.push_back(1e3 * s);
      r.buildsPerSweep = double(e->counters().propagatorBuilds - before);
    }
    if (threads == fitThreads) r.sweepFit = median(sweeps);
    return median(evals);
  };
  r.evalWorkers = evalMs(workers);
  r.eval1t = workers == 1 ? r.evalWorkers : evalMs(1);
  return r;
}

/// One CodonEigenSystem construction (averaged over the model's omega
/// classes, as an evaluation builds one per class) and one SIMD
/// transitionMatrix call at a fit's MLE (microseconds, medians).
std::pair<double, double> expmCallCosts(const core::AnalysisContext& ctx,
                                        const core::FitResult& h1) {
  const auto& gc = *ctx.alignment().code;
  const auto qset =
      model::buildBranchSiteQSet(gc, ctx.pi(), h1.params, Hypothesis::H1);
  std::vector<double> eig, prop;
  for (int i = 0; i < 15; ++i) {
    double s = 0;
    timed(s, [&] {
      for (const auto& S : qset.scaledS) expm::CodonEigenSystem es(S, ctx.pi());
    });
    eig.push_back(1e6 * s / qset.scaledS.size());
  }
  const auto& S = qset.scaledS.back();
  const expm::CodonEigenSystem es(S, ctx.pi());
  const auto options = ctx.likelihoodOptions();
  const auto level = linalg::resolveSimdLevel(options.simd);
  const auto backend = backend::computeBackend(
      backend::resolveBackendKind(options.backend, level), level);
  expm::ExpmWorkspace ws;
  linalg::Matrix p(es.n(), es.n());
  const double t = median(h1.branchLengths);
  es.transitionMatrix(t, options.reconstruction, backend.ops, ws, p);
  for (int i = 0; i < 40; ++i) {
    double s = 0;
    timed(s, [&] {
      es.transitionMatrix(t, options.reconstruction, backend.ops, ws, p);
    });
    prop.push_back(1e6 * s);
  }
  return {median(eig), median(prop)};
}

/// The CLI's report emission (text report, then the JSON report next to
/// it), to "trace_"-prefixed files.  Returns the bytes written.
std::size_t writeReports(const Prepared& p,
                         const std::vector<core::PositiveSelectionTest>& tests,
                         const lik::EvalCounters& totals,
                         const core::BatchRunInfo& info) {
  const auto& config = p.config;
  const std::string outfile = "trace_" + config.outfile;
  std::ostringstream text, json;
  if (!p.batchPath) {
    core::writeTestReport(text, tests.front(), config.engine);
    core::writeJsonTestReport(json, tests.front(), config.engine);
  } else {
    for (std::size_t g = 0; g < tests.size(); ++g) {
      text << "=== gene " << p.names[g] << " ===\n";
      core::writeTestReport(text, tests[g], config.engine);
      text << '\n';
    }
    core::writeBatchSummary(text, tests, p.names, config.engine, totals, info);
    core::writeJsonBatchReport(json, tests, p.names, config.engine, totals,
                               info);
  }
  support::writeFileAtomic(outfile, text.str());
  support::writeFileAtomic(outfile + ".json", json.str());
  return text.str().size() + json.str().size();
}

}  // namespace

void timeSetup(const std::string& ctl, std::ostream& out) {
  // Untimed passes first, so that the samples see warm caches.
  const auto warm = Clock::now();
  while (secondsSince(warm) < kSetupWarmupSeconds) prepare(ctl, "setup_");
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    double sum = 0;
    int passes = 0;
    while (secondsSince(t0) < kSetupSampleSeconds) {
      sum += prepare(ctl, "setup_").times.total();
      ++passes;
    }
    samples.push_back(sum / passes);
  }
  JsonObject json(out);
  json.list("setup_s", samples);
  json.close();
  out << '\n';
}

void checkPass(const WorkloadSpec& spec, const std::string& ctl,
               std::ostream& out) {
  const Prepared p = prepare(ctl, "setup_");
  JsonObject json(out);
  writeReferences(json, spec, p);

  const auto& checkpoint = p.config.checkpointPath;
  if (!checkpoint.empty()) {
    // Every task's completed fits, keyed as the batch layer keys them.
    const auto ckpt = core::Checkpoint::load(checkpoint);
    auto all = json.object("checkpoint");
    for (std::size_t t = 0; t < p.numTasks(); ++t) {
      auto task = all.object(p.names[t]);
      for (const auto h : {Hypothesis::H0, Hypothesis::H1}) {
        const auto it = ckpt.completed.find(
            core::fitTaskKey(static_cast<int>(t), p.names[t], h));
        if (it == ckpt.completed.end()) continue;
        const std::string tag = model::hypothesisName(h);
        task.str("lnL" + tag.substr(1) + "_hex", hexDouble(it->second.lnL));
        task.num("oracle" + tag.substr(1), oracleDiff(p.context(t), it->second));
      }
      task.close();
    }
    all.close();
  }
  json.close();
  out << '\n';
}

void tracedRun(const std::string& ctl, std::ostream& out) {
  // --- the CLI's calls, each timed ---
  const auto t0 = Clock::now();
  Prepared p = prepare(ctl, "trace_");
  double fitH0 = 0, fitH1 = 0, siteScan = 0, runAll = 0, reportS = 0;
  std::vector<core::PositiveSelectionTest> tests;
  lik::EvalCounters totals;
  core::BatchRunInfo info;
  int fitThreads = 1;
  if (!p.batchPath) {
    const auto& ctx = p.single->context();
    const auto lk = ctx.likelihoodOptions();
    const auto fit = [&](Hypothesis h) {
      return core::fitHypothesis(
          ctx, h, ctx.options(), lk,
          ctx.cacheShard(core::AnalysisContext::shardSlot(h)));
    };
    auto h0 = timed(fitH0, [&] { return fit(Hypothesis::H0); });
    auto h1 = timed(fitH1, [&] { return fit(Hypothesis::H1); });
    lik::EvalCounters scanCounters;
    const auto posteriors = timed(siteScan, [&] {
      return core::siteScanAtFit(
          ctx, h1, lk, ctx.cacheShard(core::AnalysisContext::shardSlot(
                           Hypothesis::H1)),
          scanCounters);
    });
    tests.push_back(core::makePositiveSelectionTest(
        std::move(h0), std::move(h1), posteriors, scanCounters,
        ctx.options().modelSpec.lrtDegreesOfFreedom()));
    totals = tests.front().counters;
    // A single test runs both fits on one pattern-parallel evaluator.
    fitThreads = std::max(1, lk.numThreads);
    info.workers = fitThreads;
  } else {
    tests = timed(runAll, [&] { return p.scan ? p.scan->runAll()
                                              : p.batch->runAll(); });
    totals = p.scan ? p.scan->totals() : p.batch->totals();
    info = p.scan ? p.scan->lastRun() : p.batch->lastRun();
    fitThreads = info.taskLevel ? 1 : info.workers;
  }
  const int workers = std::max(1, info.workers);
  const std::size_t reportBytes =
      timed(reportS, [&] { return writeReports(p, tests, totals, info); });
  const double tracedWall = secondsSince(t0);
  const double runS = p.batchPath ? runAll : fitH0 + fitH1 + siteScan;
  const double covered = p.times.total() + runS + reportS;

  // --- checkpoint: one explicit flush, and the file it leaves ---
  double flushS = 0, checkpointBytes = 0;
  if (p.checkpoint) {
    timed(flushS, [&] { p.checkpoint->flush(); });
    checkpointBytes = double(std::filesystem::file_size(p.checkpoint->path()));
  }

  // --- replays at each task's H1 MLE, oracle check of every fit ---
  double likBusy = 0, expmBuilds = 0, fitSeconds = 0, scanReplayS = 0;
  double maxOracle = 0, codemlMs = 0, longestFit = 0, busyWorkerS = 0;
  long iterations = 0, functionEvals = 0, probeEvals = 0, fitEvaluations = 0;
  int significant = 0, shortfalls = 0, refTask = 0;
  double maxShortfall = 0;
  for (std::size_t t = 0; t < tests.size(); ++t)
    if (p.context(t).patterns().numPatterns() >
        p.context(refTask).patterns().numPatterns())
      refTask = static_cast<int>(t);
  Replay ref;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const auto& test = tests[t];
    const auto& ctx = p.context(t);
    const Replay r = replayAt(ctx, test.h1, workers, fitThreads, 3);
    if (static_cast<int>(t) == refTask) ref = r;
    // FD probes run on single-threaded pool evaluators fanned fitThreads
    // wide (on the fit's own evaluator under task-level fan-out).
    for (const auto* fit : {&test.h0, &test.h1}) {
      likBusy += fit->functionEvaluations * r.evalFit(fitThreads) +
                 fit->gradientEvaluations * r.eval1t / fitThreads +
                 fit->counters.gradientSweeps * r.sweepFit;
      expmBuilds += std::max(
          0.0, fit->counters.propagatorBuilds -
                   fit->counters.gradientSweeps * r.buildsPerSweep);
      fitSeconds += fit->seconds;
      busyWorkerS += fit->seconds * fitThreads;
      longestFit = std::max(longestFit, fit->seconds);
      iterations += fit->iterations;
      functionEvals += fit->functionEvaluations;
      probeEvals += fit->gradientEvaluations;
      fitEvaluations += fit->counters.evaluations;
      double ms = 0;
      maxOracle = std::max(maxOracle, oracleDiff(ctx, *fit, &ms));
      if (static_cast<int>(t) == refTask && fit == &test.h1) codemlMs = ms;
    }
    if (p.batchPath) {
      // runAll's scan phase is not separately visible: replay it.
      auto lk = ctx.likelihoodOptions();
      lk.numThreads = fitThreads;
      lik::EvalCounters scratch;
      timed(scanReplayS, [&] {
        core::siteScanAtFit(ctx, test.h1, lk, nullptr, scratch);
      });
    }
    significant += test.lrt.significantAt(0.05);
    if (test.h1.lnL < test.h0.lnL) {
      ++shortfalls;
      maxShortfall = std::max(maxShortfall, test.h0.lnL - test.h1.lnL);
    }
  }
  likBusy *= 1e-3;
  const auto [eigenUs, propUs] =
      expmCallCosts(p.context(refTask), tests[refTask].h1);
  const double expmBusy =
      1e-6 * (totals.eigenDecompositions * eigenUs + expmBuilds * propUs);

  JsonObject json(out);
  json.num("traced_wall_s", tracedWall);
  json.num("oracle_max_abs_diff", maxOracle);
  auto all = json.object("tests");
  for (std::size_t t = 0; t < tests.size(); ++t) {
    auto task = all.object(p.names[t]);
    task.str("lnL0_hex", hexDouble(tests[t].h0.lnL));
    task.str("lnL1_hex", hexDouble(tests[t].h1.lnL));
    task.close();
  }
  all.close();
  auto m = json.object("layers");
  const double hits = double(totals.propagatorCacheHits);
  const double misses = double(totals.propagatorCacheMisses);
  m.num("seqio.load_s", p.times.load);
  m.num("seqio.patterns", double(totalPatterns(p)));
  m.num("core.context_s", p.times.context);
  m.num("expm.eigendecompositions", double(totals.eigenDecompositions));
  m.num("expm.propagator_builds", double(totals.propagatorBuilds));
  m.num("expm.eigen_us", eigenUs);
  m.num("expm.propagator_us", propUs);
  m.num("expm.busy_s_est", expmBusy);
  m.num("lik.evaluations", double(totals.evaluations));
  m.num("lik.gradient_sweeps", double(totals.gradientSweeps));
  m.num("lik.pattern_propagations", double(totals.patternPropagations));
  m.num("lik.eval_ms", ref.evalWorkers);
  m.num("lik.eval_ms_1t", ref.eval1t);
  m.num("lik.sweep_ms", ref.sweepFit);
  m.num("lik.thread_efficiency", ref.eval1t / (workers * ref.evalWorkers));
  m.num("lik.codeml_eval_ms", codemlMs);
  m.num("lik.codeml_speedup", codemlMs / ref.eval1t);
  m.num("lik.cache_hits", hits);
  m.num("lik.cache_misses", misses);
  m.num("lik.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  m.num("lik.busy_s_est", likBusy);
  m.num("opt.iterations", double(iterations));
  m.num("opt.function_evals", double(functionEvals));
  m.num("opt.fd_probe_evals", double(probeEvals));
  m.num("opt.fd_probe_share",
        fitEvaluations > 0 ? double(probeEvals) / fitEvaluations : 0);
  m.num("opt.other_s_est", fitSeconds - likBusy - expmBusy);
  m.num("core.fit_s", p.batchPath ? fitSeconds : fitH0 + fitH1);
  m.num("core.site_scan_s", p.batchPath ? scanReplayS : siteScan);
  m.num("core.run_s", runS);
  m.num("core.worker_busy_frac", busyWorkerS / (runS * workers));
  m.num("core.tail_share", longestFit / runS);
  m.num("core.task_level", info.taskLevel ? 1 : 0);
  m.num("core.checkpoint_bytes", checkpointBytes);
  m.num("core.checkpoint_flush_ms", 1e3 * flushS);
  m.num("core.report_s", reportS);
  m.num("core.report_bytes", double(reportBytes));
  m.num("stat.significant", significant);
  m.num("stat.nested_shortfalls", shortfalls);
  m.num("stat.max_nested_shortfall", maxShortfall);
  m.num("trace.coverage", covered / tracedWall);
  m.close();
  json.close();
  out << '\n';
}

}  // namespace e2ebench
