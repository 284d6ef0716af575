#pragma once
// Simulation-validation ("power") studies: the statistical acceptance test
// the runtime paper leaves implicit.  SlimCodeML's claim is bit-compatible
// branch-site inference at a fraction of CodeML's cost — this module checks
// the *inference* half end-to-end: simulate many alignments under known
// truth (null H0 data and genuine positive selection), run every one
// through the full batch H0/H1 LRT machinery, and report false-positive
// rates, power and an ROC over the LRT p-values.
//
// Determinism contract: for a fixed StudySpec the entire StudyResult —
// every lnL bit, every p-value, the ROC, the JSON report text — is
// identical for every worker count and ParallelPolicy.  Simulation is
// serial in a fixed scenario-major order with per-replicate derived seeds;
// the fits inherit core::BatchAnalysis's bit-identity guarantee; and the
// aggregation walks genes in registration order.  tests/validate_test.cpp
// pins this with EXPECT_EQ across thread counts.
//
// Studies checkpoint like any batch: hand runStudy a CheckpointManager and
// a killed study resumes, skipping completed fits (same fitTaskKey scheme).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"

namespace slim::valid {

/// One simulation condition of the study.
struct ScenarioSpec {
  std::string name;      ///< e.g. "null", "positive" (used in reports/keys)
  /// Truth: simulate under H1 (genuine positive selection, params.omega2
  /// applies) or under H0 (omega2 forced to 1 — null data; M1a for the
  /// site models).  For the branch-class kinds the truth is classOmegas
  /// itself; `positive` is only the ROC label.
  bool positive = false;
  model::BranchSiteParams params{};  ///< simulation truth parameters
  /// Which model family to simulate and fit.  BranchSite keeps the classic
  /// study bit-identical; Branch / CladeC simulate under classOmegas (one
  /// divergent/class omega per branch class of the replicate tree, which
  /// carries classes {0, 1}) and fit the matching two-class ModelSpec; Site
  /// simulates M2a (positive) or M1a from params and fits M1a vs M2a.
  model::ModelKind modelKind = model::ModelKind::BranchSite;
  std::vector<double> classOmegas;  ///< truth per branch class (non-branch-site)
};

struct StudySpec {
  std::vector<ScenarioSpec> scenarios;
  int replicates = 8;   ///< simulated genes per scenario
  int numSpecies = 6;   ///< taxa per replicate tree (fresh Yule tree each)
  int numCodons = 60;   ///< codon columns per alignment
  std::uint64_t seed = 20260807;  ///< base seed; replicates derive from it
  core::EngineKind engine = core::EngineKind::Slim;
  /// Per-gene fit options; `fit.tuning` also sizes the batch worker pool.
  core::FitOptions fit{};
  /// Rejection thresholds reported per scenario (ascending).
  std::vector<double> alphas = {0.01, 0.05, 0.10};
  /// Optional checkpoint coordinator (caller-owned; see core/checkpoint.hpp).
  core::CheckpointManager* checkpoint = nullptr;
};

/// The default two-condition study: a null scenario and a well-separated
/// positive-selection scenario (omega2 from defaultSimulationParams()).
StudySpec defaultStudySpec();

/// Per-replicate LRT outcome (the study's long table).
struct ReplicateResult {
  std::string scenario;
  int replicate = 0;
  std::uint64_t seed = 0;  ///< the derived simulation seed actually used
  bool positive = false;   ///< truth label (copied from the scenario)
  double lnL0 = 0;
  double lnL1 = 0;
  double statistic = 0;
  double pChi2 = 1;
  double pMixture = 1;
};

/// Rejection counts of one scenario at each spec.alphas threshold.  For a
/// null scenario rejections/replicates is the false-positive rate; for a
/// positive scenario it is the power.
struct ScenarioSummary {
  std::string name;
  bool positive = false;
  int replicates = 0;
  std::vector<int> rejections;  ///< parallel to StudySpec::alphas
};

/// One point of the ROC over pChi2 ("reject when p <= threshold").
struct RocPoint {
  double threshold = 0;
  double fpr = 0;
  double tpr = 0;
};

struct StudyResult {
  std::vector<ReplicateResult> table;  ///< scenario-major, replicate order
  std::vector<ScenarioSummary> summaries;
  std::vector<RocPoint> roc;  ///< at every distinct observed p, ascending
  /// Mann-Whitney AUC: P(p_positive < p_null) + 0.5 P(tie); 0 when either
  /// class is empty.
  double auc = 0;
  double seconds = 0;  ///< wall clock of the whole study
  core::BatchRunInfo info;  ///< how the fit phase actually ran
  /// Full per-gene test results, parallel to `table` (posteriors, counters,
  /// convergence — everything the summary rows compress away).
  std::vector<core::PositiveSelectionTest> tests;
};

/// The simulation seed of (scenarioIndex, replicate) under `base` — a pure
/// function of the indices, never of execution order.
std::uint64_t replicateSeed(std::uint64_t base, int scenarioIndex,
                            int replicate);

/// One simulated gene, ready for BatchAnalysis::addGene.
struct SimulatedGene {
  seqio::CodonAlignment codons;
  std::shared_ptr<const tree::Tree> tree;  ///< fresh Yule tree, #1 marked
  std::string name;  ///< "<scenario>-r<replicate>" (stable checkpoint keys)
};

/// Simulate the (scenarioIndex, replicate) gene of the study (exposed so
/// tests can reproduce any single replicate independently).
SimulatedGene simulateGene(const StudySpec& spec, int scenarioIndex,
                           int replicate);

/// Everything that shapes the study's *results* (scenarios, truth params,
/// shapes, seeds, engine, fit settings, alphas), hashed for checkpoint
/// binding — worker counts and policies are bit-neutral and excluded,
/// matching core::checkpointConfigHash's discipline.
std::uint64_t studyConfigHash(const StudySpec& spec);

/// Run the full study: simulate scenario-major, fit through
/// core::BatchAnalysis, aggregate in gene order.
StudyResult runStudy(const StudySpec& spec);

/// Machine-readable report ("schema": "slimcodeml-validate-v1").  The
/// statistical body (spec, scenarios, replicates, roc, auc) is a pure
/// function of the StudySpec — byte-identical across worker counts and
/// policies.  `includeRunInfo` appends the "batch" block (workers, wall
/// clock), which is *not* deterministic; pass false when diffing reports.
void writeJsonStudyReport(std::ostream& out, const StudySpec& spec,
                          const StudyResult& result,
                          bool includeRunInfo = true);
std::string studyReportJson(const StudySpec& spec, const StudyResult& result,
                            bool includeRunInfo = true);

}  // namespace slim::valid
