#include "valid/study.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <sstream>

#include "bio/genetic_code.hpp"
#include "core/checkpoint.hpp"
#include "model/model_spec.hpp"
#include "seqio/alignment.hpp"
#include "sim/datasets.hpp"
#include "sim/evolver.hpp"
#include "sim/random_tree.hpp"
#include "support/json.hpp"
#include "support/require.hpp"

namespace slim::valid {

namespace {

using support::jsonNumber;
using support::jsonString;

/// FNV-1a over bytes; doubles go through hexDouble so the hash covers the
/// exact bits, not a rounded decimal rendering.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;  // field separator
  }
  void num(std::uint64_t v) { bytes(std::to_string(v)); }
  void real(double v) { bytes(core::hexDouble(v)); }
};

/// The spec a scenario is fitted under: replicate trees carry branch
/// classes {0, 1}, so the branch-class kinds are two-class.
model::ModelSpec scenarioModelSpec(model::ModelKind kind) {
  switch (kind) {
    case model::ModelKind::Branch: return model::ModelSpec::branch(2);
    case model::ModelKind::CladeC: return model::ModelSpec::cladeC(2);
    case model::ModelKind::Site: return model::ModelSpec::site();
    case model::ModelKind::BranchSite: break;
  }
  return model::ModelSpec::branchSite();
}

}  // namespace

StudySpec defaultStudySpec() {
  StudySpec spec;
  const auto truth = sim::defaultSimulationParams();
  ScenarioSpec null;
  null.name = "null";
  null.positive = false;
  null.params = truth;  // omega2 is ignored under H0 simulation
  ScenarioSpec positive;
  positive.name = "positive";
  positive.positive = true;
  positive.params = truth;
  spec.scenarios = {null, positive};
  return spec;
}

std::uint64_t replicateSeed(std::uint64_t base, int scenarioIndex,
                            int replicate) {
  // Simple arithmetic derivation (not order-dependent); xoshiro's splitmix64
  // seeding decorrelates nearby seeds, the same scheme the batch jitter and
  // test fixtures rely on.  Kept below 2^53 contributions so the seed also
  // survives a JSON number round-trip exactly.
  return base + 1000003ull * static_cast<std::uint64_t>(scenarioIndex) +
         static_cast<std::uint64_t>(replicate);
}

SimulatedGene simulateGene(const StudySpec& spec, int scenarioIndex,
                           int replicate) {
  const ScenarioSpec& scenario = spec.scenarios.at(scenarioIndex);
  sim::Rng rng(replicateSeed(spec.seed, scenarioIndex, replicate));

  SimulatedGene gene;
  gene.name = scenario.name + "-r" + std::to_string(replicate);

  tree::Tree tree = sim::yuleTree(spec.numSpecies, rng);
  sim::pickForegroundBranch(tree, rng);

  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), /*alpha=*/5, rng);
  sim::SimulatedAlignment simulated;
  if (scenario.modelKind == model::ModelKind::BranchSite) {
    simulated = sim::evolveBranchSite(
        gc, tree, scenario.params,
        scenario.positive ? model::Hypothesis::H1 : model::Hypothesis::H0,
        spec.numCodons, pi, rng);
  } else {
    // Branch / clade-c truth: classOmegas gives one omega per branch class
    // of the replicate tree (classes {0, 1} — pickForegroundBranch marks
    // exactly one class-1 branch).  Site truth: M2a when positive, else M1a.
    const model::ModelSpec fitSpec = scenarioModelSpec(scenario.modelKind);
    SLIM_REQUIRE(fitSpec.numClassOmegaParams(model::Hypothesis::H1) == 0 ||
                     !scenario.classOmegas.empty(),
                 "scenario '" + scenario.name +
                     "': classOmegas is required for model '" +
                     model::modelKindName(scenario.modelKind) + "'");
    const model::MixtureSpec mix = fitSpec.mixtureAt(
        gc, pi, scenario.params, scenario.classOmegas,
        scenario.positive ? model::Hypothesis::H1 : model::Hypothesis::H0);
    simulated = sim::evolveMixture(gc, tree, mix, spec.numCodons, pi, rng);
  }

  gene.codons = seqio::encodeCodons(simulated.alignment, gc);
  gene.tree = std::make_shared<const tree::Tree>(std::move(tree));
  return gene;
}

std::uint64_t studyConfigHash(const StudySpec& spec) {
  Fnv f;
  f.bytes("slimcodeml-validate-v1");
  f.bytes(core::engineName(spec.engine));
  f.num(static_cast<std::uint64_t>(spec.replicates));
  f.num(static_cast<std::uint64_t>(spec.numSpecies));
  f.num(static_cast<std::uint64_t>(spec.numCodons));
  f.num(spec.seed);
  for (const auto& s : spec.scenarios) {
    f.bytes(s.name);
    f.num(s.positive ? 1 : 0);
    f.real(s.params.kappa);
    f.real(s.params.omega0);
    f.real(s.params.omega2);
    f.real(s.params.p0);
    f.real(s.params.p1);
    // Appended only for non-branch-site scenarios, so every pre-existing
    // branch-site study hash (and its checkpoints) stays valid.
    if (s.modelKind != model::ModelKind::BranchSite || !s.classOmegas.empty()) {
      f.bytes(model::modelKindName(s.modelKind));
      f.num(s.classOmegas.size());
      for (const double w : s.classOmegas) f.real(w);
    }
  }
  const core::FitOptions& fit = spec.fit;
  f.num(static_cast<std::uint64_t>(fit.frequencyModel));
  f.num(static_cast<std::uint64_t>(fit.bfgs.maxIterations));
  f.real(fit.initialParams.kappa);
  f.real(fit.initialParams.omega0);
  f.real(fit.initialParams.omega2);
  f.real(fit.initialParams.p0);
  f.real(fit.initialParams.p1);
  f.num(fit.useTreeBranchLengths ? 1 : 0);
  f.real(fit.initialBranchLength);
  f.num(fit.startJitterSeed);
  f.bytes(core::gradientModeName(fit.tuning.gradient));
  for (const double a : spec.alphas) f.real(a);
  return f.h;
}

StudyResult runStudy(const StudySpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  StudyResult result;

  // --- simulate, scenario-major, serially (fixed replicate seeds) ---
  core::BatchOptions options;
  options.fit = spec.fit;
  options.checkpoint = spec.checkpoint;
  core::BatchAnalysis batch(spec.engine, options);
  struct GeneLabel {
    int scenario;
    int replicate;
    std::uint64_t seed;
  };
  std::vector<GeneLabel> labels;
  for (int s = 0; s < static_cast<int>(spec.scenarios.size()); ++s) {
    // Fit each scenario under its own model family.
    core::FitOptions scenarioFit = spec.fit;
    scenarioFit.modelSpec = scenarioModelSpec(spec.scenarios[s].modelKind);
    for (int r = 0; r < spec.replicates; ++r) {
      SimulatedGene gene = simulateGene(spec, s, r);
      batch.addGene(gene.codons, gene.tree, scenarioFit, gene.name);
      labels.push_back({s, r, replicateSeed(spec.seed, s, r)});
    }
  }

  // --- fit (BatchAnalysis: bit-identical across workers/policies) ---
  result.tests = batch.runAll();
  result.info = batch.lastRun();

  // --- aggregate, in registration order ---
  result.table.reserve(result.tests.size());
  for (std::size_t g = 0; g < result.tests.size(); ++g) {
    const auto& scenario = spec.scenarios[labels[g].scenario];
    const auto& lrt = result.tests[g].lrt;
    ReplicateResult row;
    row.scenario = scenario.name;
    row.replicate = labels[g].replicate;
    row.seed = labels[g].seed;
    row.positive = scenario.positive;
    row.lnL0 = lrt.lnL0;
    row.lnL1 = lrt.lnL1;
    row.statistic = lrt.statistic;
    row.pChi2 = lrt.pChi2;
    row.pMixture = lrt.pMixture;
    result.table.push_back(std::move(row));
  }

  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    ScenarioSummary summary;
    summary.name = spec.scenarios[s].name;
    summary.positive = spec.scenarios[s].positive;
    summary.replicates = spec.replicates;
    summary.rejections.assign(spec.alphas.size(), 0);
    for (std::size_t g = 0; g < result.table.size(); ++g) {
      if (labels[g].scenario != static_cast<int>(s)) continue;
      for (std::size_t a = 0; a < spec.alphas.size(); ++a)
        if (result.tests[g].lrt.significantAt(spec.alphas[a]))
          ++summary.rejections[a];
    }
    result.summaries.push_back(std::move(summary));
  }

  // --- ROC and Mann-Whitney AUC over pChi2 (smaller p = more evidence) ---
  std::vector<double> pNull, pPositive;
  for (const auto& row : result.table)
    (row.positive ? pPositive : pNull).push_back(row.pChi2);
  if (!pNull.empty() && !pPositive.empty()) {
    std::vector<double> thresholds;
    for (const auto& row : result.table) thresholds.push_back(row.pChi2);
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    for (const double t : thresholds) {
      RocPoint point;
      point.threshold = t;
      point.fpr = static_cast<double>(std::count_if(
                      pNull.begin(), pNull.end(),
                      [t](double p) { return p <= t; })) /
                  pNull.size();
      point.tpr = static_cast<double>(std::count_if(
                      pPositive.begin(), pPositive.end(),
                      [t](double p) { return p <= t; })) /
                  pPositive.size();
      result.roc.push_back(point);
    }
    double u = 0;
    for (const double pp : pPositive)
      for (const double pn : pNull)
        u += pp < pn ? 1.0 : pp == pn ? 0.5 : 0.0;
    result.auc = u / (static_cast<double>(pPositive.size()) * pNull.size());
  }

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void writeJsonStudyReport(std::ostream& out, const StudySpec& spec,
                          const StudyResult& result, bool includeRunInfo) {
  out << "{\n  \"schema\": \"slimcodeml-validate-v1\",\n";
  out << "  \"spec\": {\n";
  out << "    \"engine\": ";
  jsonString(out, core::engineName(spec.engine));
  out << ",\n    \"replicates\": " << spec.replicates;
  out << ",\n    \"numSpecies\": " << spec.numSpecies;
  out << ",\n    \"numCodons\": " << spec.numCodons;
  out << ",\n    \"seed\": " << spec.seed;
  out << ",\n    \"maxIterations\": " << spec.fit.bfgs.maxIterations;
  out << ",\n    \"alphas\": [";
  for (std::size_t a = 0; a < spec.alphas.size(); ++a) {
    if (a) out << ", ";
    jsonNumber(out, spec.alphas[a]);
  }
  out << "]\n  },\n";

  out << "  \"scenarios\": [\n";
  for (std::size_t s = 0; s < result.summaries.size(); ++s) {
    const auto& summary = result.summaries[s];
    out << "    {\"name\": ";
    jsonString(out, summary.name);
    out << ", \"truth\": ";
    jsonString(out, summary.positive ? "positive" : "null");
    out << ", \"replicates\": " << summary.replicates;
    out << ", \"rejections\": [";
    for (std::size_t a = 0; a < summary.rejections.size(); ++a) {
      if (a) out << ", ";
      out << summary.rejections[a];
    }
    out << "], \"rates\": [";
    for (std::size_t a = 0; a < summary.rejections.size(); ++a) {
      if (a) out << ", ";
      jsonNumber(out, summary.replicates > 0
                          ? static_cast<double>(summary.rejections[a]) /
                                summary.replicates
                          : 0.0);
    }
    out << "]}" << (s + 1 < result.summaries.size() ? "," : "") << '\n';
  }
  out << "  ],\n";

  out << "  \"replicates\": [\n";
  for (std::size_t g = 0; g < result.table.size(); ++g) {
    const auto& row = result.table[g];
    out << "    {\"scenario\": ";
    jsonString(out, row.scenario);
    out << ", \"replicate\": " << row.replicate;
    out << ", \"seed\": " << row.seed;
    out << ", \"truth\": ";
    jsonString(out, row.positive ? "positive" : "null");
    out << ", \"lnL0\": ";
    jsonNumber(out, row.lnL0);
    out << ", \"lnL1\": ";
    jsonNumber(out, row.lnL1);
    out << ", \"statistic\": ";
    jsonNumber(out, row.statistic);
    out << ", \"pChi2\": ";
    jsonNumber(out, row.pChi2);
    out << ", \"pMixture\": ";
    jsonNumber(out, row.pMixture);
    out << "}" << (g + 1 < result.table.size() ? "," : "") << '\n';
  }
  out << "  ],\n";

  out << "  \"roc\": [\n";
  for (std::size_t i = 0; i < result.roc.size(); ++i) {
    const auto& point = result.roc[i];
    out << "    {\"threshold\": ";
    jsonNumber(out, point.threshold);
    out << ", \"fpr\": ";
    jsonNumber(out, point.fpr);
    out << ", \"tpr\": ";
    jsonNumber(out, point.tpr);
    out << "}" << (i + 1 < result.roc.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"auc\": ";
  jsonNumber(out, result.auc);
  if (includeRunInfo) {
    out << ",\n  \"batch\": {\"workers\": " << result.info.workers
        << ", \"taskLevel\": " << (result.info.taskLevel ? "true" : "false")
        << ", \"seconds\": ";
    jsonNumber(out, result.seconds);
    out << "}";
  }
  out << "\n}\n";
}

std::string studyReportJson(const StudySpec& spec, const StudyResult& result,
                            bool includeRunInfo) {
  std::ostringstream os;
  writeJsonStudyReport(os, spec, result, includeRunInfo);
  return os.str();
}

}  // namespace slim::valid
