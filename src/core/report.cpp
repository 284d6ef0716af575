#include "core/report.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/json.hpp"
#include "support/require.hpp"

namespace slim::core {

void writeFitReport(std::ostream& os, const FitResult& fit) {
  os << "  " << model::hypothesisName(fit.hypothesis)
     << ": lnL = " << std::fixed << std::setprecision(6) << fit.lnL
     << std::defaultfloat << '\n'
     << "    kappa  = " << fit.params.kappa << '\n';
  // The branch model has no omega0 site class and no mixture proportions;
  // the other kinds keep the classic parameter block (byte-identical for
  // branch-site, whose classOmegas is always empty).
  if (fit.modelKind != model::ModelKind::Branch)
    os << "    omega0 = " << fit.params.omega0 << '\n';
  if (fit.modelKind == model::ModelKind::BranchSite) {
    if (fit.hypothesis == model::Hypothesis::H1)
      os << "    omega2 = " << fit.params.omega2 << '\n';
  } else {
    os << (fit.modelKind == model::ModelKind::CladeC
               ? "    divergent omegas ="
               : "    class omegas =");
    for (const double w : fit.classOmegas) os << ' ' << w;
    os << '\n';
  }
  if (fit.modelKind != model::ModelKind::Branch)
    os << "    p0 = " << fit.params.p0 << ", p1 = " << fit.params.p1 << '\n';
  os
     << "    iterations = " << fit.iterations
     << ", function evaluations = " << fit.functionEvaluations << " + "
     << fit.gradientEvaluations << " gradient ("
     << gradientModeName(fit.gradientMode) << ')'
     << (fit.cancelled
             ? " (cancelled)"
             : fit.converged ? " (converged)" : " (iteration cap reached)")
     << '\n'
     << "    wall time = " << std::setprecision(3) << fit.seconds
     << " s, simd = " << linalg::simdLevelName(fit.simd)
     << ", backend = " << backend::backendKindName(fit.backend);
  if (fit.expm == backend::ExpmAlgorithm::Adaptive)
    os << ", expm = adaptive";
  os << '\n';
  if (!fit.resumedFrom.empty())
    os << "    resumed from " << fit.resumedFrom << " ("
       << fit.iterationsReplayed << " iterations replayed)\n";
}

namespace {

// The nested model's fit ending above the larger model's is an optimizer
// stopping short; the LRT clamps its statistic to 0, and this line says so.
void writeNestedShortfall(std::ostream& os, const stat::LrtResult& lrt) {
  if (lrt.nestedShortfall > 0)
    os << "  warning: the larger model's lnL is " << std::setprecision(6)
       << lrt.nestedShortfall
       << " below the nested model's (nested shortfall); 2*dlnL is "
          "clamped to 0\n";
}

}  // namespace

void writeTestReport(std::ostream& os, const PositiveSelectionTest& test,
                     EngineKind engine, double siteThreshold) {
  const auto kind = test.h1.modelKind;
  if (kind == model::ModelKind::BranchSite)
    os << "Branch-site test for positive selection (" << engineName(engine)
       << " engine)\n";
  else if (kind == model::ModelKind::Branch)
    os << "Branch-model test, one omega per branch class ("
       << engineName(engine) << " engine)\n";
  else
    os << "Clade model C test vs M2a_rel (" << engineName(engine)
       << " engine)\n";
  writeFitReport(os, test.h0);
  writeFitReport(os, test.h1);
  os << "  LRT: 2*dlnL = " << std::setprecision(6) << test.lrt.statistic
     << ", p(chi2_" << static_cast<int>(test.lrt.df)
     << ") = " << test.lrt.pChi2;
  // The 50:50 mixture correction applies to the boundary case of the df = 1
  // branch-site test only.
  if (kind == model::ModelKind::BranchSite)
    os << ", p(mixture) = " << test.lrt.pMixture;
  os << '\n';
  writeNestedShortfall(os, test.lrt);
  if (test.lrt.significantAt(0.05))
    os << (kind == model::ModelKind::BranchSite
               ? "  => positive selection DETECTED on the foreground branch "
                 "(5% level)\n"
               : "  => branch-class omega heterogeneity DETECTED (5% "
                 "level)\n");
  else
    os << (kind == model::ModelKind::BranchSite
               ? "  => no significant evidence of positive selection (5% "
                 "level)\n"
               : "  => no significant branch-class omega heterogeneity (5% "
                 "level)\n");

  // The branch model has no site mixture — nothing to scan.
  if (kind == model::ModelKind::Branch) return;
  os << "  Sites with posterior P(positive selection) > " << siteThreshold
     << " (NEB):\n";
  bool any = false;
  const auto& bySite = test.posteriors.positiveSelectionBySite;
  for (std::size_t i = 0; i < bySite.size(); ++i) {
    if (bySite[i] > siteThreshold) {
      os << "    site " << (i + 1) << "  P = " << std::setprecision(4)
         << bySite[i] << '\n';
      any = true;
    }
  }
  if (!any) os << "    (none)\n";
}

std::string testReportString(const PositiveSelectionTest& test,
                             EngineKind engine, double siteThreshold) {
  std::ostringstream os;
  writeTestReport(os, test, engine, siteThreshold);
  return os.str();
}

namespace {

void writeSiteFit(std::ostream& os, const SiteModelFitResult& fit) {
  os << "  " << siteModelName(fit.model) << ": lnL = " << std::fixed
     << std::setprecision(6) << fit.lnL << std::defaultfloat << '\n'
     << "    kappa  = " << fit.params.kappa << '\n'
     << "    omega0 = " << fit.params.omega0 << '\n';
  if (fit.model == SiteModel::M2a)
    os << "    omega2 = " << fit.params.omega2 << '\n';
  os << "    p0 = " << fit.params.p0 << ", p1 = " << fit.params.p1 << '\n'
     << "    iterations = " << fit.iterations
     << (fit.converged ? " (converged)" : " (iteration cap reached)")
     << ", simd = " << linalg::simdLevelName(fit.simd)
     << ", backend = " << backend::backendKindName(fit.backend) << '\n';
}

}  // namespace

void writeSiteModelReport(std::ostream& os, const SiteModelTest& test,
                          EngineKind engine, double siteThreshold) {
  os << "Site-model test for positive selection, M1a vs M2a ("
     << engineName(engine) << " engine)\n";
  writeSiteFit(os, test.m1a);
  writeSiteFit(os, test.m2a);
  os << "  LRT: 2*dlnL = " << std::setprecision(6) << test.lrt.statistic
     << ", p(chi2_2) = " << test.lrt.pChi2 << '\n';
  writeNestedShortfall(os, test.lrt);
  if (test.lrt.significantAt(0.05))
    os << "  => positive selection DETECTED across the gene (5% level)\n";
  else
    os << "  => no significant evidence of positive selection (5% level)\n";
  os << "  Sites with posterior P(omega2 class) > " << siteThreshold
     << " (NEB):\n";
  bool any = false;
  for (std::size_t i = 0; i < test.posteriors.positiveSelectionBySite.size();
       ++i) {
    if (test.posteriors.positiveSelectionBySite[i] > siteThreshold) {
      os << "    site " << (i + 1) << "  P = " << std::setprecision(4)
         << test.posteriors.positiveSelectionBySite[i] << '\n';
      any = true;
    }
  }
  if (!any) os << "    (none)\n";
}

void writeBatchSummary(std::ostream& os,
                       const std::vector<PositiveSelectionTest>& tests,
                       const std::vector<std::string>& geneNames,
                       EngineKind engine, const lik::EvalCounters& totals,
                       const BatchRunInfo& info) {
  SLIM_REQUIRE(tests.size() == geneNames.size(),
               "writeBatchSummary: tests/geneNames size mismatch");
  os << "Batch summary (" << engineName(engine) << " engine, " << tests.size()
     << " genes, " << info.workers << " workers, "
     << (info.taskLevel ? "task" : "pattern") << "-level parallelism, "
     << std::setprecision(3) << info.seconds << " s)\n";
  // All genes of one batch share one model spec, so one df heads the column
  // (df = 1 keeps the historical header bytes).
  const int df = tests.empty() ? 1 : static_cast<int>(tests.front().lrt.df);
  os << "  gene                 lnL0          lnL1          2*dlnL    p(chi2_"
     << df << ")  verdict\n";
  for (std::size_t g = 0; g < tests.size(); ++g) {
    const auto& t = tests[g];
    os << "  " << std::left << std::setw(18) << geneNames[g] << std::right
       << std::fixed << std::setw(14) << std::setprecision(4) << t.h0.lnL
       << std::setw(14) << t.h1.lnL << std::setw(10) << t.lrt.statistic
       << std::defaultfloat << std::setw(11) << std::setprecision(4)
       << t.lrt.pChi2 << "  "
       << (t.lrt.significantAt(0.05) ? "DETECTED" : "-") << '\n';
  }
  os << "  engine totals: " << totals.evaluations << " evaluations, "
     << totals.eigenDecompositions << " eigendecompositions, "
     << totals.propagatorBuilds << " propagator builds";
  if (totals.gradientSweeps > 0)
    os << ", " << totals.gradientSweeps << " gradient sweeps";
  if (totals.propagatorCacheHits + totals.propagatorCacheMisses > 0)
    os << ", cache " << totals.propagatorCacheHits << " hits / "
       << totals.propagatorCacheMisses << " misses";
  os << '\n';
}

// --- JSON ---

namespace {

// JSON primitives shared with every structured-report writer.
using support::jsonNumber;
using support::jsonString;

void jsonCounters(std::ostream& os, const lik::EvalCounters& c) {
  os << "{\"evaluations\":" << c.evaluations
     << ",\"eigenDecompositions\":" << c.eigenDecompositions
     << ",\"propagatorBuilds\":" << c.propagatorBuilds
     << ",\"patternPropagations\":" << c.patternPropagations
     << ",\"gradientSweeps\":" << c.gradientSweeps
     << ",\"cacheHits\":" << c.propagatorCacheHits
     << ",\"cacheMisses\":" << c.propagatorCacheMisses << '}';
}

void jsonFit(std::ostream& os, const FitResult& fit) {
  os << "{\"lnL\":";
  jsonNumber(os, fit.lnL);
  os << ",\"kappa\":";
  jsonNumber(os, fit.params.kappa);
  os << ",\"omega0\":";
  jsonNumber(os, fit.params.omega0);
  os << ",\"omega2\":";
  jsonNumber(os, fit.params.omega2);
  os << ",\"p0\":";
  jsonNumber(os, fit.params.p0);
  os << ",\"p1\":";
  jsonNumber(os, fit.params.p1);
  // Only non-branch-site fits carry the model name and per-class omegas:
  // branch-site JSON stays byte-identical to what earlier versions emitted.
  if (fit.modelKind != model::ModelKind::BranchSite) {
    os << ",\"model\":";
    jsonString(os, model::modelKindName(fit.modelKind));
    os << ",\"classOmegas\":[";
    for (std::size_t i = 0; i < fit.classOmegas.size(); ++i) {
      if (i) os << ',';
      jsonNumber(os, fit.classOmegas[i]);
    }
    os << ']';
  }
  os << ",\"iterations\":" << fit.iterations
     << ",\"functionEvaluations\":" << fit.functionEvaluations
     << ",\"gradientEvaluations\":" << fit.gradientEvaluations
     << ",\"gradientMode\":";
  jsonString(os, gradientModeName(fit.gradientMode));
  os << ",\"simd\":";
  jsonString(os, linalg::simdLevelName(fit.simd));
  os << ",\"backend\":";
  jsonString(os, backend::backendKindName(fit.backend));
  // Only adaptive-expm fits carry the key: an `expm = eigen` run's JSON
  // stays byte-identical to what earlier versions emitted modulo "backend".
  if (fit.expm == backend::ExpmAlgorithm::Adaptive)
    os << ",\"expm\":\"adaptive\"";
  os << ",\"converged\":" << (fit.converged ? "true" : "false");
  // Only cancelled fits carry the flag, keeping untouched runs' JSON
  // byte-identical to what earlier versions emitted.
  if (fit.cancelled) os << ",\"cancelled\":true";
  os << ",\"seconds\":";
  jsonNumber(os, fit.seconds);
  if (!fit.resumedFrom.empty()) {
    os << ",\"resumedFrom\":";
    jsonString(os, fit.resumedFrom);
    os << ",\"iterationsReplayed\":" << fit.iterationsReplayed;
  }
  os << ",\"counters\":";
  jsonCounters(os, fit.counters);
  os << '}';
}

void jsonTest(std::ostream& os, const PositiveSelectionTest& test,
              std::string_view geneName, double siteThreshold) {
  os << '{';
  if (!geneName.empty()) {
    os << "\"gene\":";
    jsonString(os, geneName);
    os << ',';
  }
  os << "\"h0\":";
  jsonFit(os, test.h0);
  os << ",\"h1\":";
  jsonFit(os, test.h1);
  os << ",\"lrt\":{\"statistic\":";
  jsonNumber(os, test.lrt.statistic);
  os << ",\"df\":";
  jsonNumber(os, test.lrt.df);
  os << ",\"pChi2\":";
  jsonNumber(os, test.lrt.pChi2);
  os << ",\"pMixture\":";
  jsonNumber(os, test.lrt.pMixture);
  os << ",\"nestedShortfall\":";
  jsonNumber(os, test.lrt.nestedShortfall);
  os << ",\"significantAt05\":"
     << (test.lrt.significantAt(0.05) ? "true" : "false") << '}';
  os << ",\"positiveSites\":[";
  bool first = true;
  const auto& bySite = test.posteriors.positiveSelectionBySite;
  for (std::size_t i = 0; i < bySite.size(); ++i) {
    if (bySite[i] > siteThreshold) {
      if (!first) os << ',';
      first = false;
      os << "{\"site\":" << (i + 1) << ",\"posterior\":";
      jsonNumber(os, bySite[i]);
      os << '}';
    }
  }
  os << "],\"totalSeconds\":";
  jsonNumber(os, test.totalSeconds);
  os << ",\"counters\":";
  jsonCounters(os, test.counters);
  os << '}';
}

}  // namespace

void writeJsonTestReport(std::ostream& os, const PositiveSelectionTest& test,
                         EngineKind engine, std::string_view geneName,
                         double siteThreshold) {
  os << "{\"engine\":";
  jsonString(os, engineName(engine));
  os << ",\"test\":";
  jsonTest(os, test, geneName, siteThreshold);
  os << "}\n";
}

void writeJsonBatchReport(std::ostream& os,
                          const std::vector<PositiveSelectionTest>& tests,
                          const std::vector<std::string>& geneNames,
                          EngineKind engine, const lik::EvalCounters& totals,
                          const BatchRunInfo& info, double siteThreshold) {
  SLIM_REQUIRE(tests.size() == geneNames.size(),
               "writeJsonBatchReport: tests/geneNames size mismatch");
  os << "{\"engine\":";
  jsonString(os, engineName(engine));
  os << ",\"genes\":[";
  for (std::size_t g = 0; g < tests.size(); ++g) {
    if (g) os << ',';
    jsonTest(os, tests[g], geneNames[g], siteThreshold);
  }
  os << "],\"totals\":";
  jsonCounters(os, totals);
  os << ",\"batch\":{\"taskLevel\":" << (info.taskLevel ? "true" : "false")
     << ",\"workers\":" << info.workers << ",\"seconds\":";
  jsonNumber(os, info.seconds);
  os << "}}\n";
}

}  // namespace slim::core
