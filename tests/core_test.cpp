// Tests for the top-level analysis API: parameter packing, fitting, LRT
// plumbing and report output.  Fits here use tiny datasets and tight
// iteration caps to stay fast; the statistically meaningful end-to-end
// scenarios live in integration_test.cpp.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>

#include "core/analysis.hpp"
#include "core/report.hpp"
#include "sim/datasets.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;

struct SmallCase {
  seqio::CodonAlignment alignment;
  tree::Tree tree;
};

SmallCase makeSmallCase() {
  // 5 species, 30 codons, simulated with positive selection.
  sim::Rng rng(2024);
  auto tree = sim::yuleTree(5, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut =
      sim::evolveBranchSite(gc, tree, sim::defaultSimulationParams(),
                            Hypothesis::H1, 30, pi, rng);
  return {seqio::encodeCodons(simOut.alignment, gc), std::move(tree)};
}

FitOptions quickOptions(int maxIter = 8) {
  FitOptions o;
  o.bfgs.maxIterations = maxIter;
  return o;
}

TEST(Engine, NamesAndOptionsPresets) {
  EXPECT_STREQ(engineName(EngineKind::CodemlBaseline), "CodeML");
  EXPECT_STREQ(engineName(EngineKind::Slim), "SlimCodeML");
  const auto base = engineOptions(EngineKind::CodemlBaseline);
  EXPECT_EQ(base.flavor, linalg::Flavor::Naive);
  EXPECT_EQ(base.reconstruction, expm::ReconstructionPath::Gemm);
  EXPECT_EQ(base.propagation, lik::PropagationStrategy::PerSiteGemv);
  const auto slim = engineOptions(EngineKind::Slim);
  EXPECT_EQ(slim.flavor, linalg::Flavor::Opt);
  EXPECT_EQ(slim.reconstruction, expm::ReconstructionPath::Syrk);
  EXPECT_EQ(slim.propagation, lik::PropagationStrategy::BundledGemm);
}

TEST(Fit, ImprovesOverStartAndRespectsCap) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(5));
  const auto fit = analysis.fit(Hypothesis::H0);
  EXPECT_TRUE(std::isfinite(fit.lnL));
  EXPECT_LT(fit.lnL, 0.0);
  EXPECT_LE(fit.iterations, 5);
  EXPECT_GT(fit.functionEvaluations, 0);
  EXPECT_GT(fit.seconds, 0.0);
  EXPECT_EQ(fit.hypothesis, Hypothesis::H0);
  // Fitted parameters respect their domains.
  EXPECT_GT(fit.params.kappa, 0.0);
  EXPECT_GT(fit.params.omega0, 0.0);
  EXPECT_LT(fit.params.omega0, 1.0);
  EXPECT_DOUBLE_EQ(fit.params.omega2, 1.0);  // H0 pins omega2
  EXPECT_GT(fit.params.p0, 0.0);
  EXPECT_LT(fit.params.p0 + fit.params.p1, 1.0);
  for (double t : fit.branchLengths) EXPECT_GE(t, 0.0);
  EXPECT_EQ(fit.branchLengths.size(), 8u);  // 2*5 - 2 branches
}

TEST(Fit, H1EstimatesOmega2AboveOne) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(5));
  const auto fit = analysis.fit(Hypothesis::H1);
  EXPECT_GE(fit.params.omega2, 1.0);
  EXPECT_EQ(fit.hypothesis, Hypothesis::H1);
}

TEST(Fit, MoreIterationsNeverWorse) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis a2(sc.alignment, sc.tree, EngineKind::Slim,
                        quickOptions(2));
  BranchSiteAnalysis a10(sc.alignment, sc.tree, EngineKind::Slim,
                         quickOptions(10));
  const double l2 = a2.fit(Hypothesis::H0).lnL;
  const double l10 = a10.fit(Hypothesis::H0).lnL;
  EXPECT_GE(l10, l2 - 1e-9);
}

TEST(Fit, DeterministicAcrossRuns) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions(4));
  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions(4));
  EXPECT_DOUBLE_EQ(a.fit(Hypothesis::H0).lnL, b.fit(Hypothesis::H0).lnL);
}

TEST(Fit, JitterSeedChangesStartButStaysFeasible) {
  const auto sc = makeSmallCase();
  auto opts = quickOptions(3);
  opts.startJitterSeed = 7;
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim, opts);
  opts.startJitterSeed = 8;
  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim, opts);
  const double la = a.fit(Hypothesis::H0).lnL;
  const double lb = b.fit(Hypothesis::H0).lnL;
  EXPECT_TRUE(std::isfinite(la));
  EXPECT_TRUE(std::isfinite(lb));
  // Different jitter, (almost surely) different trajectories.
  EXPECT_NE(la, lb);
}

TEST(Fit, InitialBranchLengthOverride) {
  const auto sc = makeSmallCase();
  auto opts = quickOptions(0);  // 0 iterations: report the start point
  opts.bfgs.maxIterations = 0;
  opts.useTreeBranchLengths = false;
  opts.initialBranchLength = 0.2;
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim, opts);
  const auto fit = analysis.fit(Hypothesis::H0);
  for (double t : fit.branchLengths) EXPECT_NEAR(t, 0.2, 1e-9);
}

TEST(Run, ProducesCoherentTest) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(6));
  const auto test = analysis.run();
  // Nested models: H1 at least as good (same start, same optimizer family).
  EXPECT_GE(test.h1.lnL, test.h0.lnL - 1e-6);
  EXPECT_GE(test.lrt.statistic, 0.0);
  EXPECT_LE(test.lrt.pChi2, 1.0);
  EXPECT_GE(test.lrt.pChi2, 0.0);
  EXPECT_NEAR(test.lrt.statistic, 2.0 * (test.h1.lnL - test.h0.lnL), 1e-9);
  EXPECT_NEAR(test.totalSeconds, test.h0.seconds + test.h1.seconds, 1e-9);
  // Posteriors expanded to all 30 sites.
  EXPECT_EQ(test.posteriors.positiveSelectionBySite.size(), 30u);
}

TEST(Analysis, PiComesFromRequestedModel) {
  const auto sc = makeSmallCase();
  FitOptions equal = quickOptions();
  equal.frequencyModel = model::CodonFrequencyModel::Equal;
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim, equal);
  for (double f : a.pi()) EXPECT_DOUBLE_EQ(f, 1.0 / 61.0);

  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions());
  double maxDiff = 0;
  for (double f : b.pi()) maxDiff = std::max(maxDiff, std::fabs(f - 1.0 / 61));
  EXPECT_GT(maxDiff, 1e-4);  // F3x4 on real-ish data is not uniform
}

TEST(Report, ContainsKeySections) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(3));
  const auto test = analysis.run();
  const std::string report = testReportString(test, EngineKind::Slim);
  EXPECT_NE(report.find("SlimCodeML"), std::string::npos);
  EXPECT_NE(report.find("H0"), std::string::npos);
  EXPECT_NE(report.find("H1"), std::string::npos);
  EXPECT_NE(report.find("LRT"), std::string::npos);
  EXPECT_NE(report.find("kappa"), std::string::npos);
  EXPECT_NE(report.find("omega2"), std::string::npos);
}

TEST(Report, FitReportMentionsConvergenceState) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(1));
  const auto fit = analysis.fit(Hypothesis::H0);
  std::ostringstream os;
  writeFitReport(os, fit);
  EXPECT_NE(os.str().find("iterations"), std::string::npos);
  EXPECT_NE(os.str().find("simd = "), std::string::npos);
}

// ---------- JSON well-formedness ----------

// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, true/false/
// null), rejects everything else.  Enough to prove the reports emit valid
// JSON even for hostile inputs — no external parser dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }
  bool literal(std::string_view want) {
    if (s_.substr(pos_, want.size()) != want) return false;
    pos_ += want.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(Report, JsonSurvivesHostileStringsRoundTrip) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(2));
  const auto test = analysis.run();

  // A gene name with every dangerous class of character: quote, backslash,
  // newline, tab, and raw control bytes (what a seqfile path or tree label
  // can drag into the report).
  const std::string hostile = std::string("ge\"ne\\pa\th\n") + '\x01' +
                              '\x1f' + "\r\x7f";
  std::ostringstream os;
  writeJsonTestReport(os, test, EngineKind::Slim, hostile);
  const std::string json = os.str();

  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // Control characters must appear escaped, never raw.
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u000d"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  // The resolved SIMD flavor is recorded.
  EXPECT_NE(json.find("\"simd\":"), std::string::npos);

  // The same reports on a shared stream that a text report left in
  // std::fixed state (regression guard for stream-format leakage).
  std::ostringstream mixed;
  writeTestReport(mixed, test, EngineKind::Slim);
  writeJsonTestReport(mixed, test, EngineKind::Slim, hostile);
  const std::string tail = mixed.str();
  const auto brace = tail.find("{\"engine\"");
  ASSERT_NE(brace, std::string::npos);
  EXPECT_TRUE(JsonValidator(std::string_view(tail).substr(brace)).valid());
}

TEST(Report, NestedShortfallIsPrinted) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(2));
  auto test = analysis.run();
  // An H1 fit that stopped 0.5 lnL below H0: the statistic is clamped,
  // and both reports carry the shortfall.
  test.lrt = stat::likelihoodRatioTest(test.h0.lnL, test.h0.lnL - 0.5, 1.0);
  std::ostringstream text, json;
  writeTestReport(text, test, EngineKind::Slim);
  writeJsonTestReport(json, test, EngineKind::Slim);
  EXPECT_NE(text.str().find("nested shortfall"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("0.5 below"), std::string::npos) << text.str();
  EXPECT_NE(json.str().find("\"nestedShortfall\":0.5"), std::string::npos)
      << json.str();
  EXPECT_TRUE(JsonValidator(json.str()).valid()) << json.str();
}

TEST(Report, JsonBatchReportIsWellFormed) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(2));
  const auto test = analysis.run();
  std::ostringstream os;
  BatchRunInfo info;
  info.workers = 2;
  info.taskLevel = true;
  info.seconds = 0.5;
  writeJsonBatchReport(os, {test, test}, {"g\"1", "g\n2"}, EngineKind::Slim,
                       test.counters, info);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
}

}  // namespace
}  // namespace slim::core
