#pragma once
// Human-readable result reports (what a CodeML user reads from the main
// output file): parameter estimates, LRT verdict, and the list of sites
// with high posterior probability of positive selection.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"
#include "core/batch.hpp"

namespace slim::core {

/// Write a one-hypothesis fit summary.
void writeFitReport(std::ostream& os, const FitResult& fit);

/// Write the full test report: both fits, the LRT, and sites whose
/// posterior probability of positive selection exceeds siteThreshold.
void writeTestReport(std::ostream& os, const PositiveSelectionTest& test,
                     EngineKind engine, double siteThreshold = 0.95);

/// Convenience: the full test report as a string.
std::string testReportString(const PositiveSelectionTest& test,
                             EngineKind engine, double siteThreshold = 0.95);

/// Per-gene verdict table plus the aggregate engine counters of a batch run
/// (tests and geneNames are parallel, in GeneHandle order).
void writeBatchSummary(std::ostream& os,
                       const std::vector<PositiveSelectionTest>& tests,
                       const std::vector<std::string>& geneNames,
                       EngineKind engine, const lik::EvalCounters& totals,
                       const BatchRunInfo& info);

// --- structured (JSON) reports, emitted next to the text report ---

/// One branch-site test as a JSON object (machine-readable counterpart of
/// writeTestReport; full double precision).
void writeJsonTestReport(std::ostream& os, const PositiveSelectionTest& test,
                         EngineKind engine, std::string_view geneName = {},
                         double siteThreshold = 0.95);

/// A whole batch: per-gene test objects plus aggregate counters and the
/// scheduler's run info.
void writeJsonBatchReport(std::ostream& os,
                          const std::vector<PositiveSelectionTest>& tests,
                          const std::vector<std::string>& geneNames,
                          EngineKind engine, const lik::EvalCounters& totals,
                          const BatchRunInfo& info,
                          double siteThreshold = 0.95);

}  // namespace slim::core
