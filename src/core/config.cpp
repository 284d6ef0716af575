#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/scan.hpp"
#include "core/tuning_profile.hpp"
#include "core/report.hpp"
#include "tree/branch_classes.hpp"
#include "opt/cancel.hpp"
#include "support/atomic_file.hpp"
#include "support/require.hpp"

namespace slim::core {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

[[noreturn]] void badLine(int lineNo, const std::string& what) {
  throw ConfigError("control file line " + std::to_string(lineNo) + ": " +
                    what);
}

// Numeric values go through std::stod, whose failures (invalid text,
// overflow) must surface as a ConfigError naming the key and line, never as
// a bare std::invalid_argument / std::out_of_range without location.
double parseDouble(const std::string& key, const std::string& v, int lineNo) {
  double x = 0.0;
  std::size_t used = 0;
  bool outOfRange = false, notANumber = false;
  try {
    x = std::stod(v, &used);
  } catch (const std::out_of_range&) {
    outOfRange = true;
  } catch (const std::invalid_argument&) {
    notANumber = true;
  }
  if (outOfRange)
    badLine(lineNo, "value for '" + key + "' is out of double range: '" + v +
                        "'");
  if (notANumber || !trim(v.substr(used)).empty())
    badLine(lineNo, "value for '" + key + "' is not a number: '" + v + "'");
  if (!std::isfinite(x))
    badLine(lineNo, "value for '" + key + "' is not finite: '" + v + "'");
  return x;
}

int parseInt(const std::string& key, const std::string& v, int lineNo) {
  const double x = parseDouble(key, v, lineNo);
  // Round-trip through int and compare as doubles: rejects fractions and
  // values beyond int range (where the raw cast would be undefined).
  if (x < static_cast<double>(std::numeric_limits<int>::min()) ||
      x > static_cast<double>(std::numeric_limits<int>::max()))
    badLine(lineNo, "value for '" + key + "' is out of integer range: '" + v +
                        "'");
  const int i = static_cast<int>(x);
  if (static_cast<double>(i) != x)
    badLine(lineNo, "value for '" + key + "' must be an integer, got '" + v +
                        "'");
  return i;
}

}  // namespace

Config Config::parse(std::istream& in) {
  Config cfg;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments ('*' like codeml, plus '#').
    if (const auto pos = line.find_first_of("*#"); pos != std::string::npos)
      line.erase(pos);
    if (trim(line).empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) badLine(lineNo, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty())
      badLine(lineNo, "empty key or value");

    if (key == "seqfile") {
      // Repeated entries accumulate into a multi-gene batch.
      cfg.seqfiles.push_back(value);
      cfg.seqfile = cfg.seqfiles.front();
    } else if (key == "treefile") {
      cfg.treefile = value;
    } else if (key == "outfile") {
      cfg.outfile = value;
    } else if (key == "engine") {
      if (value == "slim")
        cfg.engine = EngineKind::Slim;
      else if (value == "slim-parallel")
        cfg.engine = EngineKind::SlimParallel;
      else if (value == "codeml")
        cfg.engine = EngineKind::CodemlBaseline;
      else
        badLine(lineNo, "engine must be 'slim', 'slim-parallel' or 'codeml'");
    } else if (key == "threads") {
      cfg.fit.tuning.numThreads = parseInt(key, value, lineNo);
      if (cfg.fit.tuning.numThreads < 0)
        badLine(lineNo, "threads must be >= 0");
    } else if (key == "blockSize") {
      cfg.fit.tuning.blockSize = parseInt(key, value, lineNo);
      if (cfg.fit.tuning.blockSize < 0)
        badLine(lineNo, "blockSize must be >= 0");
    } else if (key == "cachePropagators") {
      cfg.fit.tuning.cachePropagators =
          parseInt(key, value, lineNo) != 0 ? 1 : 0;
    } else if (key == "simd") {
      if (!linalg::parseSimdMode(value, cfg.fit.tuning.simd))
        badLine(lineNo,
                "simd must be 'auto', 'scalar', 'avx2' or 'avx512'");
    } else if (key == "backend") {
      if (!backend::parseBackendMode(value, cfg.fit.tuning.backend))
        badLine(lineNo,
                "backend must be 'auto', 'reference', 'simd' or 'blas'");
    } else if (key == "expm") {
      if (!backend::parseExpmAlgorithm(value, cfg.fit.tuning.expm))
        badLine(lineNo, "expm must be 'eigen' or 'adaptive'");
    } else if (key == "parallel") {
      if (value == "auto")
        cfg.fit.tuning.policy = ParallelPolicy::Auto;
      else if (value == "task")
        cfg.fit.tuning.policy = ParallelPolicy::TaskLevel;
      else if (value == "pattern")
        cfg.fit.tuning.policy = ParallelPolicy::PatternLevel;
      else
        badLine(lineNo, "parallel must be 'auto', 'task' or 'pattern'");
    } else if (key == "gradient") {
      if (value == "fd")
        cfg.fit.tuning.gradient = GradientMode::FiniteDiff;
      else if (value == "analytic")
        cfg.fit.tuning.gradient = GradientMode::Analytic;
      else if (value == "fd-parallel")
        badLine(lineNo,
                "gradient = fd-parallel was removed; use 'analytic' (no "
                "finite-difference probes) or 'fd' (the reference mode)");
      else
        badLine(lineNo, "gradient must be 'fd' or 'analytic'");
    } else if (key == "model") {
      if (value == "branch-site")
        cfg.analysis = AnalysisKind::BranchSite;
      else if (value == "site")
        cfg.analysis = AnalysisKind::Site;
      else if (value == "branch")
        cfg.analysis = AnalysisKind::Branch;
      else if (value == "clade-c")
        cfg.analysis = AnalysisKind::CladeC;
      else
        badLine(lineNo,
                "model must be 'branch-site', 'branch', 'clade-c' or 'site'");
    } else if (key == "foreground") {
      // Note '#' opens a comment, so branch sets are spelled with labels or
      // node indices, never '#k' marks (see tree/branch_classes.hpp).
      cfg.foreground = value;
    } else if (key == "CodonFreq") {
      const int f = parseInt(key, value, lineNo);
      switch (f) {
        case 0: cfg.fit.frequencyModel = model::CodonFrequencyModel::Equal; break;
        case 1: cfg.fit.frequencyModel = model::CodonFrequencyModel::F1x4; break;
        case 2: cfg.fit.frequencyModel = model::CodonFrequencyModel::F3x4; break;
        case 3: cfg.fit.frequencyModel = model::CodonFrequencyModel::F61; break;
        default: badLine(lineNo, "CodonFreq must be 0..3");
      }
    } else if (key == "maxIterations") {
      cfg.fit.bfgs.maxIterations = parseInt(key, value, lineNo);
      if (cfg.fit.bfgs.maxIterations < 0) badLine(lineNo, "negative cap");
    } else if (key == "kappa") {
      cfg.fit.initialParams.kappa = parseDouble(key, value, lineNo);
    } else if (key == "omega0") {
      cfg.fit.initialParams.omega0 = parseDouble(key, value, lineNo);
    } else if (key == "omega2") {
      cfg.fit.initialParams.omega2 = parseDouble(key, value, lineNo);
    } else if (key == "p0") {
      cfg.fit.initialParams.p0 = parseDouble(key, value, lineNo);
    } else if (key == "p1") {
      cfg.fit.initialParams.p1 = parseDouble(key, value, lineNo);
    } else if (key == "cleandata") {
      cfg.stopCodonsAsMissing = parseInt(key, value, lineNo) != 0;
    } else if (key == "tuning") {
      cfg.tuningPath = value;
    } else if (key == "checkpoint") {
      cfg.checkpointPath = value;
    } else if (key == "checkpointEverySec") {
      cfg.checkpointEverySec = parseDouble(key, value, lineNo);
      if (cfg.checkpointEverySec < 0)
        badLine(lineNo, "checkpointEverySec must be >= 0");
    } else if (key == "timeoutSec") {
      cfg.timeoutSec = parseDouble(key, value, lineNo);
      if (cfg.timeoutSec < 0) badLine(lineNo, "timeoutSec must be >= 0");
    } else if (key == "seed") {
      const double s = parseDouble(key, value, lineNo);
      // Integral and strictly below 2^64, so the cast is defined behaviour.
      if (s < 0 || s >= 18446744073709551616.0 || std::floor(s) != s)
        badLine(lineNo,
                "value for 'seed' must be a non-negative integer below "
                "2^64, got '" + value + "'");
      cfg.fit.startJitterSeed = static_cast<std::uint64_t>(s);
    } else {
      badLine(lineNo, "unknown key '" + key + "'");
    }
  }
  // Keyed like every other parse failure: hostile or truncated ctl text must
  // surface as ConfigError (the fuzz harness and the daemon's submit path
  // both key on it), not a bare precondition failure.
  if (cfg.seqfile.empty())
    throw ConfigError("control file: seqfile is required");
  if (cfg.treefile.empty())
    throw ConfigError("control file: treefile is required");
  return cfg;
}

Config Config::parseString(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse(in);
}

Config Config::parseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw ConfigError("cannot open control file '" + path + "'");
  return parse(in);
}

seqio::CodonAlignment loadAlignmentFile(const std::string& path,
                                        bool stopCodonsAsMissing) {
  std::ifstream seqIn(path);
  if (!seqIn.good())
    throw ConfigError("cannot open sequence file '" + path + "'");
  // FASTA if the first non-blank character is '>', else sequential PHYLIP.
  char first = 0;
  seqIn >> std::ws;
  seqIn.get(first);
  seqIn.unget();
  const auto aln = (first == '>') ? seqio::Alignment::readFasta(seqIn, path)
                                  : seqio::Alignment::readPhylip(seqIn, path);
  return seqio::encodeCodons(aln, bio::GeneticCode::universal(),
                             stopCodonsAsMissing);
}

tree::Tree loadTreeFile(const std::string& path) {
  std::ifstream treeIn(path);
  if (!treeIn.good()) throw ConfigError("cannot open tree file '" + path + "'");
  std::stringstream treeText;
  treeText << treeIn.rdbuf();
  return tree::Tree::parseNewick(treeText.str(), path);
}

namespace {

seqio::CodonAlignment loadAlignment(const std::string& path,
                                    bool stopCodonsAsMissing) {
  return loadAlignmentFile(path, stopCodonsAsMissing);
}

tree::Tree loadTree(const std::string& path) { return loadTreeFile(path); }

struct LoadedInputs {
  seqio::CodonAlignment codons;
  tree::Tree tree;
};

LoadedInputs loadInputs(const Config& config) {
  return {loadAlignment(config.seqfile, config.stopCodonsAsMissing),
          loadTree(config.treefile)};
}

/// "dir/gene-007.fasta" -> "gene-007" (the per-gene report label).
std::string fileStem(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

template <class WriteReport>
void emitReport(const Config& config, const WriteReport& write) {
  if (config.outfile.empty() || config.outfile == "-") {
    write(std::cout);
  } else {
    // Reports are rendered in memory and published with temp+fsync+rename:
    // a process killed mid-report must never leave a truncated, unparseable
    // file where a pipeline globbing for results would read it.
    std::ostringstream buffer;
    write(buffer);
    support::writeFileAtomic(config.outfile, buffer.str());
  }
}

/// `timeoutSec =`: arm a wall-clock deadline (measured from here, i.e. the
/// start of the run) on top of any cancel source the caller already
/// installed — the CLI's SIGTERM flag, a daemon job's cancel token.
Config applyRunDeadline(Config config) {
  if (config.timeoutSec > 0)
    config.fit.bfgs.cancel = opt::combineCancel(
        std::move(config.fit.bfgs.cancel), opt::deadlineAfter(config.timeoutSec));
  return config;
}

/// The checkpoint coordinator for this run, or null when the config does
/// not ask for one.
std::unique_ptr<CheckpointManager> openCheckpoint(const Config& config) {
  if (config.checkpointPath.empty()) {
    SLIM_REQUIRE(!config.resume,
                 "--resume requires a 'checkpoint =' path in the control "
                 "file");
    return nullptr;
  }
  return CheckpointManager::open(config.checkpointPath,
                                 config.checkpointEverySec,
                                 checkpointConfigHash(config), config.resume);
}

}  // namespace

model::ModelSpec modelSpecFor(AnalysisKind kind, int numBranchClasses) {
  model::ModelSpec spec;
  switch (kind) {
    case AnalysisKind::BranchSite:
      spec = model::ModelSpec::branchSite();
      break;
    case AnalysisKind::Branch:
      spec = model::ModelSpec::branch(numBranchClasses);
      break;
    case AnalysisKind::CladeC:
      spec = model::ModelSpec::cladeC(numBranchClasses);
      break;
    default:
      SLIM_REQUIRE(false, "modelSpecFor: 'model = site' has no ModelSpec");
  }
  spec.validate();
  return spec;
}

Config resolveTuningProfile(Config config) {
  if (config.tuningPath.empty()) return config;
  std::string path = config.tuningPath;
  if (config.tuningPath == "auto") {
    path = defaultTuningProfilePath();
    // Auto is best-effort: an untuned host runs on the engine defaults.  An
    // *existing* profile still goes through the strict load — a corrupt or
    // foreign-host file is an error, never silently ignored.
    if (!std::filesystem::exists(path)) return config;
  }
  TuningProfile::load(path).applyTo(config.fit.tuning);
  return config;
}

std::vector<std::string> scanBatchDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir))
    throw ConfigError("--batch: '" + dir + "' is not a directory");
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext == ".fasta" || ext == ".fa" || ext == ".fas" || ext == ".phy" ||
        ext == ".phylip")
      files.push_back(entry.path().string());
  }
  if (files.empty())
    throw ConfigError("--batch: no alignments (*.fasta, *.fa, *.fas, *.phy, "
                      "*.phylip) in '" + dir + "'");
  // directory_iterator yields readdir order — host- and filesystem-
  // dependent.  Gene order must be stable: it fixes gene indices, derived
  // per-gene seeds, checkpoint task keys and report ordering.
  std::sort(files.begin(), files.end());
  return files;
}

PositiveSelectionTest runFromConfig(const Config& rawConfig) {
  Config config = applyRunDeadline(resolveTuningProfile(rawConfig));
  SLIM_REQUIRE(config.analysis != AnalysisKind::Site,
               "runFromConfig: control file requests 'model = site'");
  SLIM_REQUIRE(config.foreground.empty(),
               "runFromConfig: 'foreground =' scans run through the batch "
               "workflow (runBatchFromConfig)");
  const auto in = loadInputs(config);
  config.fit.modelSpec =
      modelSpecFor(config.analysis, tree::numBranchClasses(in.tree));
  PositiveSelectionTest test;
  if (const auto checkpoint = openCheckpoint(config)) {
    // Checkpointed single-gene run: drive the same fit path through a
    // one-gene batch, which carries the per-task checkpoint plumbing.
    // Batch and sequential results are bit-identical (tests/batch_test).
    BatchOptions options;
    options.fit = config.fit;
    options.checkpoint = checkpoint.get();
    BatchAnalysis batch(config.engine, options);
    batch.addGene(in.codons, std::make_shared<const tree::Tree>(in.tree),
                  config.fit, fileStem(config.seqfile));
    test = std::move(batch.runAll().front());
  } else {
    BranchSiteAnalysis analysis(in.codons, in.tree, config.engine, config.fit);
    test = analysis.run();
  }
  emitReport(config,
             [&](std::ostream& os) { writeTestReport(os, test, config.engine); });
  return test;
}

BatchRunOutput runBatchFromConfig(const Config& rawConfig) {
  Config config = applyRunDeadline(resolveTuningProfile(rawConfig));
  SLIM_REQUIRE(config.analysis != AnalysisKind::Site,
               "runBatchFromConfig: control file requests 'model = site'");
  SLIM_REQUIRE(!config.seqfiles.empty(), "runBatchFromConfig: no seqfiles");

  const auto tree =
      std::make_shared<const tree::Tree>(loadTree(config.treefile));

  const auto checkpoint = openCheckpoint(config);
  BatchOptions options;
  options.fit = config.fit;
  options.checkpoint = checkpoint.get();

  BatchRunOutput out;
  if (!config.foreground.empty()) {
    // Scan: one task per (gene x branch set), each set foreground-marked on
    // an otherwise unmarked copy of the tree — always two branch classes.
    config.fit.modelSpec = modelSpecFor(config.analysis, 2);
    options.fit.modelSpec = config.fit.modelSpec;
    ScanAnalysis scan(config.engine, *tree, config.foreground, options);
    for (const auto& path : config.seqfiles)
      scan.addGene(loadAlignment(path, config.stopCodonsAsMissing), config.fit,
                   fileStem(path));
    out.geneNames = scan.taskNames();
    out.tests = scan.runAll();
    out.totals = scan.totals();
    out.info = scan.lastRun();
  } else {
    config.fit.modelSpec =
        modelSpecFor(config.analysis, tree::numBranchClasses(*tree));
    options.fit.modelSpec = config.fit.modelSpec;
    BatchAnalysis batch(config.engine, options);
    for (const auto& path : config.seqfiles) {
      out.geneNames.push_back(fileStem(path));
      batch.addGene(loadAlignment(path, config.stopCodonsAsMissing), tree,
                    config.fit, out.geneNames.back());
    }
    out.tests = batch.runAll();
    out.totals = batch.totals();
    out.info = batch.lastRun();
  }

  emitReport(config, [&](std::ostream& os) {
    for (std::size_t g = 0; g < out.tests.size(); ++g) {
      os << "=== gene " << out.geneNames[g] << " ===\n";
      writeTestReport(os, out.tests[g], config.engine);
      os << '\n';
    }
    writeBatchSummary(os, out.tests, out.geneNames, config.engine, out.totals,
                      out.info);
  });
  return out;
}

SiteModelTest runSiteModelFromConfig(const Config& rawConfig) {
  const Config config = applyRunDeadline(resolveTuningProfile(rawConfig));
  SLIM_REQUIRE(config.analysis == AnalysisKind::Site,
               "runSiteModelFromConfig: control file requests '" +
                   std::string(analysisKindName(config.analysis)) + "'");
  SLIM_REQUIRE(config.checkpointPath.empty() && !config.resume,
               "checkpoint/resume supports 'model = branch-site', 'branch' "
               "and 'clade-c', not 'model = site'");
  SLIM_REQUIRE(config.foreground.empty(),
               "'foreground =' scans support 'model = branch-site', 'branch' "
               "and 'clade-c', not 'model = site'");
  const auto in = loadInputs(config);
  SiteModelFitOptions options;
  options.frequencyModel = config.fit.frequencyModel;
  options.bfgs = config.fit.bfgs;
  options.initialParams.kappa = config.fit.initialParams.kappa;
  options.initialParams.omega0 = config.fit.initialParams.omega0;
  options.initialParams.omega2 = config.fit.initialParams.omega2;
  options.initialParams.p0 = config.fit.initialParams.p0;
  options.initialParams.p1 = config.fit.initialParams.p1;
  options.tuning = config.fit.tuning;
  SiteModelAnalysis analysis(in.codons, in.tree, config.engine, options);
  const auto test = analysis.run();
  emitReport(config, [&](std::ostream& os) {
    writeSiteModelReport(os, test, config.engine);
  });
  return test;
}

}  // namespace slim::core
