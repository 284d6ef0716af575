// The slimcodeml command-line tool: the CodeML-style workflow driven by a
// control file.
//
//   slimcodeml [--json] [--batch <dir>] [--resume] analysis.ctl
//
// See src/core/config.hpp for the control-file reference, or run with
// --help for a template.

#include <atomic>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "support/atomic_file.hpp"
#include "support/build_info.hpp"

namespace {

constexpr const char* kUsage = R"(usage: slimcodeml [--json] [--batch <dir>] [--resume] <control-file>

Fits the selected branch-classification model (branch-site A, the branch
model or clade model C) under H0 and H1, runs the likelihood-ratio test,
and writes a report.  Repeating the seqfile line (or --batch) selects the
multi-gene workflow: every gene's H0/H1 fits are fanned as independent
tasks across the worker pool, sharing the tree and the propagator cache
machinery.  `foreground = every-branch` (or a list of branch sets) scans
each candidate foreground as its own task, named <gene>@<branch-set>.

  --json         also emit a structured JSON report: to '<outfile>.json'
                 when outfile names a file, else to stdout after the text
  --batch <dir>  append every *.fasta/*.fa/*.phy alignment in <dir> (sorted)
                 to the control file's seqfile list
  --resume       continue from the control file's `checkpoint =` file:
                 completed fits are skipped, interrupted ones continue
                 their recorded trajectory bit-identically; a checkpoint
                 from a different configuration is refused
  --version      print build information (git revision, compiler, SIMD
                 level, schema versions) and exit

SIGTERM/SIGINT stop the run at the next optimizer iteration: the checkpoint
(when configured) keeps its last snapshot, a partial report with the
interrupted fits marked `cancelled` is still written atomically, and the
exit status is 130.  `timeoutSec =` in the control file bounds wall-clock
the same way.

Control file template:

    seqfile  = gene.fasta      * FASTA or sequential PHYLIP; repeat per gene
    treefile = gene.nwk        * Newick; #k marks label branch classes
    outfile  = results.txt     * '-' or omitted: stdout
    engine   = slim            * slim | slim-parallel | codeml (baseline)
    model    = branch-site     * branch-site | branch | clade-c | site
    foreground = every-branch  * scan: one fit per branch (or per listed
                               * set: "human,chimp; mouse"); omit for a
                               * plain run on the tree's own #k marks
    threads  = 0               * worker threads (0: all cores)
    parallel = auto            * auto | task | pattern (batch fan-out)
    gradient = fd              * fd | analytic (no FD probes on the eigen path)
    simd     = auto            * auto | scalar | avx2 | avx512 kernels
    backend  = auto            * auto | reference | simd | blas kernel table
    expm     = eigen           * eigen | adaptive (non-reversible Q)
    blockSize = 64             * site patterns per work block
    cachePropagators = 1       * persistent (omega, branch-length) cache
    CodonFreq = 2              * 0 equal, 1 F1x4, 2 F3x4, 3 F61
    maxIterations = 200
    kappa  = 2.0               * initial parameter values
    omega0 = 0.1
    omega2 = 2.0
    p0 = 0.45
    p1 = 0.45
    cleandata = 0              * 1: stop codons treated as missing data
    seed = 0                   * nonzero: jitter the starting values
    checkpoint = run.ckpt      * snapshot fits for --resume
    checkpointEverySec = 30    * checkpoint write throttle (0: every iter)
)";

/// The JSON report lands next to the text report: '<outfile>.json' when the
/// text goes to a file, stdout otherwise.  File emission is atomic
/// (temp+fsync+rename), like every other report and checkpoint write.
void emitJson(const slim::core::Config& config,
              const std::function<void(std::ostream&)>& write) {
  if (config.outfile.empty() || config.outfile == "-") {
    write(std::cout);
    return;
  }
  const std::string path = config.outfile + ".json";
  std::ostringstream buffer;
  write(buffer);
  slim::support::writeFileAtomic(path, buffer.str());
  std::cerr << "wrote " << path << '\n';
}

std::atomic<bool> gInterrupted{false};

void handleSignal(int) { gInterrupted.store(true); }

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool resume = false;
  std::string batchDir;
  std::string ctlPath;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << kUsage;
      return 0;
    } else if (arg == "--version") {
      std::cout << slim::support::buildInfoLine() << '\n';
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--batch") {
      if (i + 1 >= argc) {
        std::cerr << "slimcodeml: error: --batch needs a directory\n";
        return 1;
      }
      batchDir = argv[++i];
    } else if (ctlPath.empty()) {
      ctlPath = arg;
    } else {
      std::cerr << kUsage;
      return 1;
    }
  }
  if (ctlPath.empty()) {
    std::cerr << kUsage;
    return 1;
  }

  // Graceful interruption: the handler only raises a flag; the optimizers
  // poll it at iteration boundaries (= checkpoint snapshot points) and stop
  // at the last accepted point, so the report/checkpoint writes below still
  // run and stay atomic.
  std::signal(SIGINT, handleSignal);
  std::signal(SIGTERM, handleSignal);

  try {
    auto config = slim::core::Config::parseFile(ctlPath);
    config.resume = resume;
    config.fit.bfgs.cancel = [] { return gInterrupted.load(); };
    if (!batchDir.empty()) {
      for (auto& path : slim::core::scanBatchDirectory(batchDir))
        config.seqfiles.push_back(std::move(path));
      config.seqfile = config.seqfiles.front();
    }

    if (config.analysis == slim::core::AnalysisKind::Site) {
      if (config.seqfiles.size() > 1 || json) {
        std::cerr << "slimcodeml: error: batch mode and --json support "
                     "'model = branch-site', 'branch' and 'clade-c', not "
                     "'model = site'\n";
        return 1;
      }
      const auto test = slim::core::runSiteModelFromConfig(config);
      std::cerr << "done: M1a lnL = " << test.m1a.lnL
                << ", M2a lnL = " << test.m2a.lnL
                << ", p = " << test.lrt.pChi2 << '\n';
    } else if (config.seqfiles.size() > 1 || !config.foreground.empty()) {
      const auto out = slim::core::runBatchFromConfig(config);
      if (json)
        emitJson(config, [&](std::ostream& os) {
          writeJsonBatchReport(os, out.tests, out.geneNames, config.engine,
                               out.totals, out.info);
        });
      int detected = 0;
      for (const auto& t : out.tests) detected += t.lrt.significantAt(0.05);
      std::cerr << "done: " << out.tests.size() << " genes, " << detected
                << " with positive selection detected, " << out.info.seconds
                << " s (" << out.info.workers << " workers)\n";
    } else {
      const auto test = slim::core::runFromConfig(config);
      if (json)
        emitJson(config, [&](std::ostream& os) {
          writeJsonTestReport(os, test, config.engine);
        });
      std::cerr << "done: lnL0 = " << test.h0.lnL
                << ", lnL1 = " << test.h1.lnL << ", p = " << test.lrt.pChi2
                << '\n';
    }
    if (gInterrupted.load()) {
      std::cerr << "slimcodeml: interrupted — partial report written; "
                   "interrupted fits are marked 'cancelled' (use a "
                   "checkpoint to resume them)\n";
      return 130;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "slimcodeml: error: " << e.what() << '\n';
    return 1;
  }
}
