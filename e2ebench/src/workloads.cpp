#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bio/genetic_code.hpp"
#include "sim/datasets.hpp"
#include "sim/evolver.hpp"
#include "sim/random_tree.hpp"
#include "sim/rng.hpp"

namespace e2ebench {
namespace {

// Shapes of the three workloads (see README.md for why each was chosen).
constexpr int kFitTaxa = 16, kFitCodons = 300;
// Two pattern-parallel threads, not one per core: every parallel region of a
// sweep wakes the pool's sleeping workers, and on a shared host each extra
// woken thread adds the host's wake-up latency to the whole sweep.
constexpr int kFitThreads = 2;
constexpr double kFitOmega2 = 3.0;
// Four genes on a 5-taxon tree: each gene's data moves the work of all its
// sets together, so fewer genes on a larger tree made the scan's work vary
// more with the seed (README.md).
constexpr int kScanTaxa = 5, kScanGenes = 4, kScanCodons = 60;
constexpr double kScanOmega2 = 4.0;
constexpr int kBatchTaxa = 8, kBatchGenes = 16;
constexpr int kBatchMinCodons = 50, kBatchMaxCodons = 400;
constexpr double kBatchOmega2 = 4.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

WorkloadSpec workloadSpec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "gene_fit") {
    w.taxa = kFitTaxa;
    w.threads = kFitThreads;
    w.treeSeed = 1601;
    w.genes.push_back({"gene", kFitCodons, kFitOmega2});
  } else if (name == "branch_scan") {
    w.taxa = kScanTaxa;
    w.treeSeed = 1002;
    for (int g = 0; g < kScanGenes; ++g) {
      char stem[16];
      std::snprintf(stem, sizeof stem, "s%02d", g + 1);
      w.genes.push_back({stem, kScanCodons, kScanOmega2});
    }
    w.scan = true;
  } else if (name == "gene_batch") {
    w.taxa = kBatchTaxa;
    w.treeSeed = 803;
    // Lengths on a log-uniform ladder from kBatchMinCodons to
    // kBatchMaxCodons, dealt to the genes in a fixed interleaved order so
    // the longest genes do not all queue last; every other rung is
    // simulated with positive selection, the rest neutral.
    const double ratio =
        std::pow(double(kBatchMaxCodons) / kBatchMinCodons,
                 1.0 / (kBatchGenes - 1));
    for (int g = 0; g < kBatchGenes; ++g) {
      const int rung = (g * 5) % kBatchGenes;
      const int codons =
          static_cast<int>(std::lround(kBatchMinCodons * std::pow(ratio, rung)));
      char stem[16];
      std::snprintf(stem, sizeof stem, "g%02d", g + 1);
      w.genes.push_back({stem, codons, rung % 2 == 0 ? kBatchOmega2 : 1.0});
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (gene_fit, branch_scan, gene_batch)");
  }
  return w;
}

std::uint64_t geneSeed(std::uint64_t workloadSeed, int geneIndex) {
  return splitmix64(splitmix64(workloadSeed) ^
                    (0x51ed2701u + static_cast<std::uint64_t>(geneIndex)));
}

std::string controlFile(const WorkloadSpec& spec, int threads,
                        const std::string& outfile) {
  std::ostringstream ctl;
  ctl << "* " << spec.name << " workload (generated)\n";
  for (const auto& g : spec.genes) ctl << "seqfile = " << g.name << ".fasta\n";
  ctl << "treefile = tree.nwk\n"
      << "outfile = " << outfile << '\n'
      << "engine = slim-parallel\n"
      << "threads = " << threads << '\n'
      << "gradient = analytic\n"
      << "model = branch-site\n";
  if (spec.scan) ctl << "foreground = every-branch\n";
  ctl << "parallel = auto\n"
      << "maxIterations = 200\n"
      << "CodonFreq = 2\n";
  if (spec.scan)
    ctl << "checkpoint = scan.ckpt\n"
        << "checkpointEverySec = 30\n";
  return ctl.str();
}

void generateWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::string& dir) {
  using namespace slim;
  const auto& gc = bio::GeneticCode::universal();
  sim::Rng treeRng(spec.treeSeed);
  tree::Tree tree = sim::yuleTree(spec.taxa, treeRng);
  sim::pickForegroundBranch(tree, treeRng);
  writeFile(dir + "/truth.nwk", tree.toNewick() + "\n");
  // A scan marks each candidate branch itself, so its input tree is
  // unmarked; the genes are still simulated with selection on one branch.
  tree::Tree start = tree;
  for (int node : start.branches())
    start.setBranchLength(node, kStartLengthScale * tree.branchLength(node));
  writeFile(dir + "/tree.nwk", start.toNewick(!spec.scan) + "\n");

  for (std::size_t g = 0; g < spec.genes.size(); ++g) {
    const GeneSpec& gene = spec.genes[g];
    sim::Rng rng(geneSeed(seed, static_cast<int>(g)));
    const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
    auto params = sim::defaultSimulationParams();
    params.omega2 = gene.omega2;
    const auto h = gene.omega2 > 1 ? model::Hypothesis::H1
                                   : model::Hypothesis::H0;
    const auto out =
        sim::evolveBranchSite(gc, tree, params, h, gene.codons, pi, rng);
    std::ostringstream fasta;
    out.alignment.writeFasta(fasta);
    writeFile(dir + "/" + gene.name + ".fasta", fasta.str());
  }
  writeFile(dir + "/run.ctl", controlFile(spec, spec.threads, "report.txt"));
  if (spec.name == "gene_fit")
    writeFile(dir + "/run_t1.ctl", controlFile(spec, 1, "report_t1.txt"));
}

}  // namespace e2ebench
