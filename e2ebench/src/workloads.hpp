#pragma once
// The benchmark's three workloads and their seeded input generator.
//
// Every workload is one slimcodeml_main process on generated inputs: a
// FASTA file per gene, one Newick species tree shared by every gene, and a
// control file that pins the keys defining the workload's shape.  The tree
// the genes evolve on (topology, branch lengths, foreground branch) is a
// constant of the workload; the workload seed draws every gene's codon
// frequencies and sequences, one derived seed per gene.  The same seed always
// writes byte-identical files.
//
// The fits do not start from the truth: the input tree has every branch at
// kStartLengthScale times its simulated length, so each fit has a real lnL
// gap to close.

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct GeneSpec {
  std::string name;   ///< File stem; the report's gene name.
  int codons = 0;
  double omega2 = 1;  ///< Simulation truth; 1 means simulated under H0.
};

/// Input-tree branch length / simulated branch length.  A scaled start keeps
/// the tree's shape, so the fits' work varies little with the seed's data;
/// a uniform start (every branch at 0.1) made it vary several times as much
/// (README.md).
inline constexpr double kStartLengthScale = 2.0;

struct WorkloadSpec {
  std::string name;
  int taxa = 0;
  int threads = 4;  ///< The control file's `threads =`.
  std::uint64_t treeSeed = 0;  ///< Fixes the workload's species tree.
  std::vector<GeneSpec> genes;
  /// An every-branch scan with checkpointing: the input tree is unmarked.
  bool scan = false;
};

/// The workload named `name` ("gene_fit", "branch_scan" or "gene_batch");
/// throws std::invalid_argument for any other name.
WorkloadSpec workloadSpec(const std::string& name);

/// Per-gene simulation seed: a splitmix64 mix of the workload seed and the
/// gene index, so genes are independent and no two seeds share a gene.
std::uint64_t geneSeed(std::uint64_t workloadSeed, int geneIndex);

/// Write tree.nwk (the input tree), truth.nwk (the same topology with the
/// branch lengths the genes were simulated on), <gene>.fasta for every gene
/// and run.ctl into `dir` (which must exist); gene_fit also gets run_t1.ctl,
/// the same run on one thread, whose lnLs must equal the 4-thread run's bit
/// for bit.
void generateWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::string& dir);

/// The control file of a workload, with `threads` worker threads and the
/// text report written to `outfile` (the JSON report to `outfile`.json).
std::string controlFile(const WorkloadSpec& spec, int threads,
                        const std::string& outfile);

}  // namespace e2ebench
