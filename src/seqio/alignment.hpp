#pragma once
// Multiple sequence alignments (MSA) of nucleotide data and their codon
// encoding.  The paper's input (Fig. 1) is a codon MSA plus a tagged tree;
// this module owns the MSA side: parsing, validation, codon-state encoding,
// and site-pattern compression (identical alignment columns collapse into
// one pattern with a multiplicity, the standard likelihood speedup that both
// engines share).

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bio/genetic_code.hpp"

namespace slim::seqio {

/// Thrown for malformed alignment input.  The message starts with the
/// input's name (its file path, or "FASTA input" / "PHYLIP input" for an
/// unnamed stream) and names the offending sequence where there is one; it
/// never carries a source location or a C++ condition.
class AlignmentError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One named nucleotide sequence (characters as read; case preserved).
struct Sequence {
  std::string name;
  std::string data;
};

/// A set of equal-length sequences.
class Alignment {
 public:
  void addSequence(std::string name, std::string data);

  std::size_t numSequences() const noexcept { return seqs_.size(); }
  /// Alignment length in nucleotide columns (0 if empty).
  std::size_t length() const noexcept {
    return seqs_.empty() ? 0 : seqs_.front().data.size();
  }

  const Sequence& sequence(std::size_t i) const { return seqs_.at(i); }
  const std::vector<Sequence>& sequences() const noexcept { return seqs_; }

  /// Index of a sequence by name, -1 if absent.
  int find(std::string_view name) const noexcept;

  /// All sequences non-empty, equal length, unique names, length % 3 == 0
  /// when codon = true.  Throws AlignmentError on violation.
  void validate(bool codon = true) const;

  /// The input's name used in error messages (set by the readers).
  const std::string& source() const noexcept { return source_; }

  // --- IO ---
  /// `source` names the input in error messages (pass the file path).
  static Alignment readFasta(std::istream& in,
                             std::string source = "FASTA input");
  static Alignment readFastaString(std::string_view text);
  /// Sequential PHYLIP: header "ns len", then "name  sequence" records whose
  /// sequence part may continue on following lines.
  static Alignment readPhylip(std::istream& in,
                              std::string source = "PHYLIP input");
  static Alignment readPhylipString(std::string_view text);

  void writeFasta(std::ostream& out, std::size_t lineWidth = 60) const;
  void writePhylip(std::ostream& out) const;

 private:
  std::vector<Sequence> seqs_;
  std::string source_ = "alignment";
};

/// Sentinel codon state for gaps / ambiguity (all codon states possible).
inline constexpr int kMissingState = -1;

/// Codon-encoded alignment: states are *sense indices* (0..numSense-1) into
/// the genetic code, or kMissingState where the column contains gaps or
/// ambiguity characters.
struct CodonAlignment {
  const bio::GeneticCode* code = nullptr;
  std::vector<std::string> names;
  /// states[s][i] = sense codon state of sequence s at codon site i.
  std::vector<std::vector<int>> states;
  /// The input's name used in error messages (Alignment::source()).
  std::string source = "alignment";

  std::size_t numSequences() const noexcept { return states.size(); }
  std::size_t numSites() const noexcept {
    return states.empty() ? 0 : states.front().size();
  }
};

/// Encode a nucleotide alignment into codon states.
/// Codons containing any non-TCAG character become kMissingState.
/// Stop codons are an error unless stopAsMissing is true (then missing),
/// because the 61-state model cannot represent them.
CodonAlignment encodeCodons(const Alignment& aln, const bio::GeneticCode& gc,
                            bool stopAsMissing = false);

/// Site patterns: unique alignment columns with multiplicities.
struct SitePatterns {
  /// pattern[p][s] = codon state of sequence s in pattern p.
  std::vector<std::vector<int>> patterns;
  /// Multiplicity (number of sites showing the pattern), same order.
  std::vector<double> weights;
  /// For each original site, the index of its pattern.
  std::vector<int> siteToPattern;

  std::size_t numPatterns() const noexcept { return patterns.size(); }
};

/// Collapse identical columns of a codon alignment.
SitePatterns compressPatterns(const CodonAlignment& ca);

/// Observed codon counts (length numSense), with every sense codon given a
/// +pseudocount to avoid zero frequencies (zeros would make pi singular and
/// the Pi^{1/2} symmetrization of Eq. 2 ill-defined).
std::vector<double> codonCounts(const CodonAlignment& ca, double pseudocount = 0.0);

/// Per-position nucleotide counts: counts[pos][nt] over the 3 codon
/// positions and 4 nucleotides (T,C,A,G order).  Missing codons are skipped.
std::vector<std::vector<double>> positionalNucleotideCounts(const CodonAlignment& ca);

}  // namespace slim::seqio
