// Tests for alignment IO, codon encoding and site-pattern compression.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "seqio/alignment.hpp"

namespace slim::seqio {
namespace {

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

// ---------- FASTA ----------

TEST(Fasta, ParsesMultilineRecords) {
  const auto aln = Alignment::readFastaString(
      ">seq1 description ignored\nATGAAA\nTTT\n>seq2\nATGAAACCC\n");
  ASSERT_EQ(aln.numSequences(), 2u);
  EXPECT_EQ(aln.sequence(0).name, "seq1");
  EXPECT_EQ(aln.sequence(0).data, "ATGAAATTT");
  EXPECT_EQ(aln.sequence(1).data, "ATGAAACCC");
}

TEST(Fasta, SkipsBlankLinesAndCarriageReturns) {
  const auto aln = Alignment::readFastaString(">a\r\nATG\r\n\r\n>b\nCCC\n");
  ASSERT_EQ(aln.numSequences(), 2u);
  EXPECT_EQ(aln.sequence(0).data, "ATG");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  EXPECT_THROW(Alignment::readFastaString("ATG\n>a\nATG\n"),
               std::invalid_argument);
}

TEST(Fasta, RejectsEmptyInput) {
  EXPECT_THROW(Alignment::readFastaString("\n\n"), std::invalid_argument);
}

TEST(Fasta, WriteReadRoundTrip) {
  Alignment aln;
  aln.addSequence("alpha", "ATGAAATTTCCCGGG");
  aln.addSequence("beta", "ATGAAATTTCCCGGA");
  std::ostringstream os;
  aln.writeFasta(os, /*lineWidth=*/6);
  const auto back = Alignment::readFastaString(os.str());
  ASSERT_EQ(back.numSequences(), 2u);
  EXPECT_EQ(back.sequence(0).data, aln.sequence(0).data);
  EXPECT_EQ(back.sequence(1).name, "beta");
}

// ---------- PHYLIP ----------

TEST(Phylip, ParsesSequentialFormat) {
  const auto aln = Alignment::readPhylipString(
      "2 9\nape  ATGAAATTT\nmonkey  ATG AAA CCC\n");
  ASSERT_EQ(aln.numSequences(), 2u);
  EXPECT_EQ(aln.sequence(1).name, "monkey");
  EXPECT_EQ(aln.sequence(1).data, "ATGAAACCC");
}

TEST(Phylip, ParsesContinuationLines) {
  const auto aln =
      Alignment::readPhylipString("1 9\nape  ATGAAA\nTTT\n");
  ASSERT_EQ(aln.numSequences(), 1u);
  EXPECT_EQ(aln.sequence(0).data, "ATGAAATTT");
}

TEST(Phylip, RejectsCountMismatch) {
  EXPECT_THROW(Alignment::readPhylipString("3 9\nape ATGAAATTT\n"),
               std::invalid_argument);
  EXPECT_THROW(Alignment::readPhylipString("1 6\nape ATGAAATTT\n"),
               std::invalid_argument);
}

TEST(Phylip, WriteReadRoundTrip) {
  Alignment aln;
  aln.addSequence("a", "ATGATG");
  aln.addSequence("b", "ATGATC");
  std::ostringstream os;
  aln.writePhylip(os);
  const auto back = Alignment::readPhylipString(os.str());
  EXPECT_EQ(back.sequence(1).data, "ATGATC");
}

// ---------- validation ----------

TEST(Alignment, ValidateCatchesRaggedLengths) {
  Alignment aln;
  aln.addSequence("a", "ATGATG");
  aln.addSequence("b", "ATG");
  EXPECT_THROW(aln.validate(), std::invalid_argument);
}

TEST(Alignment, ValidateCatchesDuplicateNames) {
  Alignment aln;
  aln.addSequence("a", "ATG");
  aln.addSequence("a", "ATG");
  EXPECT_THROW(aln.validate(), std::invalid_argument);
}

TEST(Alignment, ValidateCatchesNonCodonLength) {
  Alignment aln;
  aln.addSequence("a", "ATGA");
  EXPECT_THROW(aln.validate(/*codon=*/true), std::invalid_argument);
  EXPECT_NO_THROW(aln.validate(/*codon=*/false));
}

// Input errors name the input and the sequence, and never leak a source
// path or a C++ condition.
void expectInputError(const std::function<void()>& run,
                      const std::vector<std::string>& mustName) {
  try {
    run();
    FAIL() << "expected AlignmentError";
  } catch (const AlignmentError& e) {
    const std::string msg = e.what();
    for (const auto& s : mustName)
      EXPECT_NE(msg.find(s), std::string::npos) << msg;
    EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("requirement failed"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("=="), std::string::npos) << msg;
  }
}

TEST(Alignment, InputErrorsNameTheInputAndSequence) {
  const auto fastaCodons = [](const std::string& text) {
    std::istringstream in(text);
    encodeCodons(Alignment::readFasta(in, "genes/g1.fasta"), gc());
  };
  expectInputError([&] { fastaCodons(">a\nATGATG\n>b\nATGAT\n"); },
                   {"genes/g1.fasta: ", "'b'", "length 5"});
  expectInputError([&] { fastaCodons(">a\nATGATG\n>a\nATGATG\n"); },
                   {"genes/g1.fasta: ", "duplicate", "'a'"});
  expectInputError(
      [] {
        std::istringstream in("2 6\na  ATGATG\nb  ATGAT\n");
        Alignment::readPhylip(in, "genes/g2.phy");
      },
      {"genes/g2.phy: ", "'b'", "length 5", "header says 6"});
  // Unnamed streams still say what kind of input failed.
  expectInputError([] { Alignment::readFastaString("ATG\n"); },
                   {"FASTA input: "});
}

TEST(Alignment, FindByName) {
  Alignment aln;
  aln.addSequence("x", "ATG");
  aln.addSequence("y", "CCC");
  EXPECT_EQ(aln.find("y"), 1);
  EXPECT_EQ(aln.find("z"), -1);
}

// ---------- codon encoding ----------

TEST(Encode, BasicStates) {
  Alignment aln;
  aln.addSequence("a", "ATGTTT");
  const auto ca = encodeCodons(aln, gc());
  ASSERT_EQ(ca.numSites(), 2u);
  EXPECT_EQ(ca.states[0][0], gc().senseIndex(*bio::codonFromString("ATG")));
  EXPECT_EQ(ca.states[0][1], gc().senseIndex(*bio::codonFromString("TTT")));
}

TEST(Encode, GapsAndAmbiguityBecomeMissing) {
  Alignment aln;
  aln.addSequence("a", "---ATGANNA-G");
  const auto ca = encodeCodons(aln, gc());
  ASSERT_EQ(ca.numSites(), 4u);
  EXPECT_EQ(ca.states[0][0], kMissingState);   // ---
  EXPECT_NE(ca.states[0][1], kMissingState);   // ATG
  EXPECT_EQ(ca.states[0][2], kMissingState);   // ANN
  EXPECT_EQ(ca.states[0][3], kMissingState);   // A-G
}

TEST(Encode, StopCodonIsErrorByDefault) {
  Alignment aln;
  aln.addSequence("a", "TAAATG");
  EXPECT_THROW(encodeCodons(aln, gc()), std::invalid_argument);
  const auto ca = encodeCodons(aln, gc(), /*stopAsMissing=*/true);
  EXPECT_EQ(ca.states[0][0], kMissingState);
}

TEST(Encode, MitochondrialCodeChangesStops) {
  Alignment aln;
  aln.addSequence("a", "TGATGG");
  // TGA is a stop in the universal code but Trp in vertebrate mito.
  EXPECT_THROW(encodeCodons(aln, gc()), std::invalid_argument);
  EXPECT_NO_THROW(encodeCodons(aln, bio::GeneticCode::vertebrateMitochondrial()));
}

// ---------- site patterns ----------

TEST(Patterns, CompressesIdenticalColumns) {
  Alignment aln;
  aln.addSequence("a", "ATGATGTTT");
  aln.addSequence("b", "ATGATGTTC");
  const auto ca = encodeCodons(aln, gc());
  const auto sp = compressPatterns(ca);
  // Columns: (ATG,ATG), (ATG,ATG), (TTT,TTC) -> 2 patterns.
  ASSERT_EQ(sp.numPatterns(), 2u);
  EXPECT_DOUBLE_EQ(sp.weights[0], 2.0);
  EXPECT_DOUBLE_EQ(sp.weights[1], 1.0);
  EXPECT_EQ(sp.siteToPattern, (std::vector<int>{0, 0, 1}));
}

TEST(Patterns, WeightsSumToSiteCount) {
  Alignment aln;
  aln.addSequence("a", "ATGATGTTTATGCCC");
  aln.addSequence("b", "ATGCTGTTCATGCCA");
  const auto sp = compressPatterns(encodeCodons(aln, gc()));
  double total = 0;
  for (double w : sp.weights) total += w;
  EXPECT_DOUBLE_EQ(total, 5.0);
  EXPECT_EQ(sp.siteToPattern.size(), 5u);
}

TEST(Patterns, MissingDistinguishedFromPresent) {
  Alignment aln;
  aln.addSequence("a", "ATG---");
  aln.addSequence("b", "ATGATG");
  const auto sp = compressPatterns(encodeCodons(aln, gc()));
  EXPECT_EQ(sp.numPatterns(), 2u);
}

TEST(Patterns, AllSitesDistinct) {
  Alignment aln;
  aln.addSequence("a", "ATGTTTCCC");
  const auto sp = compressPatterns(encodeCodons(aln, gc()));
  EXPECT_EQ(sp.numPatterns(), 3u);
}

// ---------- counting ----------

TEST(Counts, CodonCountsSkipMissing) {
  Alignment aln;
  aln.addSequence("a", "ATGATG---");
  const auto ca = encodeCodons(aln, gc());
  const auto counts = codonCounts(ca);
  double total = 0;
  for (double c : counts) total += c;
  EXPECT_DOUBLE_EQ(total, 2.0);
  EXPECT_DOUBLE_EQ(counts[gc().senseIndex(*bio::codonFromString("ATG"))], 2.0);
}

TEST(Counts, PseudocountApplied) {
  Alignment aln;
  aln.addSequence("a", "ATG");
  const auto counts = codonCounts(encodeCodons(aln, gc()), 0.5);
  double total = 0;
  for (double c : counts) total += c;
  EXPECT_DOUBLE_EQ(total, 0.5 * 61 + 1.0);
}

TEST(Counts, PositionalNucleotideCounts) {
  Alignment aln;
  aln.addSequence("a", "ATGCTG");
  const auto pos = positionalNucleotideCounts(encodeCodons(aln, gc()));
  // Position 0: A and C -> one A, one C.
  EXPECT_DOUBLE_EQ(pos[0][static_cast<int>(bio::Nucleotide::A)], 1.0);
  EXPECT_DOUBLE_EQ(pos[0][static_cast<int>(bio::Nucleotide::C)], 1.0);
  // Position 1: T twice.
  EXPECT_DOUBLE_EQ(pos[1][static_cast<int>(bio::Nucleotide::T)], 2.0);
  // Position 2: G twice.
  EXPECT_DOUBLE_EQ(pos[2][static_cast<int>(bio::Nucleotide::G)], 2.0);
}

}  // namespace
}  // namespace slim::seqio
