#include "seqio/alignment.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "support/require.hpp"

namespace slim::seqio {

void Alignment::addSequence(std::string name, std::string data) {
  SLIM_REQUIRE(!name.empty(), "sequence name must not be empty");
  seqs_.push_back({std::move(name), std::move(data)});
}

int Alignment::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < seqs_.size(); ++i)
    if (seqs_[i].name == name) return static_cast<int>(i);
  return -1;
}

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& what) {
  throw AlignmentError(source + ": " + what);
}

}  // namespace

void Alignment::validate(bool codon) const {
  if (seqs_.empty()) fail(source_, "no sequences");
  const Sequence& first = seqs_.front();
  const std::size_t len = first.data.size();
  if (len == 0) fail(source_, "sequence '" + first.name + "' is empty");
  std::unordered_set<std::string> names;
  for (const auto& s : seqs_) {
    if (s.data.size() != len)
      fail(source_, "sequence '" + s.name + "' has length " +
                        std::to_string(s.data.size()) + ", but sequence '" +
                        first.name + "' has length " + std::to_string(len));
    if (!names.insert(s.name).second)
      fail(source_, "duplicate sequence name '" + s.name + "'");
  }
  if (codon && len % 3 != 0)
    fail(source_, "alignment length " + std::to_string(len) +
                      " is not a multiple of 3");
}

namespace {

bool isBlank(const std::string& line) {
  return std::all_of(line.begin(), line.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

void stripCarriageReturn(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

std::string stripSpaces(std::string_view s) {
  std::string out;
  for (char c : s)
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

}  // namespace

Alignment Alignment::readFasta(std::istream& in, std::string source) {
  Alignment aln;
  aln.source_ = std::move(source);
  std::string line, name, data;
  auto flush = [&]() {
    if (!name.empty()) aln.addSequence(std::move(name), std::move(data));
    name.clear();
    data.clear();
  };
  while (std::getline(in, line)) {
    stripCarriageReturn(line);
    if (line.empty() || isBlank(line)) continue;
    if (line[0] == '>') {
      flush();
      // Name = first whitespace-delimited token after '>'.
      std::istringstream hs(line.substr(1));
      hs >> name;
      if (name.empty()) fail(aln.source_, "FASTA header with an empty name");
    } else {
      if (name.empty()) fail(aln.source_, "sequence data before any header");
      data += stripSpaces(line);
    }
  }
  flush();
  if (aln.numSequences() == 0) fail(aln.source_, "no sequences");
  return aln;
}

Alignment Alignment::readFastaString(std::string_view text) {
  std::istringstream in{std::string(text)};
  return readFasta(in);
}

Alignment Alignment::readPhylip(std::istream& in, std::string source) {
  Alignment aln;
  aln.source_ = std::move(source);
  std::string line;
  // Header: numSequences length.
  std::size_t ns = 0, len = 0;
  while (std::getline(in, line)) {
    stripCarriageReturn(line);
    if (isBlank(line)) continue;
    std::istringstream hs(line);
    if (!(hs >> ns >> len))
      fail(aln.source_, "PHYLIP header must be 'numSequences length'");
    break;
  }
  if (ns == 0 || len == 0)
    fail(aln.source_, "PHYLIP header missing or zero-sized");

  std::string name, data;
  auto flush = [&]() {
    if (!name.empty()) {
      if (data.size() != len)
        fail(aln.source_, "sequence '" + name + "' has length " +
                              std::to_string(data.size()) +
                              ", but the header says " + std::to_string(len));
      aln.addSequence(std::move(name), std::move(data));
    }
    name.clear();
    data.clear();
  };
  while (std::getline(in, line)) {
    stripCarriageReturn(line);
    if (isBlank(line)) continue;
    if (data.size() >= len || name.empty()) {
      // Start of a new record: first token is the name, rest is sequence.
      flush();
      std::istringstream ls(line);
      ls >> name;
      std::string rest;
      std::getline(ls, rest);
      data = stripSpaces(rest);
    } else {
      data += stripSpaces(line);
    }
  }
  flush();
  if (aln.numSequences() != ns)
    fail(aln.source_, "the header says " + std::to_string(ns) +
                          " sequences, but there are " +
                          std::to_string(aln.numSequences()));
  return aln;
}

Alignment Alignment::readPhylipString(std::string_view text) {
  std::istringstream in{std::string(text)};
  return readPhylip(in);
}

void Alignment::writeFasta(std::ostream& out, std::size_t lineWidth) const {
  SLIM_REQUIRE(lineWidth > 0, "line width must be positive");
  for (const auto& s : seqs_) {
    out << '>' << s.name << '\n';
    for (std::size_t i = 0; i < s.data.size(); i += lineWidth)
      out << s.data.substr(i, lineWidth) << '\n';
  }
}

void Alignment::writePhylip(std::ostream& out) const {
  out << numSequences() << ' ' << length() << '\n';
  for (const auto& s : seqs_) out << s.name << "  " << s.data << '\n';
}

CodonAlignment encodeCodons(const Alignment& aln, const bio::GeneticCode& gc,
                            bool stopAsMissing) {
  aln.validate(/*codon=*/true);
  CodonAlignment ca;
  ca.code = &gc;
  ca.source = aln.source();
  const std::size_t nsites = aln.length() / 3;
  for (const auto& s : aln.sequences()) {
    ca.names.push_back(s.name);
    std::vector<int> states(nsites, kMissingState);
    for (std::size_t i = 0; i < nsites; ++i) {
      const std::string_view cod(s.data.data() + 3 * i, 3);
      const auto c64 = bio::codonFromString(cod);
      if (!c64) continue;  // gap or ambiguity: missing
      if (gc.isStop(*c64)) {
        if (!stopAsMissing)
          fail(aln.source(), "stop codon '" + std::string(cod) +
                                 "' in sequence '" + s.name +
                                 "' at codon site " + std::to_string(i + 1) +
                                 " (set cleandata = 1 to treat stop codons "
                                 "as missing data)");
        continue;
      }
      states[i] = gc.senseIndex(*c64);
    }
    ca.states.push_back(std::move(states));
  }
  return ca;
}

SitePatterns compressPatterns(const CodonAlignment& ca) {
  SLIM_REQUIRE(ca.numSequences() > 0, "empty codon alignment");
  const std::size_t ns = ca.numSequences(), nsites = ca.numSites();
  SitePatterns sp;
  sp.siteToPattern.resize(nsites);
  std::map<std::vector<int>, int> seen;
  std::vector<int> column(ns);
  for (std::size_t i = 0; i < nsites; ++i) {
    for (std::size_t s = 0; s < ns; ++s) column[s] = ca.states[s][i];
    auto [it, inserted] = seen.emplace(column, static_cast<int>(sp.patterns.size()));
    if (inserted) {
      sp.patterns.push_back(column);
      sp.weights.push_back(1.0);
    } else {
      sp.weights[it->second] += 1.0;
    }
    sp.siteToPattern[i] = it->second;
  }
  return sp;
}

std::vector<double> codonCounts(const CodonAlignment& ca, double pseudocount) {
  SLIM_REQUIRE(ca.code != nullptr, "codon alignment without a genetic code");
  std::vector<double> counts(ca.code->numSense(), pseudocount);
  for (const auto& row : ca.states)
    for (int s : row)
      if (s != kMissingState) counts[s] += 1.0;
  return counts;
}

std::vector<std::vector<double>> positionalNucleotideCounts(
    const CodonAlignment& ca) {
  SLIM_REQUIRE(ca.code != nullptr, "codon alignment without a genetic code");
  std::vector<std::vector<double>> counts(3, std::vector<double>(4, 0.0));
  for (const auto& row : ca.states)
    for (int s : row) {
      if (s == kMissingState) continue;
      const int c64 = ca.code->codonOfSense(s);
      for (int p = 0; p < 3; ++p)
        counts[p][static_cast<int>(bio::codonBase(c64, p))] += 1.0;
    }
  return counts;
}

}  // namespace slim::seqio
