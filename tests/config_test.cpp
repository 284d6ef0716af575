// Tests for the CodeML-style control-file parser and the file-driven
// analysis entry point.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace slim::core {
namespace {

TEST(ConfigParse, FullFile) {
  const auto cfg = Config::parseString(R"(
      * a comment
      seqfile  = gene.fasta
      treefile = gene.nwk    * trailing comment
      outfile  = out.txt
      engine   = codeml
      CodonFreq = 3
      maxIterations = 123
      kappa = 3.5
      omega0 = 0.2
      omega2 = 4.0
      p0 = 0.5
      p1 = 0.25
      cleandata = 1
      seed = 99
  )");
  EXPECT_EQ(cfg.seqfile, "gene.fasta");
  EXPECT_EQ(cfg.treefile, "gene.nwk");
  EXPECT_EQ(cfg.outfile, "out.txt");
  EXPECT_EQ(cfg.engine, EngineKind::CodemlBaseline);
  EXPECT_EQ(cfg.fit.frequencyModel, model::CodonFrequencyModel::F61);
  EXPECT_EQ(cfg.fit.bfgs.maxIterations, 123);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.kappa, 3.5);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.omega0, 0.2);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.omega2, 4.0);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.p0, 0.5);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.p1, 0.25);
  EXPECT_TRUE(cfg.stopCodonsAsMissing);
  EXPECT_EQ(cfg.fit.startJitterSeed, 99u);
}

TEST(ConfigParse, DefaultsApplied) {
  const auto cfg =
      Config::parseString("seqfile = a.fa\ntreefile = a.nwk\n");
  EXPECT_EQ(cfg.engine, EngineKind::Slim);
  EXPECT_EQ(cfg.fit.frequencyModel, model::CodonFrequencyModel::F3x4);
  EXPECT_TRUE(cfg.outfile.empty());
  EXPECT_FALSE(cfg.stopCodonsAsMissing);
  EXPECT_EQ(cfg.fit.tuning.gradient, GradientMode::FiniteDiff);
}

TEST(ConfigParse, GradientModes) {
  const char* base = "seqfile = s\ntreefile = t\ngradient = ";
  EXPECT_EQ(Config::parseString(std::string(base) + "fd\n")
                .fit.tuning.gradient,
            GradientMode::FiniteDiff);
  EXPECT_EQ(Config::parseString(std::string(base) + "analytic\n")
                .fit.tuning.gradient,
            GradientMode::Analytic);
  EXPECT_THROW(Config::parseString(std::string(base) + "newton\n"),
               std::invalid_argument);
}

TEST(ConfigParse, RemovedFdParallelNamesTheReplacements) {
  try {
    Config::parseString("seqfile = s\ntreefile = t\ngradient = fd-parallel\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("fd-parallel"), std::string::npos) << what;
    EXPECT_NE(what.find("'analytic'"), std::string::npos) << what;
    EXPECT_NE(what.find("'fd'"), std::string::npos) << what;
  }
}

TEST(ConfigParse, Errors) {
  // Missing required keys.
  EXPECT_THROW(Config::parseString("treefile = t.nwk\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString("seqfile = s.fa\n"),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nbogus = 1\n"),
               std::invalid_argument);
  // Malformed lines and values.
  EXPECT_THROW(Config::parseString("seqfile\n"), std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nkappa = abc\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nCodonFreq = 7\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nengine = fast\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nmaxIterations = 2.5\n"),
               std::invalid_argument);
}

TEST(ConfigParse, CheckpointKeys) {
  const auto cfg = Config::parseString(
      "seqfile = s\ntreefile = t\ncheckpoint = run.ckpt\n"
      "checkpointEverySec = 2.5\n");
  EXPECT_EQ(cfg.checkpointPath, "run.ckpt");
  EXPECT_DOUBLE_EQ(cfg.checkpointEverySec, 2.5);
  EXPECT_FALSE(cfg.resume);  // --resume is a CLI flag, not a ctl key

  // Defaults: no checkpointing, 30 s throttle.
  const auto plain = Config::parseString("seqfile = s\ntreefile = t\n");
  EXPECT_TRUE(plain.checkpointPath.empty());
  EXPECT_DOUBLE_EQ(plain.checkpointEverySec, 30.0);

  // A negative throttle and a malformed one are keyed errors.
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\ncheckpointEverySec = -1\n"),
               ConfigError);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\ncheckpointEverySec = soon\n"),
               ConfigError);
}

TEST(ConfigParse, SimdModes) {
  const char* base = "seqfile = s\ntreefile = t\nsimd = ";
  EXPECT_EQ(Config::parseString(std::string(base) + "auto\n").fit.tuning.simd,
            linalg::SimdMode::Auto);
  EXPECT_EQ(
      Config::parseString(std::string(base) + "scalar\n").fit.tuning.simd,
      linalg::SimdMode::Scalar);
  EXPECT_EQ(Config::parseString(std::string(base) + "avx2\n").fit.tuning.simd,
            linalg::SimdMode::Avx2);
  EXPECT_EQ(
      Config::parseString(std::string(base) + "avx512\n").fit.tuning.simd,
      linalg::SimdMode::Avx512);
  EXPECT_THROW(Config::parseString(std::string(base) + "sse2\n"), ConfigError);
  // Default when the key is absent.
  EXPECT_EQ(Config::parseString("seqfile = s\ntreefile = t\n").fit.tuning.simd,
            linalg::SimdMode::Auto);
}

// Malformed or overflowing numerics must surface as a ConfigError naming
// the key and the line — never as a bare std::out_of_range from std::stod
// or as undefined behaviour in a narrowing cast.
TEST(ConfigParse, NumericFuzzRejectsHostileValues) {
  const auto expectKeyedError = [](const std::string& line,
                                   const std::string& key) {
    const std::string text = "seqfile = s\ntreefile = t\n" + line + "\n";
    try {
      Config::parseString(text);
      FAIL() << "expected ConfigError for: " << line;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
  };
  expectKeyedError("kappa = 1e999", "kappa");          // double overflow
  expectKeyedError("kappa = -1e999", "kappa");         // negative overflow
  expectKeyedError("kappa = nan", "kappa");            // stod parses, reject
  expectKeyedError("kappa = inf", "kappa");            // stod parses, reject
  expectKeyedError("kappa = 1.2.3", "kappa");          // trailing garbage
  expectKeyedError("kappa = --5", "kappa");            // not a number
  expectKeyedError("omega2 = 2,5", "omega2");          // locale-style comma
  expectKeyedError("p0 = 0x", "p0");                   // incomplete hex
  expectKeyedError("maxIterations = 1e12", "maxIterations");  // > int range
  expectKeyedError("maxIterations = 2.5", "maxIterations");   // fraction
  expectKeyedError("threads = 1e300", "threads");      // > int range
  expectKeyedError("seed = -3", "seed");               // negative seed
  expectKeyedError("seed = 2e19", "seed");             // >= 2^64: UB cast
  expectKeyedError("seed = 2.5", "seed");              // fractional seed
  // ConfigError still is-a std::invalid_argument for legacy catch sites.
  EXPECT_THROW(
      Config::parseString("seqfile = s\ntreefile = t\nkappa = 1e999\n"),
      std::invalid_argument);
}

TEST(ConfigParse, ErrorMentionsLineNumber) {
  try {
    Config::parseString("seqfile = s\ntreefile = t\nbogus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

class ConfigRun : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return testing::TempDir() + "slimcfg_" + name;
  }
  void write(const std::string& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  }
};

TEST_F(ConfigRun, EndToEnd) {
  const std::string fasta = path("gene.fasta");
  const std::string nwk = path("gene.nwk");
  const std::string out = path("out.txt");
  const std::string ctl = path("run.ctl");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  write(nwk, "((a:0.05,b:0.05) #1:0.03,(c:0.08,d:0.12):0.02);");
  write(ctl, "seqfile = " + fasta + "\ntreefile = " + nwk +
                 "\noutfile = " + out + "\nmaxIterations = 4\n");

  const auto cfg = Config::parseFile(ctl);
  const auto test = runFromConfig(cfg);
  EXPECT_TRUE(std::isfinite(test.h0.lnL));
  EXPECT_TRUE(std::isfinite(test.h1.lnL));

  std::ifstream report(out);
  ASSERT_TRUE(report.good());
  std::string content((std::istreambuf_iterator<char>(report)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("LRT"), std::string::npos);
  std::remove(fasta.c_str());
  std::remove(nwk.c_str());
  std::remove(out.c_str());
  std::remove(ctl.c_str());
}

TEST_F(ConfigRun, PhylipInputDetected) {
  const std::string phy = path("gene.phy");
  const std::string nwk = path("gene2.nwk");
  const std::string ctl = path("run2.ctl");
  write(phy,
        "3 9\na  ATGGCTAAA\nb  ATGGCTAAG\nc  ATGGCAAAA\n");
  write(nwk, "(a:0.05,b:0.05,c:0.08 #1);");
  write(ctl, "seqfile = " + phy + "\ntreefile = " + nwk +
                 "\noutfile = -\nmaxIterations = 2\n");
  const auto test = runFromConfig(Config::parseFile(ctl));
  EXPECT_TRUE(std::isfinite(test.h1.lnL));
  std::remove(phy.c_str());
  std::remove(nwk.c_str());
  std::remove(ctl.c_str());
}

TEST(ConfigParse, ModelSelection) {
  const auto site = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = site\n");
  EXPECT_EQ(site.analysis, AnalysisKind::Site);
  const auto bs = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = branch-site\n");
  EXPECT_EQ(bs.analysis, AnalysisKind::BranchSite);
  const auto br = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = branch\n");
  EXPECT_EQ(br.analysis, AnalysisKind::Branch);
  const auto cc = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = clade-c\n");
  EXPECT_EQ(cc.analysis, AnalysisKind::CladeC);
  EXPECT_THROW(
      Config::parseString("seqfile = s\ntreefile = t\nmodel = M8\n"),
      std::invalid_argument);
  try {
    Config::parseString("seqfile = s\ntreefile = t\nmodel = M8\n");
    FAIL() << "expected keyed error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'clade-c'"), std::string::npos);
  }
}

// Site models have no foreground: the pair is one keyed parse error, which
// the CLI, batch runs and daemon submissions all reach.
TEST(ConfigParse, ForegroundWithSiteModelIsAKeyedError) {
  for (const char* foreground : {"every-branch", "human,chimp"}) {
    try {
      Config::parseString(std::string("seqfile = s\ntreefile = t\nmodel = "
                                      "site\nforeground = ") +
                          foreground + "\n");
      ADD_FAILURE() << "expected a ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("'foreground ='"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("'model = site'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigParse, ForegroundSelector) {
  // Default: no scan.
  EXPECT_TRUE(Config::parseString("seqfile = s\ntreefile = t\n")
                  .foreground.empty());
  // Labels / node ids, comma within a set, semicolon between sets, and the
  // every-branch keyword all pass through verbatim ('#' would open a ctl
  // comment, so marks are never spelled here).
  const auto scan = Config::parseString(
      "seqfile = s\ntreefile = t\nforeground = human,chimp; gorilla\n");
  EXPECT_EQ(scan.foreground, "human,chimp; gorilla");
  const auto every = Config::parseString(
      "seqfile = s\ntreefile = t\nforeground = every-branch\n");
  EXPECT_EQ(every.foreground, "every-branch");
}

TEST_F(ConfigRun, SiteModelEndToEnd) {
  const std::string fasta = path("sgene.fasta");
  const std::string nwk = path("sgene.nwk");
  const std::string ctl = path("srun.ctl");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  // No #1 mark required for site models.
  write(nwk, "((a:0.05,b:0.05):0.03,(c:0.08,d:0.12):0.02);");
  write(ctl, "seqfile = " + fasta + "\ntreefile = " + nwk +
                 "\nmodel = site\noutfile = -\nmaxIterations = 3\n");
  const auto cfg = Config::parseFile(ctl);
  const auto test = runFromConfig(cfg);
  EXPECT_EQ(test.h0.modelKind, model::ModelKind::Site);
  EXPECT_TRUE(std::isfinite(test.h0.lnL));  // M1a
  EXPECT_TRUE(std::isfinite(test.h1.lnL));  // M2a
  EXPECT_DOUBLE_EQ(test.lrt.df, 2.0);
  EXPECT_EQ(modelSpecFor(AnalysisKind::Site, 3), model::ModelSpec::site());
  // The batch runner takes the same control file.
  const auto batch = runBatchFromConfig(cfg);
  ASSERT_EQ(batch.tests.size(), 1u);
  EXPECT_EQ(batch.tests[0].h1.lnL, test.h1.lnL);
  std::remove(fasta.c_str());
  std::remove(nwk.c_str());
  std::remove(ctl.c_str());
}

// Bad inputs fail with a message that names the input file and the
// offending leaf, position or key — never a source path or a C++ condition.
TEST_F(ConfigRun, InputErrorsNameTheInput) {
  const std::string fasta = path("in.fasta");
  const std::string twoFasta = path("in2.fasta");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  write(twoFasta, ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n");
  struct Case {
    const char* name;
    std::string seqfile;
    const char* newick;  // nullptr: the tree file is never written
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {"leaf missing from the alignment", fasta,
       "((a:0.1,chimpx:0.2) #1:0.1,(c:0.3,d:0.1):0.05);",
       {"leaf 'chimpx'", "in.fasta"}},
      {"negative branch length", fasta,
       "((a:0.1,b:-0.2) #1:0.1,(c:0.3,d:0.1):0.05);",
       {"position", "branch length"}},
      {"no terminating ';'", fasta,
       "((a:0.1,b:0.2) #1:0.1,(c:0.3,d:0.1):0.05)", {"position", "';'"}},
      {"missing tree file", fasta, nullptr, {"cannot open tree file"}},
      {"two leaves, no mark", twoFasta, "(a:0.1,b:0.2);",
       {"no branch is marked"}},
      {"duplicated leaf", fasta,
       "((a:0.1,a:0.2) #1:0.1,(c:0.3,d:0.1):0.05);",
       {"leaf 'a'", "more than once"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string nwk = path("in_tree.nwk");
    std::remove(nwk.c_str());
    if (c.newick) write(nwk, c.newick);
    Config cfg;
    cfg.seqfile = c.seqfile;
    cfg.seqfiles = {c.seqfile};
    cfg.treefile = nwk;
    cfg.outfile = "-";
    cfg.fit.bfgs.maxIterations = 1;
    try {
      runFromConfig(cfg);
      ADD_FAILURE() << "expected an input error";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("in_tree.nwk"), std::string::npos) << what;
      for (const auto& part : c.expected)
        EXPECT_NE(what.find(part), std::string::npos) << what;
      EXPECT_EQ(what.find("src/"), std::string::npos) << what;
      EXPECT_EQ(what.find("requirement failed"), std::string::npos) << what;
    }
    std::remove(nwk.c_str());
  }
  std::remove(fasta.c_str());
  std::remove(twoFasta.c_str());
}

TEST_F(ConfigRun, MissingFilesRaise) {
  EXPECT_THROW(Config::parseFile(path("nonexistent.ctl")),
               std::invalid_argument);
  Config cfg;
  cfg.seqfile = path("missing.fa");
  cfg.treefile = path("missing.nwk");
  EXPECT_THROW(runFromConfig(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace slim::core
