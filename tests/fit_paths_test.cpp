// Fit trajectories of every model instance, pinned bit for bit.
//
// Each of the eight ModelSpec instances (branch-site A, branch and clade
// model C under H0/H1, and M1a/M2a) is fitted through the control-file runner
// on one small simulated gene with gaps, under `gradient = fd` and
// `gradient = analytic`.  The lnL, the substitution parameters, the class
// omegas, the branch lengths and the iteration count of every fit are
// compared as C99 hex floats against literals recorded before the fit
// drivers were merged: any change to a kind's coordinate order, transforms,
// spec builder or start values shows up here as a changed bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/datasets.hpp"

namespace slim::core {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hexList(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) s += ' ';
    s += hex(values[i]);
  }
  return s + "]";
}

// One fit as a line of hex floats.
std::string fingerprint(const FitResult& f) {
  const model::BranchSiteParams& p = f.params;
  return "lnL=" + hex(f.lnL) + " kappa=" + hex(p.kappa) + " omega0=" +
         hex(p.omega0) + " omega2=" + hex(p.omega2) + " p0=" + hex(p.p0) +
         " p1=" + hex(p.p1) + " classOmegas=" + hexList(f.classOmegas) +
         " t=" + hexList(f.branchLengths) +
         " iterations=" + std::to_string(f.iterations);
}

class FitPaths : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return testing::TempDir() + "slimfitpaths_" + name;
  }

  // A 5-taxon, 24-codon simulated gene with one marked branch; every
  // seventh (sequence, codon) cell is a gap.
  void writeInputs() {
    const sim::Dataset ds = sim::makeSweepDataset(5, /*seed=*/71, 24);
    seqio::Alignment gappy;
    const auto& seqs = ds.alignment.sequences();
    for (std::size_t s = 0; s < seqs.size(); ++s) {
      std::string data = seqs[s].data;
      for (std::size_t i = 0; 3 * i < data.size(); ++i)
        if ((s + 3 * i) % 7 == 0) data.replace(3 * i, 3, "---");
      gappy.addSequence(seqs[s].name, data);
    }
    std::ofstream(path("gene.fasta")) << [&] {
      std::ostringstream os;
      gappy.writeFasta(os);
      return os.str();
    }();
    std::ofstream(path("gene.nwk")) << ds.tree.toNewick(true) << '\n';
  }

  Config config(const char* model, const char* gradient) {
    return Config::parseString(
        "seqfile = " + path("gene.fasta") + "\ntreefile = " +
        path("gene.nwk") + "\noutfile = " + path("report.txt") +
        "\nmodel = " + model + "\ngradient = " + gradient +
        "\nmaxIterations = 12\nthreads = 1\n");
  }
};

TEST_F(FitPaths, TrajectoryBitsPinned) {
#ifdef __FMA__
  GTEST_SKIP() << "FMA contraction changes the scalar loops' rounding";
#endif
  writeInputs();
  struct Case {
    const char* model;
    const char* gradient;
    const char* h0;
    const char* h1;
  };
  const Case cases[] = {
      {"branch-site", "fd",
       "lnL=-0x1.8d2be4496cf48p+7 kappa=0x1.56f98dfd0f2bfp+0 "
       "omega0=0x1.230bf16a48fb4p-3 omega2=0x1p+0 p0=0x1.503d1ac8fde4ep-3 "
       "p1=0x1.56fc9ef063b9fp-3 classOmegas=[] t=[0x1.30dd04dac952bp-3 "
       "0x1.c48c34886aabap-19 0x1.501e940176383p-3 0x1.3cd36d515d602p-3 "
       "0x1.01aa7e1eec4cfp-5 0x1.57304089c3192p-2 0x1.52890a64be974p-2 "
       "0x1.fb6107f1e3a27p-6] iterations=12",
       "lnL=-0x1.89155dd9eba28p+7 kappa=0x1.88e843f575e4cp+0 "
       "omega0=0x1.8b8307e93bcf1p-5 omega2=0x1.b13c6d332c8ep+4 "
       "p0=0x1.65514502d1c8ep-5 p1=0x1.ae3db580714p-5 classOmegas=[] "
       "t=[0x1.149877299fc05p-3 0x1.1c14ff04ad0a4p-14 0x1.6b964e589379fp-7 "
       "0x1.65931ec77e4cep-3 0x1.d06522aea613bp-7 0x1.3c316a12a3ebep-2 "
       "0x1.5898c8445cfc3p-2 0x1.05e208531170fp-6] iterations=12"},
      {"branch-site", "analytic",
       "lnL=-0x1.8d2bdbcdf7482p+7 kappa=0x1.56f87802d3a5ap+0 "
       "omega0=0x1.230dc7e9f1f11p-3 omega2=0x1p+0 p0=0x1.5034fe810cdd8p-3 "
       "p1=0x1.56e9a0c5b96bcp-3 classOmegas=[] t=[0x1.30de38c548b3p-3 "
       "0x1.c4448d5bc520ep-19 0x1.50192a24a76f1p-3 0x1.3cd3a72680c0ep-3 "
       "0x1.01a5b24c05427p-5 0x1.5731b059791a8p-2 0x1.528aba30ec572p-2 "
       "0x1.fb5f6f8647874p-6] iterations=12",
       "lnL=-0x1.891561b75e39dp+7 kappa=0x1.88e8eb7b9e1c9p+0 "
       "omega0=0x1.8b8505720754cp-5 omega2=0x1.b1344420d8901p+4 "
       "p0=0x1.6557737ea3671p-5 p1=0x1.ae4a20b73a123p-5 classOmegas=[] "
       "t=[0x1.1498f895ee5ap-3 0x1.1c1e5976a78a6p-14 0x1.6b9e8c14c1b9dp-7 "
       "0x1.6594dba783e1bp-3 0x1.d0690fc7a66dep-7 0x1.3c317fdec635ep-2 "
       "0x1.5898f68f3997cp-2 0x1.05e3248f00edfp-6] iterations=12"},
      {"branch", "fd",
       "lnL=-0x1.8f20a36828d22p+7 kappa=0x1.9010f2516485ap+0 "
       "omega0=0x1.999999999999ap-4 omega2=0x1p+1 p0=0x1.ccccccccccccdp-2 "
       "p1=0x1.ccccccccccccdp-2 classOmegas=[0x1.faa71a2ae7314p-1] "
       "t=[0x1.4143768ae4606p-3 0x1.4af2cc58a3024p-10 0x1.aedb9a0c7804ep-3 "
       "0x1.3c86d0c56e2c1p-3 0x1.0cf89432dc066p-4 0x1.1e80fd4ed7627p-2 "
       "0x1.217ac2daf2056p-2 0x1.17c9c2dd9d47ep-5] iterations=12",
       "lnL=-0x1.9846a8ebc761ep+7 kappa=0x1.00f22f4ee2b0ep+1 "
       "omega0=0x1.999999999999ap-4 omega2=0x1p+1 p0=0x1.ccccccccccccdp-2 "
       "p1=0x1.ccccccccccccdp-2 classOmegas=[0x1.356e8db423a9fp+0 "
       "0x1.801f56df5adb7p-7] t=[0x1.bd7d993f82605p-3 0x1.d39b93c53f18ap-9 "
       "0x1.091e752fabeefp-12 0x1.12363122ca4eap-2 0x1.e6633d33502dcp-3 "
       "0x1.43063d1a3a94ep-2 0x1.c839230fe2a3cp-3 0x1.97fda6f613fe5p-5] "
       "iterations=12"},
      {"branch", "analytic",
       "lnL=-0x1.8f20a35c9af86p+7 kappa=0x1.9010bdda8d4bep+0 "
       "omega0=0x1.999999999999ap-4 omega2=0x1p+1 p0=0x1.ccccccccccccdp-2 "
       "p1=0x1.ccccccccccccdp-2 classOmegas=[0x1.faa6efc2c773ap-1] "
       "t=[0x1.4143887255034p-3 0x1.4aefc939d0d9dp-10 0x1.aedbb2a9f87bcp-3 "
       "0x1.3c86ce3f14a67p-3 0x1.0cf8616c66659p-4 0x1.1e80e944bd388p-2 "
       "0x1.217abbcd7992ep-2 0x1.17c9c2407aa38p-5] iterations=12",
       "lnL=-0x1.9846a9a499577p+7 kappa=0x1.00f226eee0aacp+1 "
       "omega0=0x1.999999999999ap-4 omega2=0x1p+1 p0=0x1.ccccccccccccdp-2 "
       "p1=0x1.ccccccccccccdp-2 classOmegas=[0x1.356ec22f0af87p+0 "
       "0x1.8020183080509p-7] t=[0x1.bd7d3f075301bp-3 0x1.d3a35c3f38cd5p-9 "
       "0x1.091ef4185a787p-12 0x1.12360bcd68754p-2 0x1.e663ef81fa7dap-3 "
       "0x1.4306195f0c017p-2 0x1.c83833b7076f1p-3 0x1.97fd983b85a78p-5] "
       "iterations=12"},
      {"clade-c", "fd",
       "lnL=-0x1.8e41b63f2b3ccp+7 kappa=0x1.9f8a113f48291p+0 "
       "omega0=0x1.8e8f8d6dccdbcp-3 omega2=0x1p+1 p0=0x1.76c9859e6356fp-4 "
       "p1=0x1.a3a8db59c0691p-1 classOmegas=[0x1.e0d3219189e48p+1] "
       "t=[0x1.3a3ff62fcc254p-3 0x1.08607ac591b24p-11 0x1.b14e0f1090a2fp-3 "
       "0x1.4dc5ceee66cc5p-3 0x1.0acd3c2ef7447p-4 0x1.2a3cdb9528198p-2 "
       "0x1.2e64806d7594cp-2 0x1.1c662992cc799p-5] iterations=12",
       "lnL=-0x1.8cd290378acap+7 kappa=0x1.a6a828ac2aeeap+0 "
       "omega0=0x1.b12f3e37fce3p-3 omega2=0x1p+1 p0=0x1.c77e80a51c537p-5 "
       "p1=0x1.b7c0558fb763p-1 classOmegas=[0x1.99dad28cf1d44p+2 "
       "0x1.a413ed128d765p-5] t=[0x1.2ca3fc0df5a47p-3 "
       "0x1.c464f10acf418p-12 0x1.4f09226aeb143p-2 0x1.41f302617f158p-3 "
       "0x1.390ab0f5867d6p-5 0x1.3ea9198f14b68p-2 0x1.3e727d3ab872ap-2 "
       "0x1.dca4a9776ea21p-6] iterations=12"},
      {"clade-c", "analytic",
       "lnL=-0x1.8e41b6467adc9p+7 kappa=0x1.9f89fb5a7b0ebp+0 "
       "omega0=0x1.8e8eb44990683p-3 omega2=0x1p+1 p0=0x1.76ca979b51a5ep-4 "
       "p1=0x1.a3a8ccba82f5ap-1 classOmegas=[0x1.e0d34fcbb3676p+1] "
       "t=[0x1.3a3fcf11469bbp-3 0x1.08632efbb2ad5p-11 0x1.b14e111e69df3p-3 "
       "0x1.4dc5ca445d49p-3 0x1.0acd41fd1b10ep-4 0x1.2a3ce5bb04a6p-2 "
       "0x1.2e6482dd886cdp-2 0x1.1c661fffdcd4ep-5] iterations=12",
       "lnL=-0x1.8cd2902db36c9p+7 kappa=0x1.a6a8711fa281cp+0 "
       "omega0=0x1.b130b651ff192p-3 omega2=0x1p+1 p0=0x1.c77c60368d4e1p-5 "
       "p1=0x1.b7c059d4b9341p-1 classOmegas=[0x1.99db5d7e22611p+2 "
       "0x1.a40f062130486p-5] t=[0x1.2ca43ba0723c1p-3 "
       "0x1.c45ffa2dc7959p-12 0x1.4f0990de4b2a9p-2 0x1.41f33d1455a07p-3 "
       "0x1.390a0266c801dp-5 0x1.3ea942decbc24p-2 0x1.3e72aed9b6cf3p-2 "
       "0x1.dca46e750a9dep-6] iterations=12"},
      {"site", "fd",
       "lnL=-0x1.8ed87a5be9b54p+7 kappa=0x1.888784aa1761dp+0 "
       "omega0=0x1.403bae37de54bp-3 omega2=0x1p+1 p0=0x1.35e2cc77fd579p-3 "
       "p1=0x1.b2874ce200aa2p-1 classOmegas=[] t=[0x1.33e8f73c47275p-3 "
       "0x1.36984f9b32406p-11 0x1.b05d02c3e5f3p-3 0x1.46b728b18b692p-3 "
       "0x1.02c1018794802p-4 0x1.275bf8cefc2d6p-2 0x1.28c6093989a75p-2 "
       "0x1.1b696bceb8713p-5] iterations=12",
       "lnL=-0x1.8e437f3b96a2ep+7 kappa=0x1.9fcac8c4cdaacp+0 "
       "omega0=0x1.a4d7a76db884fp-3 omega2=0x1.f0f7cc5d392cbp+1 "
       "p0=0x1.445d0730e557fp-4 p1=0x1.ad5f2233676aap-1 classOmegas=[] "
       "t=[0x1.3b0511421092p-3 0x1.3225ebc0cdf74p-11 0x1.abcebf16395dcp-3 "
       "0x1.4e3ea1b46798ap-3 0x1.17bd5100772bp-4 0x1.28dcd3b8e2d8cp-2 "
       "0x1.2c3aef7f20728p-2 0x1.24f626cbb998bp-5] iterations=12"},
      {"site", "analytic",
       "lnL=-0x1.8ed87a6b8e126p+7 kappa=0x1.8887a867e7ce7p+0 "
       "omega0=0x1.403a475a189bp-3 omega2=0x1p+1 p0=0x1.35e16ea0b0729p-3 "
       "p1=0x1.b287a457d3e36p-1 classOmegas=[] t=[0x1.33e8ff6683b94p-3 "
       "0x1.369977e275ecdp-11 0x1.b05cfa67eba21p-3 0x1.46b72a1c01bcbp-3 "
       "0x1.02c0ee0457638p-4 0x1.275bfac82ecd7p-2 0x1.28c612361c0cep-2 "
       "0x1.1b695a2f6f83bp-5] iterations=12",
       "lnL=-0x1.8e437f30c744dp+7 kappa=0x1.9fcae651e5464p+0 "
       "omega0=0x1.a4d7fd500bdd4p-3 omega2=0x1.f0f814426f0e2p+1 "
       "p0=0x1.445c55e288ce9p-4 p1=0x1.ad5f1e6c08d03p-1 classOmegas=[] "
       "t=[0x1.3b05404df7091p-3 0x1.32220c94f6fd5p-11 0x1.abceb95ef01f4p-3 "
       "0x1.4e3eba710ff7cp-3 0x1.17bd261c26c6fp-4 0x1.28dce99caea43p-2 "
       "0x1.2c3b006571a2dp-2 0x1.24f62a591ad36p-5] iterations=12"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.model) + ", gradient = " + c.gradient);
    const Config cfg = config(c.model, c.gradient);
    const auto test = runFromConfig(config(c.model, c.gradient));
    EXPECT_EQ(fingerprint(test.h0), c.h0);
    EXPECT_EQ(fingerprint(test.h1), c.h1);
  }
  std::remove(path("gene.fasta").c_str());
  std::remove(path("gene.nwk").c_str());
  std::remove(path("report.txt").c_str());
}

}  // namespace
}  // namespace slim::core
