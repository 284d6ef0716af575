#include "lik/branch_site_likelihood.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "linalg/blas1.hpp"
#include "linalg/blas2.hpp"
#include "linalg/blas3.hpp"
#include "linalg/diag.hpp"
#include "model/codon_model.hpp"
#include "model/frequencies.hpp"
#include "support/require.hpp"
#include "tree/branch_classes.hpp"

namespace slim::lik {

using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;
using model::MixtureSpec;

BranchSiteLikelihood::BranchSiteLikelihood(
    const seqio::CodonAlignment& alignment, const seqio::SitePatterns& patterns,
    std::vector<double> pi, const tree::Tree& tree,
    model::Hypothesis hypothesis, LikelihoodOptions options,
    std::shared_ptr<PropagatorCacheShard> shard)
    : gc_(*alignment.code),
      patterns_(patterns),
      pi_(std::move(pi)),
      tree_(tree),
      hypothesis_(hypothesis),
      options_(options),
      shard_(options.cachePropagators
                 ? (shard ? std::move(shard)
                          : std::make_shared<PropagatorCacheShard>())
                 : nullptr) {
  n_ = gc_.numSense();
  npat_ = static_cast<int>(patterns_.numPatterns());
  SLIM_REQUIRE(npat_ > 0, "no site patterns");
  model::validateFrequencies(pi_, n_);
  tree_.validate();
  SLIM_REQUIRE(options_.scalingThreshold > 0 && options_.scalingThreshold < 1,
               "scaling threshold must be in (0,1)");
  SLIM_REQUIRE(options_.numThreads >= 0, "numThreads must be >= 0");
  SLIM_REQUIRE(options_.blockSize >= 0, "blockSize must be >= 0");
  SLIM_REQUIRE(options_.cacheQuantum >= 0, "cacheQuantum must be >= 0");
  SLIM_REQUIRE(options_.cacheCapacity > 0, "cacheCapacity must be positive");

  // Resolve the SIMD dispatch once; an explicit avx2/avx512 request on a
  // host that cannot run it fails loudly here rather than mid-evaluation.
  simdLevel_ = options_.flavor == linalg::Flavor::Naive
                   ? linalg::SimdLevel::Scalar
                   : linalg::resolveSimdLevel(options_.simd);
  // Resolve the compute backend the same way (Auto reproduces the
  // pre-backend dispatch: Reference at scalar, Simd otherwise); an explicit
  // backend missing from the build fails here, not mid-evaluation.
  backend_ = backend::computeBackend(
      backend::resolveBackendKind(options_.flavor == linalg::Flavor::Naive
                                      ? backend::BackendMode::Reference
                                      : options_.backend,
                                  simdLevel_),
      simdLevel_);
  kern_ = &backend_.ops;

  branchNodes_ = tree_.branches();
  nodeToBranch_.assign(tree_.numNodes(), -1);
  for (int k = 0; k < static_cast<int>(branchNodes_.size()); ++k)
    nodeToBranch_[branchNodes_[k]] = k;

  // Map leaves onto alignment rows by name and build their static CPVs.
  leafCpv_.resize(tree_.numNodes());
  leafState_.resize(tree_.numNodes());
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (!node.isLeaf()) continue;
    int row = -1;
    for (std::size_t s = 0; s < alignment.names.size(); ++s)
      if (alignment.names[s] == node.label) {
        row = static_cast<int>(s);
        break;
      }
    SLIM_REQUIRE(row >= 0, "leaf '" + node.label + "' not found in alignment");
    Matrix& cpv = leafCpv_[id];
    cpv.resize(npat_, n_);
    leafState_[id].resize(npat_);
    for (int h = 0; h < npat_; ++h) {
      const int state = patterns_.patterns[h][row];
      leafState_[id][h] = state;
      if (state == seqio::kMissingState) {
        for (int i = 0; i < n_; ++i) cpv(h, i) = 1.0;  // missing: any codon
      } else {
        SLIM_REQUIRE(state >= 0 && state < n_, "codon state out of range");
        cpv(h, state) = 1.0;
      }
    }
  }

  // The block partition is a function of blockSize and npat only — never of
  // the thread count — so the per-pattern arithmetic (and hence lnL) is
  // bit-identical however many workers execute the blocks.
  blockMax_ = options_.blockSize > 0 ? std::min(options_.blockSize, npat_)
                                     : npat_;
  const int threads = options_.numThreads == 1
                          ? 1
                          : support::resolveThreadCount(options_.numThreads);
  if (threads > 1) pool_ = std::make_unique<support::ThreadPool>(threads);
  workspaces_.resize(threads);

  totalWeight_ = 0;
  for (double w : patterns_.weights) totalWeight_ += w;
}

void BranchSiteLikelihood::setAllBranchLengths(double t) {
  for (int k = 0; k < numBranches(); ++k) setBranchLength(k, t);
}

// The dispatched* helpers are the one place the kernel rule lives: the
// Naive flavor keeps the paper's baseline loop nests, every other call runs
// on the resolved backend table.

void BranchSiteLikelihood::dispatchedTransition(
    const expm::CodonEigenSystem& es, double t, Matrix& out) {
  if (options_.flavor == linalg::Flavor::Naive)
    es.transitionMatrix(t, options_.reconstruction, options_.flavor, expmWs_,
                        out);
  else
    es.transitionMatrix(t, options_.reconstruction, *kern_, expmWs_, out);
}

void BranchSiteLikelihood::dispatchedDerivative(
    const expm::CodonEigenSystem& es, double t, Matrix& dp) {
  if (options_.flavor == linalg::Flavor::Naive)
    es.derivativeMatrix(t, options_.flavor, expmWs_, dp);
  else
    es.derivativeMatrix(t, *kern_, expmWs_, dp);
}

void BranchSiteLikelihood::dispatchedGemm(ConstMatrixView a, ConstMatrixView b,
                                          MatrixView c) {
  if (options_.flavor == linalg::Flavor::Naive)
    linalg::gemm(options_.flavor, a, b, c);
  else
    linalg::gemm(*kern_, a, b, c);
}

void BranchSiteLikelihood::adaptiveTransition(int eigenIdx, double t,
                                              Matrix& out) {
  const Matrix& q = rateMatrices_[eigenIdx];
  if (adaptQt_.rows() != static_cast<std::size_t>(n_)) adaptQt_.resize(n_, n_);
  for (std::size_t i = 0; i < q.size(); ++i)
    adaptQt_.data()[i] = q.data()[i] * t;
  // The expm's internal products always run on the resolved backend table;
  // the scalar (reference) table is the deterministic baseline.
  backend::expmAdaptive(adaptQt_, *kern_, adaptWs_, out);
  // Same roundoff-negative policy as the eigen-path P(t) builds.
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out.data()[i] < 0.0) out.data()[i] = 0.0;
}

void BranchSiteLikelihood::buildPropagator(int eigenIdx, double t,
                                           Matrix& out) {
  if (out.rows() != static_cast<std::size_t>(n_)) out.resize(n_, n_);
  // BundledGemm stores P *transposed*: the panel product W P^T then runs as
  // the saxpy-form gemm W (P^T), which streams contiguous propagator rows
  // with FMAs instead of doing horizontal-reduction dot products — much
  // faster for large pattern panels.  The O(n^2) transpose is paid once per
  // build and amortized over every pattern (and every cache hit).
  const bool transposed =
      options_.propagation == PropagationStrategy::BundledGemm;
  if (transposed && transposeScratch_.rows() != static_cast<std::size_t>(n_))
    transposeScratch_.resize(n_, n_);
  Matrix& p = transposed ? transposeScratch_ : out;
  if (options_.expm == backend::ExpmAlgorithm::Adaptive)
    adaptiveTransition(eigenIdx, t, p);
  else
    dispatchedTransition(eigenSystems_[eigenIdx], t, p);
  if (transposed) linalg::transposeInto(transposeScratch_, out);
}

const Matrix& BranchSiteLikelihood::propagator(int node, int omegaIdx) {
  const std::size_t key = propIndex(node, omegaIdx);
  if (propPtr_[key]) return *propPtr_[key];

  const int eigenIdx = omegaToEigen_[omegaIdx];
  const double t = propagatorLength(node);

  if (shard_) {
    const PropagatorCacheShard::Key ck{eigenIdx, std::bit_cast<std::uint64_t>(t)};
    auto it = shard_->entries.find(ck);
    if (it == shard_->entries.end()) {
      // A full cache is flushed at the start of the *next* evaluation:
      // entries inserted this evaluation may already be referenced through
      // propPtr_, so they must stay addressable until the sweep finishes.
      if (shard_->entries.size() >=
          static_cast<std::size_t>(options_.cacheCapacity))
        shard_->flushNextEval = true;
      Matrix p;
      buildPropagator(eigenIdx, t, p);
      ++counters_.propagatorBuilds;
      ++counters_.propagatorCacheMisses;
      it = shard_->entries.emplace(ck, std::move(p)).first;
    } else {
      ++counters_.propagatorCacheHits;
    }
    propPtr_[key] = &it->second;
    return it->second;
  }

  Matrix& out = propCache_[key];
  buildPropagator(eigenIdx, t, out);
  ++counters_.propagatorBuilds;
  propPtr_[key] = &out;
  return out;
}

void BranchSiteLikelihood::prebuildPropagators() {
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    for (int m = 0; m < numClasses_; ++m)
      propagator(node, activeSpec_.classes[m].omegaFor(branchClass));
  }
}

void BranchSiteLikelihood::propagateBranch(const Matrix& prop,
                                           ConstMatrixView childCpv,
                                           MatrixView out,
                                           PruneWorkspace& ws) {
  const int rows = static_cast<int>(childCpv.rows());
  if (options_.propagation == PropagationStrategy::PerSiteGemv) {
    for (int h = 0; h < rows; ++h)
      linalg::gemv(options_.flavor, prop, childCpv.rowSpan(h), out.rowSpan(h));
  } else {
    // prop holds P^T, so out(h,i) = sum_j childCpv(h,j) P^T(j,i)
    //  ==  (P w_h)_i for every h — one BLAS-3 panel product per branch.
    dispatchedGemm(childCpv, prop.view(), out);
  }
  ws.patternPropagations += rows;
}

void BranchSiteLikelihood::pruneClassBlock(int m, int h0, int len,
                                           PruneWorkspace& ws) {
  const int numNodes = tree_.numNodes();
  if (static_cast<int>(ws.nodeCpv.size()) != numNodes) {
    ws.nodeCpv.resize(numNodes);
    ws.nodeScaleLog.resize(numNodes);
  }
  if (ws.tmp.rows() != static_cast<std::size_t>(blockMax_))
    ws.tmp.resize(blockMax_, n_);

  const int root = tree_.root();
  const auto& cls = activeSpec_.classes[m];
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (node.isLeaf()) continue;
    Matrix& cpvStore = ws.nodeCpv[id];
    if (cpvStore.rows() != static_cast<std::size_t>(blockMax_))
      cpvStore.resize(blockMax_, n_);
    const MatrixView cpv = cpvStore.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = cpv.row(h);
      std::fill(row, row + n_, 1.0);
    }
    auto& scaleLog = ws.nodeScaleLog[id];
    scaleLog.assign(len, 0.0);

    for (int child : node.children) {
      const bool childIsLeaf = tree_.node(child).isLeaf();
      const ConstMatrixView childCpv =
          childIsLeaf ? leafCpv_[child].rowBlock(h0, len)
                      : ConstMatrixView(ws.nodeCpv[child].rowBlock(0, len));
      const int omegaIdx = cls.omegaFor(tree_.node(child).mark);
      // Prebuilt before the parallel region; read-only here.
      const Matrix& prop = *propPtr_[propIndex(child, omegaIdx)];
      const MatrixView out = ws.tmp.rowBlock(0, len);
      propagateBranch(prop, childCpv, out, ws);
      linalg::hadamardInPlace(ConstMatrixView(out).span(), cpv.span());
      if (!childIsLeaf)
        for (int h = 0; h < len; ++h)
          scaleLog[h] += ws.nodeScaleLog[child][h];
    }

    // Underflow rescue: renormalize any pattern row whose maximum dropped
    // below the threshold, remembering the removed factor in log space.
    for (int h = 0; h < len; ++h) {
      double mx = 0.0;
      double* row = cpv.row(h);
      for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
      if (mx > 0.0 && mx < options_.scalingThreshold) {
        const double inv = 1.0 / mx;
        for (int i = 0; i < n_; ++i) row[i] *= inv;
        scaleLog[h] += std::log(mx);
      }
    }
  }

  // Root: mix over states with the equilibrium frequencies.  Each block owns
  // its [h0, h0 + len) slice of the class result rows, so concurrent blocks
  // never write the same element.
  const ConstMatrixView rootCpv = ws.nodeCpv[root].rowBlock(0, len);
  for (int h = 0; h < len; ++h) {
    double f = 0.0;
    const double* row = rootCpv.row(h);
    for (int i = 0; i < n_; ++i) f += pi_[i] * row[i];
    classLik_[m][h0 + h] = f;
    classScaleLog_[m][h0 + h] = ws.nodeScaleLog[root][h];
  }
}

void BranchSiteLikelihood::prepareEigenSystems(const MixtureSpec& spec) {
  const bool adaptive = options_.expm == backend::ExpmAlgorithm::Adaptive;
  if (shard_) {
    if (shard_->flushNextEval) {
      shard_->entries.clear();
      shard_->flushNextEval = false;
    }
    // Entries are only reusable when they were built by this evaluator's
    // exact code path: resolved backend, its SIMD level, and the propagator
    // algorithm (mirroring how checkpointConfigHash pins resolved simd).
    // Different backends agree to <= 1e-10, not bit for bit, and eigen vs
    // adaptive propagators differ at roundoff, so a shard warmed by one
    // path must never serve another.
    const bool pathMatches =
        !shard_->builtStamped ||
        (shard_->builtBackend == backend_.kind &&
         shard_->builtSimd == backend_.simdLevel &&
         shard_->builtExpm == options_.expm);
    // Identical substitution parameters since the shard was filled mean the
    // eigensystems — and every cached propagator derived from them — are
    // still valid.  This is what makes optimizer line searches and
    // finite-difference gradients (which move few coordinates per call)
    // skip nearly all eigen-reconstruction work.
    const bool specMatches = pathMatches &&
                             spec.omegas == shard_->specOmegas &&
                             spec.scaledS == shard_->specScaledS;
    const bool prepared = adaptive ? !rateMatrices_.empty()
                                   : !eigenSystems_.empty();
    if (specMatches && prepared) return;
    // A *warm* shard handed to a fresh evaluator (specMatches, but no local
    // eigensystems yet) keeps its entries: the decomposition below is
    // deterministic, so the eigen indices the stored keys refer to come out
    // identical.
    if (!specMatches) shard_->entries.clear();
  }

  // One eigendecomposition — or, in adaptive-expm mode, one rate matrix —
  // per *distinct* omega value (e.g. under the model A null,
  // omega2 == omega1 == 1 shares one).
  eigenSystems_.clear();
  rateMatrices_.clear();
  omegaToEigen_.assign(numOmegas_, -1);
  for (int k = 0; k < numOmegas_; ++k) {
    int found = -1;
    for (int j = 0; j < k; ++j)
      if (spec.omegas[j] == spec.omegas[k]) {
        found = omegaToEigen_[j];
        break;
      }
    if (found < 0) {
      if (adaptive) {
        Matrix q(n_, n_);
        model::buildRateMatrix(spec.scaledS[k], pi_, q);
        rateMatrices_.push_back(std::move(q));
        found = static_cast<int>(rateMatrices_.size()) - 1;
      } else {
        eigenSystems_.emplace_back(spec.scaledS[k], pi_);
        ++counters_.eigenDecompositions;
        found = static_cast<int>(eigenSystems_.size()) - 1;
      }
    }
    omegaToEigen_[k] = found;
  }

  if (shard_) {
    shard_->specOmegas = spec.omegas;
    shard_->specScaledS = spec.scaledS;
    shard_->builtBackend = backend_.kind;
    shard_->builtSimd = backend_.simdLevel;
    shard_->builtExpm = options_.expm;
    shard_->builtStamped = true;
  }
}

bool BranchSiteLikelihood::classUnderPositiveSelection(int m) const noexcept {
  const auto& row = activeSpec_.classes[m].omega;
  if (row.size() == 1) return activeSpec_.omegas[row.front()] > 1.0;
  for (std::size_t b = 1; b < row.size(); ++b)
    if (activeSpec_.omegas[row[b]] > 1.0) return true;
  return false;
}

void BranchSiteLikelihood::computeClassLikelihoods(const MixtureSpec& spec) {
  spec.validate(n_);
  SLIM_REQUIRE(spec.branchHomogeneous() || tree::hasMarkedBranch(tree_),
               "branch-heterogeneous mixture requires at least one marked "
               "branch (#k)");
  numClasses_ = spec.numClasses();
  numOmegas_ = spec.numOmegas();
  activeSpec_.omegas = spec.omegas;
  activeSpec_.classes = spec.classes;
  activeSpec_.scale = spec.scale;
  activeSpec_.kappa = spec.kappa;
  activeSpec_.omegaFree = spec.omegaFree;
  activeSpec_.proportionJacobian = spec.proportionJacobian;
  classProp_.resize(numClasses_);
  classLik_.resize(numClasses_);
  classScaleLog_.resize(numClasses_);
  for (int m = 0; m < numClasses_; ++m) {
    classProp_[m] = spec.classes[m].proportion;
    classLik_[m].assign(npat_, 0.0);
    classScaleLog_[m].assign(npat_, 0.0);
  }

  prepareEigenSystems(spec);

  // Propagators depend on branch lengths and omega: rebuild lazily.
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  if (!options_.cachePropagators) propCache_.resize(propSlots);
  propPtr_.assign(propSlots, nullptr);
  prebuildPropagators();

  // Pattern-blocked sweep: every (site class, pattern block) pair is an
  // independent task reading shared immutable state (tree, leaf CPVs,
  // prebuilt propagators) and writing its own slice of the class results.
  const int numBlocks = (npat_ + blockMax_ - 1) / blockMax_;
  const int numTasks = numClasses_ * numBlocks;
  const auto runTask = [&](int task, int worker) {
    const int m = task / numBlocks;
    const int b = task % numBlocks;
    const int h0 = b * blockMax_;
    pruneClassBlock(m, h0, std::min(blockMax_, npat_ - h0),
                    workspaces_[worker]);
  };
  if (pool_) {
    pool_->parallelFor(numTasks, runTask);
  } else {
    for (int task = 0; task < numTasks; ++task) runTask(task, 0);
  }
  // Deterministic merge of the per-worker counters.
  for (auto& ws : workspaces_) {
    counters_.patternPropagations += ws.patternPropagations;
    ws.patternPropagations = 0;
  }
  ++counters_.evaluations;
}

double BranchSiteLikelihood::logLikelihood(
    const model::BranchSiteParams& params) {
  params.validate(hypothesis_);
  return logLikelihood(
      model::buildModelASpec(gc_, pi_, params, hypothesis_));
}

double BranchSiteLikelihood::mixClassLikelihoods(
    std::vector<double>& maxScaleLog, std::vector<double>& mixture) const {
  maxScaleLog.resize(npat_);
  mixture.resize(npat_);
  double lnL = 0.0;
  for (int h = 0; h < npat_; ++h) {
    double maxS = classScaleLog_[0][h];
    for (int m = 1; m < numClasses_; ++m)
      maxS = std::max(maxS, classScaleLog_[m][h]);
    double f = 0.0;
    for (int m = 0; m < numClasses_; ++m)
      f += classProp_[m] * classLik_[m][h] *
           std::exp(classScaleLog_[m][h] - maxS);
    maxScaleLog[h] = maxS;
    mixture[h] = f;
    if (!(f > 0.0) || !std::isfinite(f))
      return -std::numeric_limits<double>::infinity();
    lnL += patterns_.weights[h] * (std::log(f) + maxS);
  }
  return lnL;
}

double BranchSiteLikelihood::logLikelihood(const MixtureSpec& spec) {
  computeClassLikelihoods(spec);
  return mixClassLikelihoods(mixMaxScaleLog_, mixMixture_);
}

double BranchSiteLikelihood::logLikelihoodGradientBranches(
    const model::BranchSiteParams& params, std::span<double> gradT) {
  params.validate(hypothesis_);
  return logLikelihoodGradientBranches(
      model::buildModelASpec(gc_, pi_, params, hypothesis_), gradT);
}

double BranchSiteLikelihood::logLikelihoodGradientBranches(
    const MixtureSpec& spec, std::span<double> gradT) {
  computeClassLikelihoods(spec);
  return gradientFromState(gradT, nullptr);
}

double BranchSiteLikelihood::gradientBranchesAtLastEvaluation(
    std::span<double> gradT) {
  SLIM_REQUIRE(numClasses_ > 0,
               "gradientBranchesAtLastEvaluation: no prior evaluation");
  return gradientFromState(gradT, nullptr);
}

double BranchSiteLikelihood::logLikelihoodGradient(const MixtureSpec& spec,
                                                   MixtureGradient& out) {
  computeClassLikelihoods(spec);
  out.branch.resize(numBranches());
  return gradientFromState(out.branch, &out);
}

double BranchSiteLikelihood::gradientAtLastEvaluation(MixtureGradient& out) {
  SLIM_REQUIRE(numClasses_ > 0,
               "gradientAtLastEvaluation: no prior evaluation");
  out.branch.resize(numBranches());
  return gradientFromState(out.branch, &out);
}

double BranchSiteLikelihood::propagatorLength(int node) const {
  double t = tree_.branchLength(node);
  if (shard_ && options_.cacheQuantum > 0.0)
    t = std::round(t / options_.cacheQuantum) * options_.cacheQuantum;
  return t;
}

double BranchSiteLikelihood::gradientFromState(std::span<double> gradT,
                                               MixtureGradient* full) {
  const int numB = numBranches();
  SLIM_REQUIRE(static_cast<int>(gradT.size()) == numB, "gradient size mismatch");
  std::fill(gradT.begin(), gradT.end(), 0.0);
  const bool substitution = full != nullptr && substitutionGradientAnalytic();
  if (full) {
    const double unset =
        substitution ? 0.0 : std::numeric_limits<double>::quiet_NaN();
    full->kappa = unset;
    full->omega.assign(numOmegas_, unset);
    full->proportion = {0.0, 0.0};
  }

  const double lnL = mixClassLikelihoods(mixMaxScaleLog_, mixMixture_);
  if (!std::isfinite(lnL)) return lnL;  // underflow: gradient undefined
  ++counters_.gradientSweeps;

  buildGradientPropagators();
  model::MixtureDerivatives md;
  if (full) {
    md = model::mixtureDerivatives(gc_, pi_, activeSpec_);
    if (substitution) buildParameterPropagators(md);
  }
  if (gradWorkspaces_.size() != workspaces_.size())
    gradWorkspaces_.resize(workspaces_.size());

  // Same task shape as the likelihood sweep: every (site class, pattern
  // block) pair is independent.  Each task writes per-(branch, pattern)
  // contributions into its class's slab — per-pattern values are independent
  // of the block partition, and the reduction below runs in fixed
  // (branch, pattern, class) order — so the gradient, like the likelihood,
  // is bit-identical for every thread count and block size.  The kappa /
  // omega contributions follow the same discipline in their own slab.
  const int numBlocks = (npat_ + blockMax_ - 1) / blockMax_;
  const int numTasks = numClasses_ * numBlocks;
  const std::size_t slabSize = static_cast<std::size_t>(numB) * npat_;
  gradContrib_.assign(static_cast<std::size_t>(numClasses_) * slabSize, 0.0);
  std::vector<double>& contrib = gradContrib_;
  const int numCoords = substitution ? 1 + numOmegas_ : 0;
  const std::size_t coordSlab = static_cast<std::size_t>(numCoords) * npat_;
  gradCoordContrib_.assign(static_cast<std::size_t>(numClasses_) * coordSlab,
                           0.0);
  const auto runTask = [&](int task, int worker) {
    const int m = task / numBlocks;
    const int b = task % numBlocks;
    const int h0 = b * blockMax_;
    gradientClassBlock(
        m, h0, std::min(blockMax_, npat_ - h0), mixMaxScaleLog_, mixMixture_,
        gradWorkspaces_[worker],
        std::span<double>(contrib.data() + m * slabSize, slabSize),
        std::span<double>(gradCoordContrib_.data() + m * coordSlab,
                          coordSlab));
  };
  if (pool_) {
    pool_->parallelFor(numTasks, runTask);
  } else {
    for (int task = 0; task < numTasks; ++task) runTask(task, 0);
  }
  // Fixed (branch, class, pattern) reduction order: deterministic and
  // partition-independent like the task writes, with the innermost loop
  // running linearly through each slab's contiguous pattern row.
  const auto reduce = [&](const std::vector<double>& slabs, std::size_t slab,
                          int row) {
    double g = 0.0;
    for (int m = 0; m < numClasses_; ++m) {
      const double* r =
          slabs.data() + m * slab + static_cast<std::size_t>(row) * npat_;
      for (int h = 0; h < npat_; ++h) g += r[h];
    }
    return g;
  };
  for (int k = 0; k < numB; ++k) gradT[k] = reduce(contrib, slabSize, k);
  for (auto& ws : gradWorkspaces_) {
    counters_.patternPropagations += ws.patternPropagations;
    ws.patternPropagations = 0;
  }
  if (!full) return lnL;

  // Scaling Q by 1/scale is scaling every branch by 1/scale, so
  // d lnL / d scale = -(1/scale) sum_k t_k d lnL / d t_k.
  double tg = 0.0;
  for (int k = 0; k < numB; ++k)
    tg += propagatorLength(branchNodes_[k]) * gradT[k];
  const double dScale = -tg / activeSpec_.scale;

  if (substitution) {
    full->kappa = reduce(gradCoordContrib_, coordSlab, 0) +
                  dScale * md.dScaleDKappa;
    for (int k = 0; k < numOmegas_; ++k)
      if (omegaSlotFree(k))
        full->omega[k] = reduce(gradCoordContrib_, coordSlab, 1 + k) +
                         dScale * md.dScaleDOmega[k];
  }

  // Proportions: d lnL / d prop_m = sum_h w_h L_m(h) / L(h) at fixed scale,
  // plus the scale chain (d scale / d prop_m = the class's background rate).
  if (!activeSpec_.proportionJacobian.empty()) {
    for (int m = 0; m < numClasses_; ++m) {
      double d = 0.0;
      for (int h = 0; h < npat_; ++h)
        d += patterns_.weights[h] * classLik_[m][h] *
             std::exp(classScaleLog_[m][h] - mixMaxScaleLog_[h]) /
             mixMixture_[h];
      d += dScale * md.dScaleDProportion[m];
      for (int j = 0; j < 2; ++j)
        full->proportion[j] += d * activeSpec_.proportionJacobian[m][j];
    }
  }
  return lnL;
}

void BranchSiteLikelihood::buildGradientPropagators() {
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  gradProp_.assign(propSlots, nullptr);
  gradPropT_.assign(propSlots, nullptr);
  if (gradPropOther_.size() < propSlots) gradPropOther_.resize(propSlots);
  gradDerivT_.resize(propSlots);
  const bool storedTransposed =
      options_.propagation == PropagationStrategy::BundledGemm;
  Matrix dp(n_, n_);
  const bool adaptive = options_.expm == backend::ExpmAlgorithm::Adaptive;
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    for (int m = 0; m < numClasses_; ++m) {
      const auto& cls = activeSpec_.classes[m];
      const int omegaIdx = cls.omegaFor(branchClass);
      const std::size_t slot = propIndex(node, omegaIdx);
      if (gradPropT_[slot]) continue;
      const int eigenIdx = omegaToEigen_[omegaIdx];
      // Differentiate at the same (possibly quantized) length the evaluation
      // propagated with, so gradient and objective describe one function.
      const double t = propagatorLength(node);
      // The evaluation's propagator table (still addressable — the gradient
      // runs on the retained state of the last evaluation) holds P^T under
      // BundledGemm and P under PerSiteGemv: point at it and build only the
      // other orientation.
      const Matrix* stored = propPtr_[slot];
      Matrix& other = gradPropOther_[slot];
      if (other.rows() != static_cast<std::size_t>(n_)) other.resize(n_, n_);
      linalg::transposeInto(*stored, other);
      gradProp_[slot] = storedTransposed ? &other : stored;
      gradPropT_[slot] = storedTransposed ? stored : &other;
      Matrix& dT = gradDerivT_[slot];
      if (dT.rows() != static_cast<std::size_t>(n_)) dT.resize(n_, n_);
      if (adaptive) {
        // dP/dt = Q e^{Qt} = Q P exactly (Q and e^{Qt} commute); derivatives
        // legitimately carry negative entries, so no clamp — matching the
        // eigen path's derivativeMatrix policy.
        dispatchedGemm(rateMatrices_[eigenIdx].view(), gradProp_[slot]->view(),
                       dp.view());
      } else {
        dispatchedDerivative(eigenSystems_[eigenIdx], t, dp);
      }
      linalg::transposeInto(dp, dT);
      ++counters_.propagatorBuilds;
    }
  }
}

void BranchSiteLikelihood::buildParameterPropagators(
    const model::MixtureDerivatives& md) {
  const int numEigen = static_cast<int>(eigenSystems_.size());
  const std::size_t n = static_cast<std::size_t>(n_);
  // Which (eigen system, theta) pairs some active class differentiates:
  // kappa moves every slot, omega only the free ones.  Slots sharing an
  // eigen system share its omega value and so every derivative table.
  std::vector<int> sourceSlot(2 * numEigen, -1);
  for (int k = 0; k < numOmegas_; ++k) {
    const int e = omegaToEigen_[k];
    if (sourceSlot[2 * e] < 0) sourceSlot[2 * e] = k;
    if (omegaSlotFree(k) && sourceSlot[2 * e + 1] < 0)
      sourceSlot[2 * e + 1] = k;
  }

  // G_theta = U^T dA_theta U, with dA = Pi^{1/2} dS Pi^{1/2} off the
  // diagonal and the generator's row-sum constraint on it (the same
  // construction CodonEigenSystem applies to S itself).
  if (ghat_.size() < sourceSlot.size()) ghat_.resize(sourceSlot.size());
  Matrix dA(n, n), tmp(n, n), tmpT(n, n);
  for (std::size_t g = 0; g < sourceSlot.size(); ++g) {
    if (sourceSlot[g] < 0) continue;
    const expm::CodonEigenSystem& es = eigenSystems_[g / 2];
    const Matrix& ds = g % 2 == 0 ? md.dScaledSdKappa[sourceSlot[g]]
                                  : md.dScaledSdOmega[sourceSlot[g]];
    const auto sq = es.sqrtPi();
    for (std::size_t i = 0; i < n; ++i) {
      double rowRate = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        dA(i, j) = sq[i] * ds(i, j) * sq[j];
        rowRate += ds(i, j) * pi_[j];
      }
      dA(i, i) = -rowRate;
    }
    const Matrix& u = es.eigenvectors();
    linalg::gemm(*kern_, dA.view(), u.view(), tmp.view());
    linalg::transposeInto(tmp, tmpT);  // U^T dA (dA is symmetric)
    Matrix& gh = ghat_[g];
    if (gh.rows() != n) gh.resize(n, n);
    linalg::gemm(*kern_, tmpT.view(), u.view(), gh.view());
    // Symmetrize away the roundoff, so F o G is exactly symmetric and the
    // sandwich below yields the exact transpose of dP/dtheta.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        gh(i, j) = gh(j, i) = 0.5 * (gh(i, j) + gh(j, i));
  }

  // Per (branch node, eigen system): the divided differences
  //   F_ij = (e^{l_i t} - e^{l_j t}) / (l_i - l_j)
  //        = e^{max(l_i, l_j) t} (1 - e^{-d t}) / d,   d = |l_i - l_j|
  // (t e^{l t} as d -> 0; expm1 keeps small d exact and the max-exponent
  // form never overflows), then per theta
  //   (dP/dtheta)^T = Pi^{1/2} U (F o G_theta) U^T Pi^{-1/2}.
  const std::size_t tables =
      2 * static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  if (gradParamT_.size() < tables) gradParamT_.resize(tables);
  paramBuilt_.assign(tables, 0);
  for (Matrix* m : {&paramF_, &paramW_, &paramY_})
    if (m->rows() != n) m->resize(n, n);
  std::vector<double> expLt(n);
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    const double t = propagatorLength(node);
    int fEigen = -1;  // the eigen system paramF_ currently holds F for
    for (int m = 0; m < numClasses_; ++m) {
      const int slot = activeSpec_.classes[m].omegaFor(branchClass);
      const int e = omegaToEigen_[slot];
      for (int theta = 0; theta < 2; ++theta) {
        const std::size_t idx = paramIndex(node, e, theta);
        if (sourceSlot[2 * e + theta] < 0 || paramBuilt_[idx]) continue;
        paramBuilt_[idx] = 1;
        const expm::CodonEigenSystem& es = eigenSystems_[e];
        const auto& lambda = es.eigenvalues();
        if (fEigen != e) {
          for (std::size_t i = 0; i < n; ++i)
            expLt[i] = std::exp(lambda[i] * t);
          for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i; j < n; ++j) {
              const double d = std::fabs(lambda[i] - lambda[j]);
              const double f =
                  std::max(expLt[i], expLt[j]) *
                  (d * t > 0.0 ? -std::expm1(-d * t) / d : t);
              paramF_(i, j) = paramF_(j, i) = f;
            }
          fEigen = e;
        }
        const Matrix& gh = ghat_[2 * e + theta];
        for (std::size_t i = 0; i < paramW_.size(); ++i)
          paramW_.data()[i] = paramF_.data()[i] * gh.data()[i];
        const Matrix& u = es.eigenvectors();
        linalg::gemm(*kern_, u.view(), paramW_.view(), paramY_.view());
        Matrix& out = gradParamT_[idx];
        if (out.rows() != n) out.resize(n, n);
        kern_->gemmNTSandwich(paramY_.data(), u.data(), es.sqrtPi().data(),
                              es.invSqrtPi().data(), out.data(), n, n, n,
                              /*clampNegative=*/false);
        ++counters_.propagatorBuilds;
      }
    }
  }
}

void BranchSiteLikelihood::gradientClassBlock(
    int m, int h0, int len, std::span<const double> maxScaleLog,
    std::span<const double> mixture, GradientWorkspace& ws,
    std::span<double> gradOut, std::span<double> coordOut) {
  const int numNodes = tree_.numNodes();
  if (static_cast<int>(ws.down.size()) != numNodes) {
    ws.down.resize(numNodes);
    ws.prod.resize(numNodes);
    ws.up.resize(numNodes);
    ws.sDown.resize(numNodes);
    ws.uScale.resize(numNodes);
  }
  if (ws.outside.rows() != static_cast<std::size_t>(blockMax_)) {
    ws.outside.resize(blockMax_, n_);
    ws.deriv.resize(blockMax_, n_);
  }
  ws.eHalf.resize(len);

  // The gradient sweep's panel products run on the same SIMD dispatch as
  // the likelihood sweep's BundledGemm path.
  const int root = tree_.root();
  const auto& cls = activeSpec_.classes[m];
  const auto omegaOf = [&](int node) {
    return cls.omegaFor(tree_.node(node).mark);
  };
  // out = D_c * tableT, D_c the child's conditional panel.  A leaf's
  // observed rows are one-hot, and the product's row is then exactly row
  // `state` of tableT (the gemm adds only exact zeros to it).  Its
  // missing-data rows are all ones, so they share one product row (the
  // column sums of tableT): that row is multiplied once, into the first
  // missing row, and copied into the others.
  const auto childTimes = [&](int c, const Matrix& tableT, MatrixView out) {
    if (!tree_.node(c).isLeaf()) {
      dispatchedGemm(ws.down[c].rowBlock(0, len), tableT.view(), out);
      return;
    }
    const std::vector<int>& state = leafState_[c];
    const double* missingRow = nullptr;
    for (int h = 0; h < len; ++h) {
      const int st = state[h0 + h];
      if (st != seqio::kMissingState) {
        std::copy_n(tableT.row(st), n_, out.row(h));
      } else if (missingRow != nullptr) {
        std::copy_n(missingRow, n_, out.row(h));
      } else {
        dispatchedGemm(leafCpv_[c].rowBlock(h0 + h, 1), tableT.view(),
                       MatrixView(out.row(h), 1, out.cols()));
        missingRow = out.row(h);
      }
    }
  };

  // Down (post-order) pass — the likelihood sweep again, but *retaining* per
  // node the subtree conditional panel D, its scale log, and per child the
  // propagated panel prod = P * D_child (the outside recursion multiplies
  // sibling prods together).
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (node.isLeaf()) {
      ws.sDown[id].assign(len, 0.0);
      continue;
    }
    Matrix& dStore = ws.down[id];
    if (dStore.rows() != static_cast<std::size_t>(blockMax_))
      dStore.resize(blockMax_, n_);
    const MatrixView d = dStore.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = d.row(h);
      std::fill(row, row + n_, 1.0);
    }
    auto& scale = ws.sDown[id];
    scale.assign(len, 0.0);

    for (int c : node.children) {
      Matrix& prodStore = ws.prod[c];
      if (prodStore.rows() != static_cast<std::size_t>(blockMax_))
        prodStore.resize(blockMax_, n_);
      const MatrixView prod = prodStore.rowBlock(0, len);
      childTimes(c, *gradPropT_[propIndex(c, omegaOf(c))], prod);
      linalg::hadamardInPlace(ConstMatrixView(prod).span(), d.span());
      for (int h = 0; h < len; ++h) scale[h] += ws.sDown[c][h];
      ws.patternPropagations += len;
    }

    // Underflow rescue, exactly as in the likelihood sweep.
    for (int h = 0; h < len; ++h) {
      double mx = 0.0;
      double* row = d.row(h);
      for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
      if (mx > 0.0 && mx < options_.scalingThreshold) {
        const double inv = 1.0 / mx;
        for (int i = 0; i < n_; ++i) row[i] *= inv;
        scale[h] += std::log(mx);
      }
    }
  }

  // Up (pre-order) pass.  The outside panel O_c of the edge above node c
  // satisfies   L_true(h) = sum_ij O_c(h,i) P_c(i,j) D_c(h,j) * e^{s_c + o_c},
  // so the branch derivative only swaps P_c for dP_c/dt in that bilinear
  // form (and the kappa / omega derivatives swap in dP_c/dtheta).
  // Recursion from the root (O_root = pi): O_c = U_v ⊙ Π_{siblings} prod,
  // U_c = P_c^T O_c, with scale logs carried alongside.
  Matrix& upRoot = ws.up[root];
  if (upRoot.rows() != static_cast<std::size_t>(blockMax_))
    upRoot.resize(blockMax_, n_);
  {
    const MatrixView u = upRoot.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = u.row(h);
      for (int i = 0; i < n_; ++i) row[i] = pi_[i];
    }
    ws.uScale[root].assign(len, 0.0);
  }

  const auto& post = tree_.postOrder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    const int id = *it;
    const auto& node = tree_.node(id);
    if (node.isLeaf()) continue;
    const ConstMatrixView u = ws.up[id].rowBlock(0, len);
    const auto& uScale = ws.uScale[id];

    for (int c : node.children) {
      const MatrixView o = ws.outside.rowBlock(0, len);
      linalg::copy(u.span(), o.span());
      ws.oScale.assign(len, 0.0);
      for (int h = 0; h < len; ++h) ws.oScale[h] = uScale[h];
      for (int s : node.children) {
        if (s == c) continue;
        linalg::hadamardInPlace(
            ConstMatrixView(ws.prod[s].rowBlock(0, len)).span(), o.span());
        for (int h = 0; h < len; ++h) ws.oScale[h] += ws.sDown[s][h];
      }

      // exp() applied in two halves: a rescale deep in the tree can push
      // the scale restoration near the overflow edge before the (tiny)
      // bilinear form damps it, and the split keeps each factor finite.
      for (int h = 0; h < len; ++h)
        ws.eHalf[h] = std::exp(
            0.5 * (ws.sDown[c][h] + ws.oScale[h] - maxScaleLog[h0 + h]));
      const auto contribution = [&](double dval, int h) {
        return patterns_.weights[h0 + h] * classProp_[m] *
               ((dval * ws.eHalf[h]) * ws.eHalf[h]) / mixture[h0 + h];
      };
      const MatrixView deriv = ws.deriv.rowBlock(0, len);
      // deriv = D_c * table^T; hands each pattern's bilinear form to fn.
      const auto contract = [&](const Matrix& tableT, auto&& fn) {
        childTimes(c, tableT, deriv);
        ws.patternPropagations += len;
        for (int h = 0; h < len; ++h) {
          const double dval = linalg::dot(o.rowSpan(h), deriv.rowSpan(h));
          if (dval != 0.0) fn(h, contribution(dval, h));
        }
      };

      const int slot = omegaOf(c);
      const std::size_t pslot = propIndex(c, slot);
      const std::size_t k = static_cast<std::size_t>(nodeToBranch_[c]);
      contract(gradDerivT_[pslot], [&](int h, double v) {
        gradOut[k * npat_ + h0 + h] = v;
      });
      if (!coordOut.empty()) {
        const int e = omegaToEigen_[slot];
        contract(gradParamT_[paramIndex(c, e, 0)],
                 [&](int h, double v) { coordOut[h0 + h] += v; });
        if (omegaSlotFree(slot)) {
          double* row =
              coordOut.data() + static_cast<std::size_t>(1 + slot) * npat_;
          contract(gradParamT_[paramIndex(c, e, 1)],
                   [&](int h, double v) { row[h0 + h] += v; });
        }
      }

      if (!tree_.node(c).isLeaf()) {
        Matrix& upC = ws.up[c];
        if (upC.rows() != static_cast<std::size_t>(blockMax_))
          upC.resize(blockMax_, n_);
        const MatrixView uc = upC.rowBlock(0, len);
        dispatchedGemm(ConstMatrixView(o), gradProp_[pslot]->view(), uc);
        ws.patternPropagations += len;
        auto& us = ws.uScale[c];
        us.assign(len, 0.0);
        for (int h = 0; h < len; ++h) {
          us[h] = ws.oScale[h];
          double mx = 0.0;
          double* row = uc.row(h);
          for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
          if (mx > 0.0 && mx < options_.scalingThreshold) {
            const double inv = 1.0 / mx;
            for (int i = 0; i < n_; ++i) row[i] *= inv;
            us[h] += std::log(mx);
          }
        }
      }
    }
  }
}

SiteClassPosteriors BranchSiteLikelihood::siteClassPosteriors(
    const model::BranchSiteParams& params) {
  params.validate(hypothesis_);
  return siteClassPosteriors(
      model::buildModelASpec(gc_, pi_, params, hypothesis_));
}

SiteClassPosteriors BranchSiteLikelihood::siteClassPosteriors(
    const MixtureSpec& spec) {
  computeClassLikelihoods(spec);

  SiteClassPosteriors out;
  out.post.assign(numClasses_, std::vector<double>(npat_, 0.0));
  out.positiveSelection.assign(npat_, 0.0);

  std::vector<double> joint(numClasses_);
  for (int h = 0; h < npat_; ++h) {
    double maxS = classScaleLog_[0][h];
    for (int m = 1; m < numClasses_; ++m)
      maxS = std::max(maxS, classScaleLog_[m][h]);
    double f = 0.0;
    for (int m = 0; m < numClasses_; ++m) {
      joint[m] = classProp_[m] * classLik_[m][h] *
                 std::exp(classScaleLog_[m][h] - maxS);
      f += joint[m];
    }
    SLIM_REQUIRE(f > 0.0, "zero site likelihood in posterior computation");
    for (int m = 0; m < numClasses_; ++m) {
      out.post[m][h] = joint[m] / f;
      // "Positive selection" = classes with a non-background omega > 1
      // (for single-column site classes, the class omega itself).
      if (classUnderPositiveSelection(m))
        out.positiveSelection[h] += out.post[m][h];
    }
  }

  out.positiveSelectionBySite.reserve(patterns_.siteToPattern.size());
  for (int p : patterns_.siteToPattern)
    out.positiveSelectionBySite.push_back(out.positiveSelection[p]);
  return out;
}

}  // namespace slim::lik
