#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace oisa::ml {

namespace {

/// Gini impurity of a node with `pos` positives out of `n`.
[[nodiscard]] double gini(std::size_t pos, std::size_t n) noexcept {
  if (n == 0) return 0.0;
  const double q = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * q * (1.0 - q);
}

/// Candidate features for one split: all, or a random subset (forest
/// mode). Shared by the packed and reference trainers so both consume the
/// rng identically — a precondition of their node-for-node equality.
void selectCandidates(std::size_t featureCount, const TreeParams& params,
                      std::mt19937_64& rng,
                      std::vector<std::uint32_t>& candidates) {
  candidates.resize(featureCount);
  std::iota(candidates.begin(), candidates.end(), 0u);
  if (params.featuresPerSplit == 0 ||
      params.featuresPerSplit >= featureCount) {
    return;
  }
  // Partial Fisher-Yates over feature indices.
  for (std::size_t i = 0; i < params.featuresPerSplit; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, featureCount - 1);
    std::swap(candidates[i], candidates[pick(rng)]);
  }
  candidates.resize(params.featuresPerSplit);
}

}  // namespace

// ---------------------------------------------------------------------------
// Packed popcount trainer
// ---------------------------------------------------------------------------

/// Per-fit state of the packed trainer. A node's row multiset is a stack of
/// multiplicity bit-planes (`planeCount` x `wordCount` words): plane k holds
/// bit k of every row's repeat count, so weighted counts are
/// sum_k 2^k * popcount(plane_k & ...). Plain subsets are the planeCount==1
/// special case.
struct DecisionTree::PackedGrowContext {
  const PackedView& data;
  const TreeParams& params;
  std::mt19937_64& rng;
  std::size_t planeCount;
  std::size_t words;
  std::vector<std::uint32_t> candidates;  // scratch, rebuilt per node
};

/// One node's row multiset. Beyond the planes themselves it carries the
/// per-plane list of populated word indices — deep nodes are sparse, and
/// every scan (candidate counting, partitioning) touches only those words
/// — and the node's weighted (n, pos), which the parent knows from its
/// winning split, so nothing is ever rescanned to recover statistics.
struct DecisionTree::PackedRows {
  std::vector<std::uint64_t> planes;               // planeCount x words
  std::vector<std::vector<std::uint32_t>> active;  // per plane
  std::size_t n = 0;    ///< weighted row count
  std::size_t pos = 0;  ///< weighted positive count
};

void DecisionTree::fit(const PackedView& data,
                       std::span<const std::uint32_t> rows,
                       const TreeParams& params, std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no training rows");
  }
  nodes_.clear();
  const std::size_t words = data.wordCount;
  // Row multiplicities (bootstrap samples repeat rows) as bit-planes,
  // built in one pass: adding a row is a bitwise ripple-carry increment
  // across the planes, growing a new plane only when the top one carries.
  PackedRows root;
  root.planes.assign(words, 0);
  std::size_t planeCount = 1;
  for (std::uint32_t r : rows) {
    if (r >= data.rowCount) {
      throw std::out_of_range("DecisionTree::fit: row index out of range");
    }
    const std::size_t w = r / 64;
    std::uint64_t carry = std::uint64_t{1} << (r % 64);
    for (std::size_t k = 0; k < planeCount && carry != 0; ++k) {
      std::uint64_t& plane = root.planes[k * words + w];
      const std::uint64_t old = plane;
      plane ^= carry;
      carry &= old;
    }
    if (carry != 0) {
      root.planes.resize((planeCount + 1) * words, 0);
      root.planes[planeCount * words + w] = carry;
      ++planeCount;
    }
  }
  root.active.resize(planeCount);
  root.n = rows.size();
  for (std::size_t k = 0; k < planeCount; ++k) {
    const std::uint64_t* plane = root.planes.data() + k * words;
    std::size_t cp = 0;
    for (std::size_t w = 0; w < words; ++w) {
      if (plane[w] != 0) {
        root.active[k].push_back(static_cast<std::uint32_t>(w));
        cp += static_cast<std::size_t>(std::popcount(plane[w] &
                                                     data.labels[w]));
      }
    }
    root.pos += cp << k;
  }
  PackedGrowContext ctx{data, params, rng, planeCount, words, {}};
  (void)growPacked(ctx, root, 0);
}

void DecisionTree::fit(const PackedView& data, const TreeParams& params,
                       std::uint64_t seed) {
  std::vector<std::uint32_t> rows(data.rowCount);
  std::iota(rows.begin(), rows.end(), 0u);
  std::mt19937_64 rng(seed);
  fit(data, rows, params, rng);
}

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::uint32_t> rows,
                       const TreeParams& params, std::mt19937_64& rng) {
  fit(data.packed(), rows, params, rng);
}

void DecisionTree::fit(const Dataset& data, const TreeParams& params,
                       std::uint64_t seed) {
  fit(data.packed(), params, seed);
}

std::uint32_t DecisionTree::growPacked(PackedGrowContext& ctx,
                                       PackedRows& rows, int depth) {
  const std::size_t words = ctx.words;
  const std::size_t planeCount = ctx.planeCount;
  const std::uint64_t* labels = ctx.data.labels;
  const std::size_t n = rows.n;
  const std::size_t pos = rows.pos;

  const auto nodeIndex = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.probability =
      n ? static_cast<float>(static_cast<double>(pos) / static_cast<double>(n))
        : 0.0f;
  nodes_.push_back(node);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= ctx.params.maxDepth ||
      n < ctx.params.minSamplesSplit) {
    return nodeIndex;  // leaf
  }

  selectCandidates(ctx.data.featureCount(), ctx.params, ctx.rng,
                   ctx.candidates);

  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  std::size_t bestN1 = 0, bestPos1 = 0;
  for (std::uint32_t feat : ctx.candidates) {
    const std::uint64_t* col = ctx.data.columns[feat];
    std::size_t n1 = 0, pos1 = 0;
    for (std::size_t k = 0; k < planeCount; ++k) {
      const std::uint64_t* plane = rows.planes.data() + k * words;
      std::size_t c = 0, cp = 0;
      for (const std::uint32_t w : rows.active[k]) {
        const std::uint64_t m = plane[w] & col[w];
        c += static_cast<std::size_t>(std::popcount(m));
        cp += static_cast<std::size_t>(std::popcount(m & labels[w]));
      }
      n1 += c << k;
      pos1 += cp << k;
    }
    const std::size_t n0 = n - n1;
    const std::size_t pos0 = pos - pos1;
    if (n0 < ctx.params.minSamplesLeaf || n1 < ctx.params.minSamplesLeaf) {
      continue;
    }
    const double childImpurity =
        (static_cast<double>(n0) * gini(pos0, n0) +
         static_cast<double>(n1) * gini(pos1, n1)) /
        static_cast<double>(n);
    const double gain = parentImpurity - childImpurity;
    if (gain > bestGain) {
      bestGain = gain;
      bestFeature = static_cast<std::int32_t>(feat);
      bestN1 = n1;
      bestPos1 = pos1;
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition: rows with the feature set split off into the right child,
  // the rest become the left child in place — plane & col / plane & ~col
  // preserve every row's multiplicity, and only the parent's active words
  // can be populated. The winning split's counts are the children's (n,
  // pos), so neither child rescans anything.
  const std::uint64_t* col =
      ctx.data.columns[static_cast<std::size_t>(bestFeature)];
  PackedRows right;
  right.planes.assign(planeCount * words, 0);
  right.active.resize(planeCount);
  for (std::size_t k = 0; k < planeCount; ++k) {
    std::uint64_t* leftPlane = rows.planes.data() + k * words;
    std::uint64_t* rightPlane = right.planes.data() + k * words;
    std::vector<std::uint32_t>& leftActive = rows.active[k];
    std::vector<std::uint32_t>& rightActive = right.active[k];
    std::size_t keep = 0;
    for (const std::uint32_t w : leftActive) {
      const std::uint64_t v = leftPlane[w];
      const std::uint64_t r = v & col[w];
      const std::uint64_t l = v ^ r;
      leftPlane[w] = l;
      if (l != 0) leftActive[keep++] = w;
      if (r != 0) {
        rightPlane[w] = r;
        rightActive.push_back(w);
      }
    }
    leftActive.resize(keep);
  }
  right.n = bestN1;
  right.pos = bestPos1;
  rows.n = n - bestN1;
  rows.pos = pos - bestPos1;

  nodes_[nodeIndex].feature = bestFeature;
  const std::uint32_t left = growPacked(ctx, rows, depth + 1);
  nodes_[nodeIndex].left = left;
  const std::uint32_t rightIndex = growPacked(ctx, right, depth + 1);
  nodes_[nodeIndex].right = rightIndex;
  return nodeIndex;
}

// ---------------------------------------------------------------------------
// Reference row-scan trainer (the seed algorithm, kept verbatim)
// ---------------------------------------------------------------------------

void DecisionTree::fitReference(const Dataset& data,
                                std::span<const std::uint32_t> rows,
                                const TreeParams& params,
                                std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no training rows");
  }
  nodes_.clear();
  std::vector<std::uint32_t> work(rows.begin(), rows.end());
  (void)grow(data, work, 0, params, rng);
}

void DecisionTree::fitReference(const Dataset& data, const TreeParams& params,
                                std::uint64_t seed) {
  std::vector<std::uint32_t> rows(data.rowCount());
  std::iota(rows.begin(), rows.end(), 0u);
  std::mt19937_64 rng(seed);
  fitReference(data, rows, params, rng);
}

std::uint32_t DecisionTree::grow(const Dataset& data,
                                 std::vector<std::uint32_t>& rows, int depth,
                                 const TreeParams& params,
                                 std::mt19937_64& rng) {
  const std::size_t n = rows.size();
  std::size_t pos = 0;
  for (std::uint32_t r : rows) pos += data.label(r) ? 1 : 0;

  const auto nodeIndex = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.probability =
      n ? static_cast<float>(static_cast<double>(pos) / static_cast<double>(n))
        : 0.0f;
  nodes_.push_back(node);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= params.maxDepth || n < params.minSamplesSplit) {
    return nodeIndex;  // leaf
  }

  std::vector<std::uint32_t> candidates;
  selectCandidates(data.featureCount(), params, rng, candidates);

  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  for (std::uint32_t feat : candidates) {
    std::size_t n1 = 0, pos1 = 0;
    for (std::uint32_t r : rows) {
      if (data.feature(r, feat) != 0) {
        ++n1;
        pos1 += data.label(r) ? 1 : 0;
      }
    }
    const std::size_t n0 = n - n1;
    const std::size_t pos0 = pos - pos1;
    if (n0 < params.minSamplesLeaf || n1 < params.minSamplesLeaf) continue;
    const double childImpurity =
        (static_cast<double>(n0) * gini(pos0, n0) +
         static_cast<double>(n1) * gini(pos1, n1)) /
        static_cast<double>(n);
    const double gain = parentImpurity - childImpurity;
    if (gain > bestGain) {
      bestGain = gain;
      bestFeature = static_cast<std::int32_t>(feat);
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition rows in place: zeros first.
  auto mid = std::partition(rows.begin(), rows.end(),
                            [&](std::uint32_t r) {
                              return data.feature(
                                         r, static_cast<std::size_t>(
                                                bestFeature)) == 0;
                            });
  std::vector<std::uint32_t> rightRows(mid, rows.end());
  rows.erase(mid, rows.end());

  nodes_[nodeIndex].feature = bestFeature;
  const std::uint32_t left = grow(data, rows, depth + 1, params, rng);
  nodes_[nodeIndex].left = left;
  const std::uint32_t right = grow(data, rightRows, depth + 1, params, rng);
  nodes_[nodeIndex].right = right;
  return nodeIndex;
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

bool DecisionTree::predict(std::span<const std::uint8_t> features) const {
  return predictProbability(features) >= 0.5;
}

double DecisionTree::predictProbability(
    std::span<const std::uint8_t> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree: predict before fit");
  }
  return probabilityUnchecked(features);
}

double DecisionTree::probabilityUnchecked(
    std::span<const std::uint8_t> features) const noexcept {
  std::uint32_t idx = 0;
  while (nodes_[idx].feature >= 0) {
    const auto feat = static_cast<std::size_t>(nodes_[idx].feature);
    idx = features[feat] ? nodes_[idx].right : nodes_[idx].left;
  }
  return nodes_[idx].probability;
}

std::uint64_t DecisionTree::predictBatch(
    std::span<const std::uint64_t> featureWords,
    std::span<double> probabilities) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree: predict before fit");
  }
  if (probabilities.size() < 64) {
    throw std::invalid_argument(
        "DecisionTree::predictBatch: need 64 probability slots");
  }
  std::fill_n(probabilities.data(), 64, 0.0);
  accumulateBatch(featureWords, probabilities.data());
  std::uint64_t predictions = 0;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    if (probabilities[lane] >= 0.5) predictions |= std::uint64_t{1} << lane;
  }
  return predictions;
}

void DecisionTree::accumulateBatch(std::span<const std::uint64_t> featureWords,
                                   double* sums) const noexcept {
  accumulateLanes(featureWords, 0, ~std::uint64_t{0}, sums);
}

void DecisionTree::accumulateLanes(std::span<const std::uint64_t> featureWords,
                                   std::uint32_t idx, std::uint64_t mask,
                                   double* sums) const noexcept {
  // Lane-mask traversal: each (node, mask) pair splits its lanes by the
  // feature word and follows only populated sides, so one walk serves all
  // 64 lanes. Pending right branches live on a fixed-size explicit stack
  // sized past any grown tree's depth; a deeper tree would spill into
  // recursion.
  struct Frame {
    std::uint32_t idx;
    std::uint64_t mask;
  };
  std::array<Frame, 64> stack;
  std::size_t top = 0;
  for (;;) {
    while (nodes_[idx].feature >= 0) {
      const auto feat = static_cast<std::size_t>(nodes_[idx].feature);
      const std::uint64_t right = mask & featureWords[feat];
      const std::uint64_t left = mask ^ right;
      if (right == 0) {
        idx = nodes_[idx].left;
        continue;
      }
      if (left == 0) {
        idx = nodes_[idx].right;
        mask = right;
        continue;
      }
      if (top < stack.size()) {
        stack[top++] = Frame{nodes_[idx].right, right};
      } else {
        accumulateLanes(featureWords, nodes_[idx].right, right, sums);
      }
      idx = nodes_[idx].left;
      mask = left;
    }
    const double p = nodes_[idx].probability;
    if (mask == ~std::uint64_t{0}) {
      for (std::size_t lane = 0; lane < 64; ++lane) sums[lane] += p;
    } else {
      while (mask != 0) {
        sums[std::countr_zero(mask)] += p;
        mask &= mask - 1;
      }
    }
    if (top == 0) return;
    --top;
    idx = stack[top].idx;
    mask = stack[top].mask;
  }
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flat representation.
  std::vector<std::pair<std::uint32_t, int>> stack{{0u, 1}};
  int best = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (nodes_[idx].feature >= 0) {
      stack.emplace_back(nodes_[idx].left, d + 1);
      stack.emplace_back(nodes_[idx].right, d + 1);
    }
  }
  return best;
}

}  // namespace oisa::ml
