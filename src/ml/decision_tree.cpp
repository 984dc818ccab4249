#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>

namespace oisa::ml {

namespace {

/// Gini impurity of a node with `pos` positives out of `n`.
[[nodiscard]] double gini(std::size_t pos, std::size_t n) noexcept {
  if (n == 0) return 0.0;
  const double q = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * q * (1.0 - q);
}

/// True when a node of `n` rows (`pos` positive) at `depth` stops growing.
/// Decided before any candidate is drawn, so a leaf consumes no rng.
[[nodiscard]] bool isLeaf(std::size_t n, std::size_t pos, int depth,
                          const TreeParams& params) noexcept {
  return pos == 0 || pos == n || depth >= params.maxDepth ||
         n < params.minSamplesSplit;
}

[[nodiscard]] float leafProbability(std::size_t n, std::size_t pos) noexcept {
  return n ? static_cast<float>(static_cast<double>(pos) /
                                static_cast<double>(n))
           : 0.0f;
}

/// Gathers bit 0 of each byte of `x` into one byte: bit i of the result is
/// bit 0 of byte i (each product term lands on its own bit, so no carries).
[[nodiscard]] std::uint64_t gatherByteLsbs(std::uint64_t x) noexcept {
  return ((x & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

}  // namespace

/// Candidate features for one split: all, or a random subset (forest
/// mode). Shared by the packed and reference trainers so both consume the
/// rng identically — a precondition of their node-for-node equality.
///
/// A partial Fisher-Yates over a persistent identity permutation: draw k
/// swaps, copy the first k entries out, then undo the swaps in reverse, so
/// each draw costs O(k) rather than re-running iota over every feature.
class DecisionTree::CandidateSampler {
 public:
  explicit CandidateSampler(std::size_t featureCount)
      : identity_(featureCount) {
    std::iota(identity_.begin(), identity_.end(), 0u);
  }

  std::span<const std::uint32_t> draw(const TreeParams& params,
                                      std::mt19937_64& rng) {
    const std::size_t featureCount = identity_.size();
    const std::size_t k = params.featuresPerSplit;
    if (k == 0 || k >= featureCount) return identity_;
    drawn_.resize(k);
    swaps_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, featureCount - 1);
      const std::size_t j = pick(rng);
      std::swap(identity_[i], identity_[j]);
      swaps_[i] = j;
      drawn_[i] = identity_[i];
    }
    for (std::size_t i = k; i-- > 0;) {
      std::swap(identity_[i], identity_[swaps_[i]]);
    }
    return drawn_;
  }

 private:
  std::vector<std::uint32_t> identity_;  ///< iota between draws
  std::vector<std::uint32_t> drawn_;
  std::vector<std::size_t> swaps_;
};

// ---------------------------------------------------------------------------
// Packed popcount trainer
// ---------------------------------------------------------------------------

/// One node's row multiset as multiplicity bit-planes (`planeCount` x
/// `words` words): plane k holds bit k of every row's repeat count, so
/// weighted counts are sum_k 2^k * popcount(plane_k & ...). Beside the
/// planes, each plane's list of populated word indices — deep nodes are
/// sparse, and every scan touches only those words. Words off a plane's
/// list hold stale data from earlier nodes and are never read.
struct DecisionTree::PackedSlot {
  std::vector<std::uint64_t> planes;        // planeCount x words
  std::vector<std::uint32_t> active;        // planeCount x words (lists)
  std::vector<std::uint32_t> activeCount;  // per plane
};

/// Per-fit state of the packed trainer. The scratch arena is one slot per
/// depth, grown on demand: the root lives in slot 0, a split at depth d
/// writes its right child into slot d + 1, and the left child keeps the
/// parent's slot in place. Slot d + 1 is always free at that point — the
/// only live slots are the current node's and those of pending right
/// children of its ancestors, all at depth <= d.
struct DecisionTree::PackedGrowContext {
  const PackedView& data;
  const TreeParams& params;
  std::mt19937_64& rng;
  std::size_t planeCount;
  std::size_t words;
  CandidateSampler sampler;
  std::vector<PackedSlot> slots;

  PackedSlot& slot(std::size_t d) {
    while (slots.size() <= d) {
      PackedSlot& s = slots.emplace_back();
      s.planes.resize(planeCount * words);
      s.active.resize(planeCount * words);
      s.activeCount.resize(planeCount);
    }
    return slots[d];
  }
};

namespace {

/// Weighted (n1, pos1) of `B` candidate columns over one node: each active
/// word's plane word and plane & labels are loaded once for all B columns.
template <std::size_t B>
void countBlock(const std::uint64_t* const* cols, const std::uint64_t* planes,
                const std::uint32_t* active, const std::uint32_t* activeCount,
                std::size_t planeCount, std::size_t words,
                const std::uint64_t* labels, std::size_t* n1,
                std::size_t* pos1) noexcept {
  for (std::size_t j = 0; j < B; ++j) n1[j] = pos1[j] = 0;
  for (std::size_t k = 0; k < planeCount; ++k) {
    const std::uint64_t* plane = planes + k * words;
    const std::uint32_t* list = active + k * words;
    std::size_t c[B] = {}, cp[B] = {};
    for (std::size_t i = 0; i < activeCount[k]; ++i) {
      const std::uint32_t w = list[i];
      const std::uint64_t v = plane[w];
      const std::uint64_t vl = v & labels[w];
      for (std::size_t j = 0; j < B; ++j) {
        const std::uint64_t x = cols[j][w];
        c[j] += static_cast<std::size_t>(std::popcount(v & x));
        cp[j] += static_cast<std::size_t>(std::popcount(vl & x));
      }
    }
    for (std::size_t j = 0; j < B; ++j) {
      n1[j] += c[j] << k;
      pos1[j] += cp[j] << k;
    }
  }
}

constexpr decltype(&countBlock<4>) kCountBlock[] = {
    countBlock<1>, countBlock<2>, countBlock<3>, countBlock<4>};

}  // namespace

void DecisionTree::fit(const PackedView& data,
                       std::span<const std::uint32_t> rows,
                       const TreeParams& params, std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no training rows");
  }
  nodes_.clear();
  const std::size_t words = data.wordCount;
  // Row multiplicities (bootstrap samples repeat rows): a per-row
  // histogram, then bit-sliced into planes 64 rows at a time.
  std::vector<std::uint32_t> counts(words * 64, 0);
  for (std::uint32_t r : rows) {
    if (r >= data.rowCount) {
      throw std::out_of_range("DecisionTree::fit: row index out of range");
    }
    ++counts[r];
  }
  const std::uint32_t maxCount =
      *std::max_element(counts.begin(), counts.end());
  const auto planeCount = static_cast<std::size_t>(std::bit_width(maxCount));
  PackedGrowContext ctx{.data = data,
                        .params = params,
                        .rng = rng,
                        .planeCount = planeCount,
                        .words = words,
                        .sampler = CandidateSampler(data.featureCount()),
                        .slots = {}};
  PackedSlot& root = ctx.slot(0);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint32_t* c = counts.data() + w * 64;
    // Bits 8b..8b+7 of the counts, one byte per row, 8 rows per group.
    for (std::size_t b = 0; b * 8 < planeCount; ++b) {
      const std::size_t top = std::min<std::size_t>(8, planeCount - b * 8);
      std::uint64_t sliced[8] = {};
      for (std::size_t g = 0; g < 8; ++g) {
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < 8; ++i) {
          x |= static_cast<std::uint64_t>((c[g * 8 + i] >> (b * 8)) & 0xFF)
               << (i * 8);
        }
        for (std::size_t k = 0; k < top; ++k) {
          sliced[k] |= gatherByteLsbs(x >> k) << (g * 8);
        }
      }
      for (std::size_t k = 0; k < top; ++k) {
        root.planes[(b * 8 + k) * words + w] = sliced[k];
      }
    }
  }
  std::size_t pos = 0;
  for (std::size_t k = 0; k < planeCount; ++k) {
    const std::uint64_t* plane = root.planes.data() + k * words;
    std::uint32_t* list = root.active.data() + k * words;
    std::uint32_t count = 0;
    std::size_t cp = 0;
    for (std::size_t w = 0; w < words; ++w) {
      list[count] = static_cast<std::uint32_t>(w);
      count += plane[w] != 0 ? 1 : 0;
      cp += static_cast<std::size_t>(
          std::popcount(plane[w] & data.labels[w]));
    }
    root.activeCount[k] = count;
    pos += cp << k;
  }
  (void)growPacked(ctx, 0, rows.size(), pos, 0);
}

void DecisionTree::fit(const PackedView& data, const TreeParams& params,
                       std::uint64_t seed) {
  // A root that cannot split — constant labels, depth 0, too few rows — is
  // the whole tree: emit it directly instead of packing every row into
  // planes only to read (n, pos) back.
  const std::size_t pos = data.positiveCount();
  if (data.rowCount != 0 && isLeaf(data.rowCount, pos, 0, params)) {
    nodes_.assign(1, Node{-1, 0, 0, leafProbability(data.rowCount, pos)});
    return;
  }
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

/// Grows the node whose rows are in slot `s`, with weighted row count `n`
/// and positive count `pos` (the parent knows both from its winning
/// split, so nothing is rescanned to recover them).
std::uint32_t DecisionTree::growPacked(PackedGrowContext& ctx, std::size_t s,
                                       std::size_t n, std::size_t pos,
                                       int depth) {
  const std::size_t words = ctx.words;
  const std::size_t planeCount = ctx.planeCount;
  const std::uint64_t* labels = ctx.data.labels;

  const auto nodeIndex = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{-1, 0, 0, leafProbability(n, pos)});
  if (isLeaf(n, pos, depth, ctx.params)) return nodeIndex;

  const std::span<const std::uint32_t> candidates =
      ctx.sampler.draw(ctx.params, ctx.rng);

  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  std::size_t bestN1 = 0, bestPos1 = 0;
  {
    const PackedSlot& rows = ctx.slots[s];
    for (std::size_t first = 0; first < candidates.size(); first += 4) {
      const std::size_t block =
          std::min<std::size_t>(4, candidates.size() - first);
      const std::uint64_t* cols[4];
      for (std::size_t j = 0; j < block; ++j) {
        cols[j] = ctx.data.columns[candidates[first + j]];
      }
      std::size_t n1s[4], pos1s[4];
      kCountBlock[block - 1](cols, rows.planes.data(), rows.active.data(),
                             rows.activeCount.data(), planeCount, words,
                             labels, n1s, pos1s);
      for (std::size_t j = 0; j < block; ++j) {
        const std::size_t n1 = n1s[j], pos1 = pos1s[j];
        const std::size_t n0 = n - n1;
        const std::size_t pos0 = pos - pos1;
        if (n0 < ctx.params.minSamplesLeaf ||
            n1 < ctx.params.minSamplesLeaf) {
          continue;
        }
        const double childImpurity =
            (static_cast<double>(n0) * gini(pos0, n0) +
             static_cast<double>(n1) * gini(pos1, n1)) /
            static_cast<double>(n);
        const double gain = parentImpurity - childImpurity;
        if (gain > bestGain) {
          bestGain = gain;
          bestFeature = static_cast<std::int32_t>(candidates[first + j]);
          bestN1 = n1;
          bestPos1 = pos1;
        }
      }
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition: rows with the feature set split off into the right child's
  // slot, the rest stay in place as the left child — plane & col and
  // plane & ~col preserve every row's multiplicity, and only the parent's
  // active words can be populated. Branch-free: every index is written
  // and each cursor advances by whether its side's word is non-empty.
  const std::size_t rightSlot = static_cast<std::size_t>(depth) + 1;
  PackedSlot& right = ctx.slot(rightSlot);
  PackedSlot& left = ctx.slots[s];
  const std::uint64_t* col =
      ctx.data.columns[static_cast<std::size_t>(bestFeature)];
  for (std::size_t k = 0; k < planeCount; ++k) {
    std::uint64_t* leftPlane = left.planes.data() + k * words;
    std::uint64_t* rightPlane = right.planes.data() + k * words;
    std::uint32_t* leftList = left.active.data() + k * words;
    std::uint32_t* rightList = right.active.data() + k * words;
    std::uint32_t keep = 0, moved = 0;
    for (std::uint32_t i = 0; i < left.activeCount[k]; ++i) {
      const std::uint32_t w = leftList[i];
      const std::uint64_t v = leftPlane[w];
      const std::uint64_t r = v & col[w];
      const std::uint64_t l = v ^ r;
      leftPlane[w] = l;
      rightPlane[w] = r;
      leftList[keep] = w;
      keep += l != 0 ? 1 : 0;
      rightList[moved] = w;
      moved += r != 0 ? 1 : 0;
    }
    left.activeCount[k] = keep;
    right.activeCount[k] = moved;
  }

  nodes_[nodeIndex].feature = bestFeature;
  const std::uint32_t leftIndex =
      growPacked(ctx, s, n - bestN1, pos - bestPos1, depth + 1);
  nodes_[nodeIndex].left = leftIndex;
  const std::uint32_t rightIndex =
      growPacked(ctx, rightSlot, bestN1, bestPos1, depth + 1);
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
  CandidateSampler sampler(data.featureCount());
  (void)grow(data, work, 0, params, rng, sampler);
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
                                 std::mt19937_64& rng,
                                 CandidateSampler& sampler) {
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

  const std::span<const std::uint32_t> candidates = sampler.draw(params, rng);

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
  const std::uint32_t left =
      grow(data, rows, depth + 1, params, rng, sampler);
  nodes_[nodeIndex].left = left;
  const std::uint32_t right =
      grow(data, rightRows, depth + 1, params, rng, sampler);
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
  std::uint32_t idx = 0;
  while (nodes_[idx].feature >= 0) {
    const auto feat = static_cast<std::size_t>(nodes_[idx].feature);
    idx = features[feat] ? nodes_[idx].right : nodes_[idx].left;
  }
  return nodes_[idx].probability;
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
