#include "ml/flat_forest.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace oisa::ml {

namespace {

/// Packs 64 bytes of 0/1 into a lane mask (byte L -> bit L), eight lanes
/// per multiply: with byte i of `eight` at bits 8i..8i+7, the factor
/// moves byte i's bit to bit 56 + i and every other partial product
/// lands on a distinct lower bit, so nothing carries into the top byte.
/// Filling bytes as 0/1 first lets the compiler vectorize the compares.
[[nodiscard]] std::uint64_t packLaneBytes(
    const std::array<std::uint8_t, 64>& bytes) noexcept {
  std::uint64_t mask = 0;
  for (std::size_t group = 0; group < 8; ++group) {
    std::uint64_t eight = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      eight |= std::uint64_t{bytes[8 * group + i]} << (8 * i);
    }
    mask |= ((eight * 0x0102040810204080ull) >> 56) << (8 * group);
  }
  return mask;
}

}  // namespace

double FlatForest::probability(
    std::span<const std::uint8_t> features) const noexcept {
  const FlatBankView& b = bank_;
  double sum = 0.0;
  for (const std::uint32_t root : roots_) {
    std::uint32_t idx = root;
    while (b.feature[idx] >= 0) {
      idx = features[static_cast<std::size_t>(b.feature[idx])] ? b.right[idx]
                                                              : b.left[idx];
    }
    sum += b.prob[idx];
  }
  return sum / static_cast<double>(roots_.size());
}

void FlatForest::accumulateTreeLanes(
    std::uint32_t idx, std::uint64_t mask,
    std::span<const std::uint64_t> featureWords,
    double* sums) const noexcept {
  // Lane-mask traversal: each (node, mask) pair splits its lanes by the
  // feature word and follows only populated sides, so one walk serves all
  // 64 lanes. Pending right branches live on a fixed explicit stack. The
  // bound holds for any bank that passed validateFlatBank: children
  // strictly follow their parent, so depth never exceeds the node count,
  // and grown trees are capped far below kStackedTreeDepth; a deeper
  // (hand-built) tree spills into recursion rather than overflowing.
  const FlatBankView& b = bank_;
  struct Frame {
    std::uint32_t idx;
    std::uint64_t mask;
  };
  std::array<Frame, kStackedTreeDepth> stack;
  std::size_t top = 0;
  for (;;) {
    while (b.feature[idx] >= 0) {
      const auto feat = static_cast<std::size_t>(b.feature[idx]);
      const std::uint64_t right = mask & featureWords[feat];
      const std::uint64_t left = mask ^ right;
      if (right == 0) {
        idx = b.left[idx];
        continue;
      }
      if (left == 0) {
        idx = b.right[idx];
        mask = right;
        continue;
      }
      if (top < stack.size()) {
        stack[top++] = Frame{b.right[idx], right};
      } else {
        accumulateTreeLanes(b.right[idx], right, featureWords, sums);
      }
      idx = b.left[idx];
      mask = left;
    }
    const double p = b.prob[idx];
    if (mask == ~std::uint64_t{0}) {
      for (std::size_t lane = 0; lane < 64; ++lane) sums[lane] += p;
    } else {
      std::uint64_t m = mask;
      while (m != 0) {
        sums[std::countr_zero(m)] += p;
        m &= m - 1;
      }
    }
    if (top == 0) return;
    --top;
    idx = stack[top].idx;
    mask = stack[top].mask;
  }
}

std::uint64_t FlatForest::predictWord(
    std::span<const std::uint64_t> featureWords, double* sums,
    WalkCounts& counts) const noexcept {
  const std::size_t trees = roots_.size();
  const double positive = thresholds_.positive;
  const double negative = thresholds_.negative;
  if (suffixMax_[0] < negative) {
    counts.pruned += trees;
    return 0;
  }
  std::fill_n(sums, 64, 0.0);
  std::uint64_t decidedPositive = 0;
  std::uint64_t open = ~std::uint64_t{0};
  for (std::size_t t = 0; t < trees; ++t) {
    accumulateTreeLanes(roots_[t], open, featureWords, sums);
    ++counts.walked;
    // Settled lanes (decision rule in the header). After the last tree
    // every open lane is settled by `sum >= s*` alone.
    const double rest = t + 1 < trees ? suffixMax_[t + 1] : 0.0;
    std::array<std::uint8_t, 64> upBytes;
    std::array<std::uint8_t, 64> downBytes;
    for (std::size_t lane = 0; lane < 64; ++lane) {
      upBytes[lane] = sums[lane] >= positive;
      downBytes[lane] = sums[lane] + rest < negative;
    }
    const std::uint64_t up = packLaneBytes(upBytes);
    const std::uint64_t down = packLaneBytes(downBytes);
    decidedPositive |= open & up;
    open &= ~(up | down);
    if (open == 0) {
      counts.pruned += trees - 1 - t;
      break;
    }
  }
  return decidedPositive;
}

FlatBankBounds deriveFlatBankBounds(const FlatBankView& bank) {
  // Maximum leaf probability reachable from each node. Children strictly
  // follow their parent (validateFlatBank), so one reverse scan sees every
  // child before its parent, shared (DAG) children included.
  // Branch-free (leaf and split nodes interleave unpredictably): a leaf
  // reads its own still-zero slot instead of its unused child offsets.
  std::vector<float> maxLeaf(bank.nodeCount());
  for (auto i = static_cast<std::uint32_t>(bank.nodeCount()); i-- > 0;) {
    const bool leaf = bank.feature[i] < 0;
    const float children = std::max(maxLeaf[leaf ? i : bank.left[i]],
                                    maxLeaf[leaf ? i : bank.right[i]]);
    maxLeaf[i] = leaf ? bank.prob[i] : children;
  }
  FlatBankBounds bounds;
  bounds.suffixMax.resize(bank.roots.size());
  bounds.thresholds.resize(bank.forestCount());
  for (std::size_t f = 0; f < bank.forestCount(); ++f) {
    const std::uint32_t begin = bank.forestBegin[f];
    const std::uint32_t end = bank.forestBegin[f + 1];
    double suffix = 0.0;
    for (std::uint32_t t = end; t-- > begin;) {
      suffix = static_cast<double>(maxLeaf[bank.roots[t]]) + suffix;
      bounds.suffixMax[t] = suffix;
    }
    // s*: count/2 divides to exactly 0.5; step down while the quotient
    // still rounds to >= 0.5 (rounded division is monotone, so the
    // qualifying sums form the interval [s*, inf)).
    const auto count = static_cast<double>(end - begin);
    double sStar = count * 0.5;
    for (double below = std::nextafter(sStar, 0.0); below / count >= 0.5;
         below = std::nextafter(sStar, 0.0)) {
      sStar = below;
    }
    // (2T+4)u is exact; the subtraction and the product round once each
    // (at most 1.5u together), leaving negative <= s* (1 - (2T+2)u) as
    // the header's bound requires.
    const double shrink =
        1.0 - static_cast<double>(2 * std::uint64_t{end - begin} + 4) * 0x1p-53;
    bounds.thresholds[f] = ForestThresholds{sStar, sStar * shrink};
  }
  return bounds;
}

FlatForestBank FlatForestBank::build(std::span<const RandomForest> forests,
                                     std::uint32_t featureCount) {
  if (featureCount >
      static_cast<std::uint32_t>(std::numeric_limits<std::int16_t>::max()) +
          1u) {
    throw std::invalid_argument(
        "FlatForestBank::build: featureCount exceeds the int16 node format");
  }
  FlatForestBank bank;
  bank.featureCount_ = featureCount;
  std::size_t totalNodes = 0;
  std::size_t totalTrees = 0;
  for (const RandomForest& forest : forests) {
    if (!forest.trained()) {
      throw std::invalid_argument("FlatForestBank::build: untrained forest");
    }
    totalTrees += forest.trees().size();
    for (const DecisionTree& tree : forest.trees()) {
      totalNodes += tree.nodes().size();
    }
  }
  if (totalNodes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "FlatForestBank::build: arena exceeds uint32 offsets");
  }
  bank.feature_.reserve(totalNodes);
  bank.left_.reserve(totalNodes);
  bank.right_.reserve(totalNodes);
  bank.prob_.reserve(totalNodes);
  bank.roots_.reserve(totalTrees);
  bank.forestBegin_.reserve(forests.size() + 1);

  bank.forestBegin_.push_back(0);
  for (const RandomForest& forest : forests) {
    for (const DecisionTree& tree : forest.trees()) {
      const auto base = static_cast<std::uint32_t>(bank.feature_.size());
      bank.roots_.push_back(base);
      for (const DecisionTree::Node& n : tree.nodes()) {
        if (n.feature >= static_cast<std::int32_t>(featureCount)) {
          throw std::invalid_argument(
              "FlatForestBank::build: split feature " +
              std::to_string(n.feature) + " out of range");
        }
        bank.feature_.push_back(
            n.feature < 0 ? std::int16_t{-1}
                          : static_cast<std::int16_t>(n.feature));
        bank.left_.push_back(base + n.left);
        bank.right_.push_back(base + n.right);
        bank.prob_.push_back(n.probability);
      }
    }
    bank.forestBegin_.push_back(
        static_cast<std::uint32_t>(bank.roots_.size()));
  }
  bank.bounds_ = deriveFlatBankBounds(bank.view());
  return bank;
}

FlatBankView FlatForestBank::view() const noexcept {
  FlatBankView v;
  v.feature = feature_;
  v.left = left_;
  v.right = right_;
  v.prob = prob_;
  v.roots = roots_;
  v.forestBegin = forestBegin_;
  v.featureCount = featureCount_;
  bounds_.attachTo(v);
  return v;
}

core::Status validateFlatBank(const FlatBankView& bank) {
  const auto corrupt = [](std::string what) {
    return core::Status::corruption("flat bank: " + std::move(what));
  };
  if (bank.forestBegin.empty()) {
    return corrupt("missing forest offset table");
  }
  if (bank.left.size() != bank.nodeCount() ||
      bank.right.size() != bank.nodeCount() ||
      bank.prob.size() != bank.nodeCount()) {
    return corrupt("node array lengths disagree");
  }
  if (bank.forestBegin.front() != 0 ||
      bank.forestBegin.back() != bank.roots.size()) {
    return corrupt("forest offset table does not span the root table");
  }
  for (std::size_t f = 1; f < bank.forestBegin.size(); ++f) {
    if (bank.forestBegin[f] < bank.forestBegin[f - 1]) {
      return corrupt("forest offset table not monotonic at entry " +
                     std::to_string(f));
    }
    if (bank.forestBegin[f] == bank.forestBegin[f - 1]) {
      // An empty forest would make predictWord divide by zero; the
      // builder never emits one (trained() forests have trees).
      return corrupt("forest " + std::to_string(f - 1) + " has no trees");
    }
  }
  const auto nodes = static_cast<std::uint32_t>(bank.nodeCount());
  for (std::size_t t = 0; t < bank.roots.size(); ++t) {
    if (bank.roots[t] >= nodes) {
      return corrupt("tree root " + std::to_string(t) + " out of range");
    }
  }
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const std::int16_t feat = bank.feature[i];
    if (feat < 0) {
      // Leaf: children unused; the probability must be a probability
      // (the pruned walk's bounds assume non-negative, finite leaves).
      const float p = bank.prob[i];
      if (!(p >= 0.0f && p <= 1.0f)) {
        return corrupt("node " + std::to_string(i) + " leaf probability " +
                       std::to_string(p) + " outside [0, 1]");
      }
      continue;
    }
    if (static_cast<std::uint32_t>(feat) >= bank.featureCount) {
      return corrupt("node " + std::to_string(i) + " splits feature " +
                     std::to_string(feat) + " past featureCount " +
                     std::to_string(bank.featureCount));
    }
    // Children strictly after the parent: the growers' append order,
    // and the property that makes any walk provably terminate.
    if (bank.left[i] <= i || bank.left[i] >= nodes || bank.right[i] <= i ||
        bank.right[i] >= nodes) {
      return corrupt("node " + std::to_string(i) +
                     " child offsets out of order");
    }
  }
  return core::Status::ok();
}

}  // namespace oisa::ml
