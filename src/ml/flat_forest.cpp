#include "ml/flat_forest.h"

#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace oisa::ml {

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
  // The explicit-stack lane-mask traversal of DecisionTree::
  // accumulateLanes, re-rooted on the flat arrays. The stack bound holds
  // for any bank that passed validateFlatBank: children strictly follow
  // their parent, so depth never exceeds the node count, and grown trees
  // are capped far below kStackedTreeDepth; a deeper (hand-built) tree spills
  // into recursion rather than overflowing.
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
    std::span<const std::uint64_t> featureWords, double* sums) const noexcept {
  for (const std::uint32_t root : roots_) {
    accumulateTreeLanes(root, ~std::uint64_t{0}, featureWords, sums);
  }
  const auto count = static_cast<double>(roots_.size());
  std::uint64_t predictions = 0;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    sums[lane] = sums[lane] / count;
    if (sums[lane] >= 0.5) predictions |= std::uint64_t{1} << lane;
  }
  return predictions;
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
    if (feat < 0) continue;  // leaf: children unused
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
