#include "ml/importance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace oisa::ml {

namespace {

/// Scales `v` to sum 1; an all-zero vector stays all zeros.
void normalize(std::vector<double>& v) {
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  if (total > 0.0) {
    for (double& x : v) x /= total;
  }
}

/// Adds `from` into `into` element-wise.
void addInto(std::vector<double>& into, const std::vector<double>& from) {
  for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
}

}  // namespace

std::vector<double> featureImportance(const FlatBankView& bank) {
  const std::size_t features = bank.featureCount;
  std::vector<double> total(features, 0.0);
  std::vector<double> forest(features);
  std::vector<double> tree(features);
  // Iterative walk carrying depth; weight = 2^-depth approximates the
  // fraction of samples reaching the node.
  std::vector<std::pair<std::uint32_t, int>> stack;
  std::size_t budget = bank.nodeCount();
  for (std::size_t f = 0; f < bank.forestCount(); ++f) {
    std::fill(forest.begin(), forest.end(), 0.0);
    for (std::uint32_t t = bank.forestBegin[f]; t < bank.forestBegin[f + 1];
         ++t) {
      std::fill(tree.begin(), tree.end(), 0.0);
      stack.assign(1, {bank.roots[t], 0});
      while (!stack.empty() && budget != 0) {
        const auto [idx, depth] = stack.back();
        stack.pop_back();
        --budget;
        const std::int16_t feat = bank.feature[idx];
        if (feat < 0) continue;
        tree[static_cast<std::size_t>(feat)] += std::ldexp(1.0, -depth);
        stack.emplace_back(bank.left[idx], depth + 1);
        stack.emplace_back(bank.right[idx], depth + 1);
      }
      normalize(tree);
      addInto(forest, tree);
    }
    normalize(forest);
    addInto(total, forest);
  }
  normalize(total);
  return total;
}

}  // namespace oisa::ml
