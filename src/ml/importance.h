// oisa_ml: split-based feature importance.
//
// Trees don't store impurity gains, so importance is estimated from split
// usage weighted by node population share (approximated by 2^-depth: a
// split nearer the root sees more samples). Good enough to rank features —
// the predictor uses it to show that the paper's {x[t-1], yRTL} features
// carry real signal.
#pragma once

#include <vector>

#include "ml/flat_forest.h"

namespace oisa::ml {

/// Per-feature importance of a flat bank (bank.featureCount entries).
/// Each tree's split weights are normalized to sum 1, each forest's mean
/// of its trees to sum 1, and the sum over forests to sum 1; an all-leaf
/// bank gives all zeros. Trees are walked depth-first from the root,
/// pushing left then right, so the result is a pure function of the node
/// arrays: a loaded bank ranks features exactly like the bank it was
/// saved from. The walk visits at most nodeCount() nodes in all, which
/// only a shared (DAG-shaped) arena, never a trained one, can exhaust.
[[nodiscard]] std::vector<double> featureImportance(const FlatBankView& bank);

}  // namespace oisa::ml
