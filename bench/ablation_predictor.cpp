// Ablation B: predictor model family and feature ablation. Compares the
// paper's Random Forest against a single decision tree and the majority
// baseline, and quantifies what the {yRTL[t-1], yRTL[t]} output-bit
// features contribute.
//
// Usage: ablation_predictor [--train-cycles=N] [--test-cycles=N]
//                           [--cpr=15] [--seed=S] [--csv=path]
#include <cstdint>

#include "experiments/runner.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);

  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 0, 4),
      core::makeExact(32)};
  std::vector<circuits::SynthesizedDesign> designs;
  for (const auto& cfg : subset) {
    designs.push_back(circuits::synthesize(
        cfg, timing::CellLibrary::generic65(), circuits::SynthesisOptions{}));
  }

  const double cprs[] = {args.getDouble("cpr", 15.0)};
  experiments::PredictionOptions options;
  options.trainCycles = args.getU64("train-cycles", 6000);
  options.testCycles = args.getU64("test-cycles", 3000);
  options.run.seed = args.getU64("seed", 42);

  // The baselines are ForestParams points (ml/random_forest.h): a decision
  // tree is one unbootstrapped tree scoring every feature per split, the
  // majority vote that tree at depth 0.
  ml::ForestParams forest;
  ml::ForestParams tree;
  tree.treeCount = 1;
  tree.bootstrap = false;
  tree.tree.featuresPerSplit = SIZE_MAX;
  ml::ForestParams majority = tree;
  majority.tree.maxDepth = 0;

  struct Variant {
    const char* label;
    ml::ForestParams model;
    bool outputBits;
  };
  const Variant variants[] = {
      {"random-forest", forest, true},
      {"decision-tree", tree, true},
      {"majority", majority, true},
      {"rf-no-output-bits", forest, false},
  };

  std::cout << "== Ablation: predictor family and features @ " << cprs[0]
            << "% CPR ==\n\n";
  experiments::Table table({"design", "model", "abper", "avpe"});
  for (const Variant& variant : variants) {
    options.predictor.forest = variant.model;
    options.predictor.includeOutputBits = variant.outputBits;
    const auto rows = runPredictionEvaluation(designs, cprs, options);
    for (const auto& row : rows) {
      table.addRow({row.design, variant.label,
                    experiments::formatSci(
                        experiments::displayFloor(row.abper), 3),
                    experiments::formatSci(
                        experiments::displayFloor(row.avpe), 3)});
    }
  }
  bench::emit(table, args);
  return 0;
}
