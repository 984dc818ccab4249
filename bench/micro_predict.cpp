// Throughput of the flat-bank batch-64 predictFlips hot path against the
// scalar reference path (per-record byte-feature extraction + one scalar
// flat-forest walk per output bit) on the paper's per-bit timing-error
// model — the acceptance benchmark for the flat inference substrate
// (>= 4x is the CI gate).
//
// Self-checking, in the micro_forest tradition: before any timing is
// reported the paths must agree *exactly* —
//   1. the flattened bank must pass structural validation and hold one
//      forest per output bit,
//   2. predictFlipsBlock must match predictFlipsReference lane for lane
//      on every test record pair, including the ragged final block, and
//   3. a binary-envelope round trip (saveFlat -> mmap loadFlat) must
//      reproduce the exact same predictions straight off the mapped file.
//
// Usage: micro_predict [--width=32] [--train-cycles=N] [--test-cycles=N]
//                      [--trees=T] [--depth=D] [--seed=S] [--reps=N]
//                      [--min-speedup=X] [--json=path] [--model=path]
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <random>
#include <span>
#include <vector>

#include "experiments/cli.h"
#include "ml/flat_forest.h"
#include "predict/bit_predictor.h"
#include "predict/features.h"

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;
using oisa::predict::BitLevelPredictor;
using oisa::predict::FeatureExtractor;
using oisa::predict::PredictedFlips;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Synthetic overclocked-adder trace with a learnable timing-error
/// process (micro_forest's generator): transition-sensitized bits plus
/// rare broadband noise, so the forests grow real trees.
Trace makeTrace(int width, std::uint64_t cycles, std::uint64_t seed) {
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(seed);
  Trace trace;
  trace.reserve(cycles);
  std::uint64_t prevA = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    TraceRecord rec;
    rec.a = rng() & mask;
    rec.b = rng() & mask;
    const std::uint64_t sum = rec.a + rec.b;
    rec.gold = sum & mask;
    rec.goldCout = ((sum >> width) & 1u) != 0;
    rec.diamond = rec.gold;
    rec.diamondCout = rec.goldCout;
    rec.silver = rec.gold;
    rec.silverCout = rec.goldCout;
    for (const int k : {3, 11, 19, 27}) {
      if (k + 1 >= width) continue;
      const bool carry = ((rec.a >> k) & (rec.b >> k) & 1u) != 0;
      const bool quiet = ((prevA >> k) & 1u) == 0;
      if (carry && quiet) rec.silver ^= std::uint64_t{1} << (k + 1);
    }
    if ((rng() & 0x3fu) == 0) {
      rec.silver ^= std::uint64_t{1}
                    << (rng() % static_cast<std::uint64_t>(width));
    }
    if ((rng() & 0xffu) == 0) rec.silverCout = !rec.silverCout;
    prevA = rec.a;
    trace.push_back(rec);
  }
  return trace;
}

/// Folds a prediction into a checksum (keeps the timed loops observable).
std::uint64_t fold(std::uint64_t acc, const PredictedFlips& f) {
  return acc * 0x100000001b3ull ^ f.sumFlips ^ (f.coutFlip ? 1u : 0u);
}

/// Runs predictFlipsBlock over the whole trace in 64-pair blocks (final
/// block ragged) and returns the prediction checksum.
std::uint64_t runBlocks(const BitLevelPredictor& predictor, const Trace& trace,
                        std::span<PredictedFlips> out) {
  const std::size_t rows = trace.size() - 1;
  const std::span<const TraceRecord> records(trace);
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows - base);
    predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                out.subspan(base, n));
  }
  std::uint64_t acc = 0;
  for (const PredictedFlips& f : out) acc = fold(acc, f);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return bench::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const int width = static_cast<int>(args.getU64("width", 32));
    const std::uint64_t trainCycles = args.getU64("train-cycles", 6000);
    const std::uint64_t testCycles = args.getU64("test-cycles", 20000);
    const double minSpeedup = args.getDouble("min-speedup", 0.0);
    const std::uint64_t baseSeed = args.getU64("seed", 42);
    const std::string modelPath = args.getString(
        "model", (std::filesystem::temp_directory_path() /
                  "micro_predict_bank.ffb")
                     .string());

    predict::PredictorParams params;
    params.forest.treeCount = args.getPositiveU64("trees", 10);
    params.forest.tree.maxDepth = static_cast<int>(
        args.getU64InRange("depth", 10, 0, ml::kStackedTreeDepth));
    params.seed = baseSeed;

    const Trace trainTrace = makeTrace(width, trainCycles, baseSeed + 101);
    const Trace testTrace = makeTrace(width, testCycles, baseSeed + 202);
    const std::size_t rows = testTrace.size() - 1;

    BitLevelPredictor predictor(width, params);
    predictor.fit(trainTrace);
    const int bits = predictor.extractor().outputBitCount();

    std::cout << "trace:  width " << width << " (" << bits
              << " output bits), train " << trainCycles << " / predict "
              << rows << " record pairs\nmodel:  " << params.forest.treeCount
              << " trees/forest, depth " << params.forest.tree.maxDepth
              << ", features " << predictor.extractor().featureCount()
              << "\n\n";

    // -----------------------------------------------------------------
    // Correctness gate 1: the flat arena is structurally valid and holds
    // one forest per output bit.
    // -----------------------------------------------------------------
    const ml::FlatBankView flat = predictor.flatView();
    if (core::Status s = ml::validateFlatBank(flat); !s.isOk()) {
      std::cerr << "MISMATCH: flat bank fails validation: " << s.toString()
                << "\n";
      return EXIT_FAILURE;
    }
    if (flat.forestCount() != static_cast<std::size_t>(bits)) {
      std::cerr << "MISMATCH: flat bank has " << flat.forestCount()
                << " forests, want " << bits << "\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Correctness gate 2: block path == scalar reference path, lane for
    // lane, over every record pair (the final block is ragged unless the
    // row count happens to be a multiple of 64).
    // -----------------------------------------------------------------
    std::vector<PredictedFlips> blockFlips(rows);
    const std::uint64_t blockSum = runBlocks(predictor, testTrace, blockFlips);
    for (std::size_t r = 0; r < rows; ++r) {
      const PredictedFlips ref =
          predictor.predictFlipsReference(testTrace[r], testTrace[r + 1]);
      if (ref.sumFlips != blockFlips[r].sumFlips ||
          ref.coutFlip != blockFlips[r].coutFlip) {
        std::cerr << "MISMATCH: block and scalar predictions disagree at "
                     "row " << r << "\n";
        return EXIT_FAILURE;
      }
    }

    // -----------------------------------------------------------------
    // Correctness gate 3: binary envelope round trip. The mmap-loaded
    // bank must reproduce the exact same predictions off the file bytes.
    // -----------------------------------------------------------------
    core::throwIfError(predictor.saveFlat(modelPath));
    const auto loadStart = Clock::now();
    BitLevelPredictor mapped =
        BitLevelPredictor::loadFlat(modelPath).valueOrThrow();
    const double loadSec = secondsSince(loadStart);
    std::vector<PredictedFlips> mappedFlips(rows);
    const std::uint64_t mappedSum = runBlocks(mapped, testTrace, mappedFlips);
    if (mappedSum != blockSum) {
      std::cerr << "MISMATCH: mmap-loaded bank predictions differ\n";
      return EXIT_FAILURE;
    }
    const auto modelBytes = std::filesystem::file_size(modelPath);
    std::remove(modelPath.c_str());

    // -----------------------------------------------------------------
    // Timed runs, interleaved min-of-reps (micro_forest's scheme): the
    // reference is the scalar per-record predictFlipsReference, the
    // contender the flat batch-64 block path.
    // -----------------------------------------------------------------
    const auto reps = std::max<std::uint64_t>(1, args.getU64("reps", 5));
    const auto timeOnce = [](auto&& phase) {
      const auto start = Clock::now();
      phase();
      return secondsSince(start);
    };
    double refSec = 0.0;
    double flatSec = 0.0;
    std::uint64_t refSum = 0;
    std::uint64_t timedBlockSum = 0;
    for (std::uint64_t i = 0; i < reps; ++i) {
      const double r = timeOnce([&] {
        std::uint64_t acc = 0;
        for (std::size_t t = 0; t < rows; ++t) {
          acc = fold(acc, predictor.predictFlipsReference(testTrace[t],
                                                          testTrace[t + 1]));
        }
        refSum = acc;
      });
      const double f = timeOnce([&] {
        timedBlockSum = runBlocks(predictor, testTrace, blockFlips);
      });
      if (i == 0 || r < refSec) refSec = r;
      if (i == 0 || f < flatSec) flatSec = f;
    }
    if (refSum != blockSum || timedBlockSum != blockSum) {
      std::cerr << "MISMATCH: timed-loop checksums diverged\n";
      return EXIT_FAILURE;
    }

    const double speedup = flatSec > 0 ? refSec / flatSec : 0.0;
    const double nsPerRecordRef = refSec / static_cast<double>(rows) * 1e9;
    const double nsPerRecordFlat = flatSec / static_cast<double>(rows) * 1e9;

    std::cout << "flat bank: " << flat.nodeCount() << " nodes / "
              << flat.roots.size() << " trees in one arena ("
              << modelBytes << " bytes on disk, mmap load " << loadSec * 1e3
              << " ms)\npredictions agree: " << rows
              << " record pairs lane-for-lane, scalar vs block vs mmap\n\n"
              << "scalar reference: " << refSec << " s  (" << nsPerRecordRef
              << " ns/record)\nflat block-64:    " << flatSec << " s  ("
              << nsPerRecordFlat << " ns/record)\nspeedup:  " << speedup
              << "x\n";

    bench::BenchJson json("micro_predict");
    json.add("width", static_cast<std::uint64_t>(width))
        .add("train_cycles", trainCycles)
        .add("record_pairs", static_cast<std::uint64_t>(rows))
        .add("trees", params.forest.treeCount)
        .add("flat_nodes", static_cast<std::uint64_t>(flat.nodeCount()))
        .add("model_bytes", static_cast<std::uint64_t>(modelBytes))
        .add("load_sec", loadSec)
        .add("ref_sec", refSec)
        .add("flat_sec", flatSec)
        .add("ns_per_record_ref", nsPerRecordRef)
        .add("ns_per_record_flat", nsPerRecordFlat);
    return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
  });
}
