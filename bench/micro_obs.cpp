// Telemetry overhead gate: the fig7 cell path (train the per-bit forest,
// evaluate ABPER/AVPE) run with the obs substrate fully armed (metrics
// registry on + span tracing into the ring) versus stripped (metrics
// master switch off, tracing disarmed). The CI gate is --min-speedup=0.97:
// instrumentation may cost at most ~3% on the real campaign path.
//
// Each timed rep runs 18 cells (every other paper design at the three
// paper CPRs) on one worker thread, ~0.2 s, and the two sides alternate
// which runs first. The gated speedup is the median over reps of the per-rep
// stripped/armed ratio: the two runs of a rep are adjacent in time and
// see the same host load, which drifts over seconds on a shared machine.
//
// Self-checking before any timing is reported:
//   1. byte-identity — the evaluation rows produced with telemetry armed
//      must equal the stripped rows bit for bit (cross-check #11: the
//      substrate is side-effect-only);
//   2. liveness — the armed run must actually record (counters move,
//      spans land in the ring); gating a no-op would prove nothing.
//
// Usage: micro_obs [--train-cycles=N] [--test-cycles=N] [--trees=T]
//                  [--seed=S] [--reps=N] [--threads=N (default 1)]
//                  [--min-speedup=X] [--json=path]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/cli.h"
#include "experiments/runner.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool rowsEqual(const std::vector<oisa::experiments::PredictionRow>& a,
               const std::vector<oisa::experiments::PredictionRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].design != b[i].design || a[i].cprPercent != b[i].cprPercent ||
        a[i].periodNs != b[i].periodNs || a[i].abper != b[i].abper ||
        a[i].avpe != b[i].avpe || a[i].trainCycles != b[i].trainCycles ||
        a[i].testCycles != b[i].testCycles) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return bench::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const double minSpeedup = args.getDouble("min-speedup", 0.0);

    // Every other paper design at the three paper CPR points: 18 of the
    // 36 cells fig7 sweeps, with the same cell body.
    std::vector<circuits::SynthesizedDesign> designs;
    const auto& paper = core::paperDesigns();
    for (std::size_t i = 0; i < paper.size(); i += 2) {
      designs.push_back(circuits::synthesize(paper[i],
                                             timing::CellLibrary::generic65(),
                                             circuits::SynthesisOptions{}));
    }
    const std::vector<double>& cprs = bench::paperCprs();

    experiments::PredictionOptions options;
    options.trainCycles = args.getU64("train-cycles", 6000);
    options.testCycles = args.getU64("test-cycles", 3000);
    options.run.seed = args.getU64("seed", 42);
    // One worker: the gate prices the per-cell instrumentation, and a
    // one-thread grid keeps other tenants' load on the remaining cores
    // out of the ratio.
    options.run.threads = static_cast<unsigned>(args.getU64("threads", 1));
    options.predictor.forest.treeCount = args.getPositiveU64("trees", 10);

    const auto runCell = [&] {
      return runPredictionEvaluation(designs, cprs, options);
    };

    // -----------------------------------------------------------------
    // Correctness gate 1: telemetry on or off, the rows are identical —
    // the substrate observes the campaign, it never participates in it.
    // -----------------------------------------------------------------
    obs::setMetricsEnabled(false);
    obs::stopTracing();
    const auto strippedRows = runCell();

    obs::setMetricsEnabled(true);
    obs::startTracing();
    const obs::MetricsSnapshot before = obs::snapshotMetrics();
    const auto armedRows = runCell();
    const obs::MetricsSnapshot after = obs::snapshotMetrics();
    const std::string trace = obs::drainTraceJson();
    obs::stopTracing();

    if (!rowsEqual(strippedRows, armedRows)) {
      std::cerr << "MISMATCH: telemetry changed the evaluation rows\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Correctness gate 2: the armed run actually recorded something.
    // -----------------------------------------------------------------
    const auto delta = [&](const char* name) {
      const auto b = before.counters.find(name);
      const auto a = after.counters.find(name);
      const std::uint64_t b0 = b == before.counters.end() ? 0 : b->second;
      const std::uint64_t a0 = a == after.counters.end() ? 0 : a->second;
      return a0 - b0;
    };
    const std::uint64_t cells = delta("grid.cells_completed");
    const std::uint64_t evalRows = delta("predict.eval_rows");
    const std::uint64_t simEvents = delta("sim.events_committed");
    if (cells == 0 || evalRows == 0 || simEvents == 0) {
      std::cerr << "MISMATCH: armed run recorded no counters (cells " << cells
                << ", eval rows " << evalRows << ", sim events " << simEvents
                << ")\n";
      return EXIT_FAILURE;
    }
    if (trace.find("\"name\": \"cell\"") == std::string::npos) {
      std::cerr << "MISMATCH: armed run produced no cell spans\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Timed runs, interleaved: stripped is the reference, armed the
    // contender; speedup = median over reps of stripped/armed, so 1.0
    // means free and 0.97 is the 3%-overhead ceiling CI enforces. The
    // two sides alternate which runs first, so neither always inherits
    // the other's warm caches. The fastest run of each side is reported
    // alongside. 21 reps by default: on a shared 4-vCPU host the median of
    // 9 swung 0.77-0.99 on an unchanged tree, the median of 21 0.98-1.01.
    // -----------------------------------------------------------------
    const auto reps = std::max<std::uint64_t>(1, args.getU64("reps", 21));
    double strippedSec = 0.0;
    double armedSec = 0.0;
    std::vector<double> ratios;
    std::vector<experiments::PredictionRow> sRows;
    std::vector<experiments::PredictionRow> aRows;
    const auto timeStripped = [&] {
      obs::setMetricsEnabled(false);
      const auto t0 = Clock::now();
      sRows = runCell();
      return secondsSince(t0);
    };
    const auto timeArmed = [&] {
      obs::setMetricsEnabled(true);
      obs::startTracing();
      const auto t0 = Clock::now();
      aRows = runCell();
      const double sec = secondsSince(t0);
      obs::stopTracing();
      return sec;
    };
    for (std::uint64_t i = 0; i < reps; ++i) {
      double s = 0.0;
      double a = 0.0;
      if (i % 2 == 0) {
        s = timeStripped();
        a = timeArmed();
      } else {
        a = timeArmed();
        s = timeStripped();
      }

      if (!rowsEqual(sRows, aRows)) {
        std::cerr << "MISMATCH: timed-loop rows diverged at rep " << i << "\n";
        return EXIT_FAILURE;
      }
      ratios.push_back(s / a);
      if (i == 0 || s < strippedSec) strippedSec = s;
      if (i == 0 || a < armedSec) armedSec = a;
    }
    obs::setMetricsEnabled(true);  // leave the process-default state

    std::sort(ratios.begin(), ratios.end());
    const double speedup = ratios[ratios.size() / 2];
    std::cout << "fig7 cells (" << designs.size()
              << " paper designs @ 5/10/15% CPR, "
              << options.run.threads << " thread(s), train "
              << options.trainCycles << " / test " << options.testCycles
              << " cycles)\nrows identical armed vs stripped; armed run: "
              << cells << " cell(s), " << evalRows
              << " eval rows, spans recorded\n\n"
              << "stripped: " << strippedSec << " s (fastest rep)\narmed:    "
              << armedSec << " s (fastest rep)\nspeedup:  " << speedup
              << "x (median of " << reps
              << " per-rep ratios; 1.0 = telemetry free)\n";

    bench::BenchJson json("micro_obs");
    json.add("grid_threads", static_cast<std::uint64_t>(options.run.threads))
        .add("train_cycles", options.trainCycles)
        .add("test_cycles", options.testCycles)
        .add("cells", cells)
        .add("eval_rows", evalRows)
        .add("stripped_sec", strippedSec)
        .add("armed_sec", armedSec);
    return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
  });
}
