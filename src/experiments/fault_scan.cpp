#include "experiments/fault_scan.h"

#include <algorithm>
#include <span>

#include "core/error_model.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "obs/span.h"
#include "predict/trace.h"

namespace oisa::experiments {

namespace {

/// The timed phase's streams: the 64-lane reference schedule, read by
/// TraceCollector::replay as 64 interleaved streams (stream l settles on
/// draw l and measures draw 64 + 64b + l at its cycle b).
constexpr std::size_t kTimedStreams = 64;

}  // namespace

std::vector<FaultScanRow> runFaultErrorScan(
    const std::vector<circuits::SynthesizedDesign>& designs,
    const FaultScanOptions& options) {
  CampaignFingerprint fp("runFaultErrorScan");
  fp.mix(static_cast<std::uint64_t>(designs.size()));
  for (const auto& design : designs) {
    fp.mix(design.config.name());
    fp.mix(static_cast<std::uint64_t>(design.netlist.gateCount()));
  }
  fp.mix(options.run.cycles);
  fp.mix(options.run.seed);
  fp.mix(options.run.workload);
  fp.mix(options.run.signOffPeriodNs);
  fp.mix(options.cprPercent);
  fp.mix(options.timedCycles);
  fp.mix(static_cast<std::uint64_t>(options.timedFaults));
  const auto scanCell = [&](std::size_t d) {
    const circuits::SynthesizedDesign& design = designs[d];
    const int width = design.config.width;
    FaultScanRow row;
    row.design = design.config.name();
    row.cprPercent = options.cprPercent;
    row.periodNs =
        overclockedPeriodNs(options.run.signOffPeriodNs, options.cprPercent);
    // One compile per cell: the collector's, shared by the fault universe
    // and the PPSFP engine. The collector rejects designs that break the
    // adder port convention the stimulus packer assumes.
    TraceCollector collector(design, row.periodNs);
    const auto& compiled = collector.compiled();

    // Phase 1: PPSFP coverage under the experiment workload. Every design
    // sees the same stimulus stream (shared seed), as in the paper's
    // common random sample.
    fault::FaultUniverse universe(compiled);
    const auto engine = fault::makePpsfpEngine(compiled);
    fault::CoverageOptions coverage;
    coverage.patterns = options.run.cycles;
    const auto workload =
        makeWorkload(options.run.workload, width, options.run.seed);
    std::vector<Stimulus> stims(engine->lanes());
    std::uint64_t remaining = coverage.patterns;
    // Pattern p of a block is the block's draw p on lane p, so wide
    // engines consume the stream exactly as the 64-lane reference would
    // and CoverageResult is width-independent.
    const fault::PatternBlockSource source =
        [&](std::span<std::uint64_t> inputWords) -> std::size_t {
      if (remaining == 0) return 0;
      const auto count = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, stims.size()));
      remaining -= count;
      for (std::size_t p = 0; p < count; ++p) stims[p] = workload->next();
      packStimulusWords(std::span(stims.data(), count), width,
                        engine->wordsPerNet(), inputWords);
      return count;
    };
    const fault::CoverageResult cov =
        fault::runCoverage(universe, *engine, coverage, source);
    row.universeFaults = cov.universeFaults;
    row.collapsedClasses = cov.collapsedClasses;
    row.detectedClasses = cov.detectedClasses;
    row.coveragePercent = cov.coverage() * 100.0;
    row.patterns = cov.patternsApplied;

    // Phase 2: timed defective runs on a deterministic sample of the
    // detected stem classes, against a paired healthy baseline: one
    // materialized stream (64 settle draws, then the measured draws) and
    // its y_diamond/y_gold, replayed once healthy and once per defect.
    std::vector<fault::Fault> detectedStems;
    const auto classes = universe.collapsed();
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (cov.detected[ci] != 0) detectedStems.push_back(classes[ci]);
    }
    const std::vector<fault::Fault> sample =
        fault::selectTimedFaults(detectedStems, options.timedFaults);
    const obs::ObsSpan span("fault.timed", "fault", "defects", sample.size());
    const auto timedWorkload =
        makeWorkload(options.run.workload, width, options.run.seed + 1);
    std::vector<Stimulus> draws(kTimedStreams + options.timedCycles);
    for (auto& s : draws) s = timedWorkload->next();
    predict::Trace trace = collector.goldRecords(draws, kTimedStreams);
    // RMS accumulation is order-sensitive in floating point: fold in
    // ascending measurement m (block m / 64, lane m % 64 of the reference
    // schedule), whatever the engine width.
    const auto relJointRms = [&](const fault::Fault* defect,
                                 std::uint64_t defectIndex) {
      collector.replay(draws, kTimedStreams, trace, defect, defectIndex);
      core::ErrorCombination combo;
      for (const predict::TraceRecord& rec : trace) {
        combo.add(core::OutputTriple{rec.diamondValue(width),
                                     rec.goldValue(width),
                                     rec.silverValue(width)});
      }
      return combo.relJoint().rms();
    };
    row.rmsRelJointHealthy = relJointRms(nullptr, 0);
    double sum = 0.0;
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const double rms = relJointRms(&sample[k], k + 1);
      sum += rms;
      row.worstRelJointFaulty = std::max(row.worstRelJointFaulty, rms);
    }
    row.timedFaultsMeasured = sample.size();
    // No detected stem faults -> no defective measurement: report a zero
    // shift rather than 0 - healthy (which would read as a defect
    // improving the error).
    if (!sample.empty()) {
      row.rmsRelJointFaulty = sum / static_cast<double>(sample.size());
      row.eJointShift = row.rmsRelJointFaulty - row.rmsRelJointHealthy;
    }
    return row;
  };
  return runCampaignGrid<FaultScanRow>(designs.size(), options.run, fp,
                                       scanCell);
}

}  // namespace oisa::experiments
