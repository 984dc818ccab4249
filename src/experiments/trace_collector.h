// oisa_experiments: gate-level trace collection.
//
// The paper's "Data Collection" step: drive the synthesized design with a
// workload through the overclocked event-driven simulator, recording per
// cycle the exact sum (y_diamond), the behavioral/RTL sum (y_gold) and the
// gate-level sampled sum (y_silver).
//
// TraceCollector is the one timed-replay scheduler in the library. A
// replay takes materialized draws D in draw order and reads them as S
// interleaved streams: stream l is D[l], D[S + l], D[2S + l], ..., its
// index 0 is the stream's settle vector, and record m is driven by draw
// S + m. Each stream is split into K contiguous chunks (sizes differing by
// at most one) and chunk j of stream l runs on lane S*j + l of one timed
// sweep over the shared compiled netlist, so up to W (the runtime-selected
// lane width, 64/256/512 — see netlist/lane_width.h) overclocked cycles
// advance per wheel pass. Two schedules use it:
//
//  * S = 1, collect(): one stream, the sequential stimulus order of the
//    Fig. 7-10 pipelines.
//  * S = 64, the defect scan's 64-stream reference schedule
//    (experiments/fault_scan.h): K = W / 64 chunks per stream, so lane
//    64j + l is chunk j of stream l.
//
// The replay is **bit-exact** versus one sequential run per stream at any
// chunk count and any width: a latched output depends only on the input
// vectors applied within one maximum-path-delay window before its edge, so
// seeding each chunk with a settle on the stream's stimulus just before its
// window (plus `warmUpCycles()` replayed-but-discarded cycles when the
// overclock is deeper than half the critical path) reproduces the
// mid-stream simulator state exactly. maxLanes = 1 is one chunk on one
// lane; there is no scalar fallback. tests/lane_sim_test.cpp asserts
// record-for-record equality against the retained scalar reference
// (collectTraceScalar), including a width-64 adder and the single-lane
// schedule, and asserts the S = 64 replay (healthy and defective) equals
// its one-chunk-per-stream schedule; tests/lane_width_test.cpp re-asserts
// it at every available width, and bench/micro_lane_sim.cpp re-proves it
// before gating the speedup.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "experiments/workload.h"
#include "fault/fault_model.h"
#include "netlist/compiled_netlist.h"
#include "predict/features.h"
#include "predict/trace.h"
#include "timing/lane_dispatch.h"
#include "timing/lane_sim.h"

namespace oisa::experiments {

/// Clock-period reduction (CPR) in percent of the sign-off period.
[[nodiscard]] constexpr double overclockedPeriodNs(double signOffNs,
                                                   double cprPercent) noexcept {
  return signOffNs * (1.0 - cprPercent / 100.0);
}

/// A collected trace together with its packed bit-column form (the
/// ml::PackedView substrate the predictor bank trains and evaluates on).
struct CollectedTrace {
  predict::Trace trace;
  predict::PackedTraceFeatures packed;
};

/// Lane-parallel timed trace collector for one (design, period) point.
///
/// Construct once per point and reuse across replays (train/test streams,
/// repeated sweeps, a healthy run and its defects): the netlist is
/// compiled once and the lane simulator's buffers are recycled. Each
/// replay resets the simulator, so repeated runs with identical draws are
/// bit-identical.
class TraceCollector {
 public:
  /// `periodNs` — the (possibly overclocked) clock period. `maxLanes`
  /// caps the lanes per sweep (0 means "the full selected lane width"; 1
  /// replays every stream as one chunk on one lane; results are
  /// bit-identical at any value). Throws std::invalid_argument when the
  /// design does not follow the adder port convention (a0..aN-1,
  /// b0..bN-1, cin in; s0..sN-1, cout out).
  TraceCollector(const circuits::SynthesizedDesign& design, double periodNs,
                 std::size_t maxLanes = 0);

  /// Runs `cycles` cycles of `workload` through the design and returns the
  /// per-cycle trace: the S = 1 replay of cycles + 1 draws, the first of
  /// which is the settled reset vector (not recorded). Bit-identical to
  /// collectTraceScalar() for the same workload state at any lane count.
  [[nodiscard]] predict::Trace collect(Workload& workload,
                                       std::uint64_t cycles);

  /// collect() plus the packed bit-column emission: the collector owns
  /// each trace's single packing pass (the 64-row block shift-and-
  /// transpose of FeatureExtractor::packTrace, run once here over the
  /// collected records), so downstream consumers (BitLevelPredictor::
  /// fit/evaluate) take the packed blocks directly and never re-pack.
  [[nodiscard]] CollectedTrace collectPacked(
      Workload& workload, std::uint64_t cycles,
      const predict::FeatureExtractor& extractor);

  /// The records of a replay of `draws` as `streams` interleaved streams,
  /// without y_silver: record m holds draw streams + m and its y_diamond
  /// and y_gold. One "trace.gold" span per call. Throws
  /// std::invalid_argument when `streams` is 0 or exceeds the draws.
  [[nodiscard]] predict::Trace goldRecords(std::span<const Stimulus> draws,
                                           std::size_t streams) const;

  /// Replays `draws` as `streams` interleaved streams through the
  /// overclocked netlist and writes y_silver into every record of `trace`
  /// (the goldRecords(draws, streams) layout). With `defect`, the stem
  /// stuck-at fault is clamped into every lane: forces are cleared, the
  /// simulator reset, the fault injected and only then are the chunks
  /// settled — the state of a fresh defective sampler. `streams` must
  /// divide the lanes in use and `trace` must hold draws.size() - streams
  /// records; std::invalid_argument otherwise. One "trace.collect" span
  /// (args "streams" and "defect": 0 healthy, k for the caller's k-th
  /// defect) and one add to each of sim.collects, sim.events_committed and
  /// sim.lane_transitions per non-empty replay.
  void replay(std::span<const Stimulus> draws, std::size_t streams,
              predict::Trace& trace, const fault::Fault* defect = nullptr,
              std::uint64_t defectIndex = 0);

  [[nodiscard]] double periodNs() const noexcept { return periodNs_; }
  [[nodiscard]] timing::TimePs periodPs() const noexcept { return periodPs_; }

  /// The compile the lane engine runs on, for other engines over the same
  /// design (the defect scan's fault universe and PPSFP engine).
  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept {
    return compiled_;
  }

  /// Cycles replayed (and discarded) ahead of each chunk so the chunk's
  /// first recorded cycle sees the exact mid-stream simulator state: the
  /// smallest W with (W + 2) * period > critical path. 0 for every paper
  /// design point (critical path < 2 periods at 5-15% CPR).
  [[nodiscard]] int warmUpCycles() const noexcept { return warmUp_; }

  /// Lanes a collect() of `cycles` would use (chunks must cover their
  /// warm-up).
  [[nodiscard]] std::size_t lanesFor(std::uint64_t cycles) const noexcept {
    return chunksPerStream(cycles, 1);
  }

 private:
  [[nodiscard]] std::size_t chunksPerStream(std::uint64_t records,
                                            std::size_t streams) const noexcept;

  const circuits::SynthesizedDesign& design_;
  core::IsaAdder behavioral_;
  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::unique_ptr<timing::AnyLaneSampler> sampler_;
  double periodNs_;
  timing::TimePs periodPs_;
  int warmUp_ = 0;
  std::size_t maxLanes_;
};

/// Convenience wrapper: one lane-parallel collection over a fresh
/// TraceCollector. All figure/table pipelines route through this.
[[nodiscard]] predict::Trace collectTrace(
    const circuits::SynthesizedDesign& design, double periodNs,
    Workload& workload, std::uint64_t cycles);

/// The retained sequential reference collector (the seed path): one
/// scalar wheel-engine cycle per stimulus. Differential tests and
/// micro_lane_sim compare the lane collector against this record for
/// record.
[[nodiscard]] predict::Trace collectTraceScalar(
    const circuits::SynthesizedDesign& design, double periodNs,
    Workload& workload, std::uint64_t cycles);

}  // namespace oisa::experiments
