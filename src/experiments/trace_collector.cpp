#include "experiments/trace_collector.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "circuits/isa_netlist.h"
#include "fault/timed_fault.h"
#include "netlist/bitops.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

namespace oisa::experiments {

TraceCollector::TraceCollector(const circuits::SynthesizedDesign& design,
                               double periodNs, std::size_t maxLanes)
    : design_(design),
      behavioral_(design.config),
      compiled_(netlist::CompiledNetlist::compile(design.netlist)),
      sampler_(timing::makeLaneSampler(compiled_, design.delays, periodNs)),
      periodNs_(periodNs),
      periodPs_(sampler_->periodPs()),
      maxLanes_(std::min<std::size_t>(
          std::max<std::size_t>(maxLanes == 0 ? sampler_->lanes() : maxLanes,
                                1),
          sampler_->lanes())) {
  // The input packer and the output gather assume the adder port
  // convention (a0..aN-1, b0..bN-1, cin; s0..sN-1, cout); reject anything
  // else (e.g. a multiplier ISA) rather than reading past the port words.
  const int width = design.config.width;
  if (width < 1 || width > 64 ||
      compiled_->inputNets().size() != static_cast<std::size_t>(2 * width + 1) ||
      compiled_->outputNets().size() != static_cast<std::size_t>(width + 1)) {
    throw std::invalid_argument(
        "TraceCollector: design '" + design.config.name() +
        "' does not follow the adder port convention (expected " +
        std::to_string(2 * width + 1) + " primary inputs and " +
        std::to_string(width + 1) + " outputs, got " +
        std::to_string(compiled_->inputNets().size()) + " and " +
        std::to_string(compiled_->outputNets().size()) + ")");
  }
  // Warm-up bound: a latched output depends on primary-input values within
  // one maximum output path delay D before its edge. With settle + W
  // replayed cycles ahead of a chunk, all input samples a recorded cycle
  // can reach are reproduced exactly iff (W + 2) * period > D. The STA
  // critical delay bounds D (per-gate quantization floors); +1 ps absorbs
  // double-summation noise in the ns-domain STA.
  const timing::TimePs d =
      timing::quantizeSpanPs(
          timing::criticalDelayNs(design.netlist, design.delays)) +
      1;
  while ((static_cast<timing::TimePs>(warmUp_) + 2) * periodPs_ <= d) {
    ++warmUp_;
  }
}

std::size_t TraceCollector::chunksPerStream(
    std::uint64_t records, std::size_t streams) const noexcept {
  // A chunk shorter than warm-up + 1 cycles replays more than it records;
  // short streams collapse to fewer chunks.
  const std::uint64_t longest = (records + streams - 1) / streams;
  const std::uint64_t chunks =
      longest / (static_cast<std::uint64_t>(warmUp_) + 1);
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(chunks, 1, maxLanes_ / streams));
}

predict::Trace TraceCollector::collect(Workload& workload,
                                       std::uint64_t cycles) {
  // One stream: draws[0] is the settled reset vector and draws[t + 1]
  // drives recorded cycle t — the exact draw sequence of the sequential
  // collector, so workload state evolves identically.
  std::vector<Stimulus> draws(cycles + 1);
  for (auto& s : draws) s = workload.next();
  predict::Trace trace = goldRecords(draws, 1);
  replay(draws, 1, trace);
  return trace;
}

predict::Trace TraceCollector::goldRecords(std::span<const Stimulus> draws,
                                           std::size_t streams) const {
  if (streams == 0 || streams > draws.size()) {
    throw std::invalid_argument(
        "TraceCollector::goldRecords: need 1..draws streams");
  }
  predict::Trace trace(draws.size() - streams);
  const obs::ObsSpan span("trace.gold", "core", "records", trace.size());
  for (std::size_t m = 0; m < trace.size(); ++m) {
    const Stimulus& stim = draws[streams + m];
    predict::TraceRecord& rec = trace[m];
    rec.a = stim.a;
    rec.b = stim.b;
    rec.carryIn = stim.carryIn;
    const core::IsaSum diamond =
        behavioral_.exactAdd(stim.a, stim.b, stim.carryIn);
    rec.diamond = diamond.sum;
    rec.diamondCout = diamond.carryOut;
    const core::IsaSum gold = behavioral_.add(stim.a, stim.b, stim.carryIn);
    rec.gold = gold.sum;
    rec.goldCout = gold.carryOut;
  }
  return trace;
}

void TraceCollector::replay(std::span<const Stimulus> draws,
                            std::size_t streams, predict::Trace& trace,
                            const fault::Fault* defect,
                            std::uint64_t defectIndex) {
  if (streams == 0 || maxLanes_ % streams != 0) {
    throw std::invalid_argument(
        "TraceCollector::replay: " + std::to_string(streams) +
        " streams do not divide " + std::to_string(maxLanes_) + " lanes");
  }
  if (draws.size() != trace.size() + streams) {
    throw std::invalid_argument(
        "TraceCollector::replay: draws must be the records plus one settle "
        "vector per stream");
  }
  const std::size_t n = trace.size();
  if (n == 0) return;

  // Engine counters are drained here, at the replay boundary — one span
  // and three counter adds per replay, never inside the per-cycle or
  // per-word loops (the instrumentation-cost contract micro_obs gates).
  const obs::ObsSpan span("trace.collect", "sim", "streams", streams,
                          "defect", defectIndex);
  static obs::Counter& eventsCommitted = obs::counter("sim.events_committed");
  static obs::Counter& laneTransitions = obs::counter("sim.lane_transitions");
  static obs::Counter& collects = obs::counter("sim.collects");

  const int width = design_.config.width;
  const std::size_t kWords = sampler_->wordsPerNet();
  const auto wu = static_cast<std::size_t>(warmUp_);
  const std::size_t chunks = chunksPerStream(n, streams);
  const std::size_t lanes = streams * chunks;

  // Stream l holds records l, S + l, 2S + l, ...; its chunks are
  // contiguous, sizes differing by at most one, and chunk j runs on lane
  // S*j + l. Lane L replays its stream's stimuli from settle(L) through
  // start(L) + len(L): a settle on the vector ahead of its warm-up window,
  // warm(L) discarded cycles, then its recorded range. Lanes with shorter
  // schedules idle (inputs frozen, settled, zero events) at the *start*,
  // so every lane finishes on the final sweep and the per-sweep
  // bookkeeping stays uniform. Each record's value depends only on its
  // own chunk's replay, so the chunk count never shows up in the trace —
  // only in the wall time.
  std::vector<std::size_t> idle(lanes);
  std::vector<std::size_t> warm(lanes);   // per-lane warm-up (clamped)
  std::vector<std::size_t> draw(lanes);   // draw index now on the lane
  std::vector<std::size_t> len(lanes);
  std::size_t steps = 0;                  // sweeps needed (max over lanes)
  for (std::size_t l = 0; l < streams; ++l) {
    const std::size_t streamLen = (n + streams - 1 - l) / streams;
    for (std::size_t j = 0, start = 0; j < chunks; ++j) {
      const std::size_t L = streams * j + l;
      len[L] = streamLen / chunks + (j < streamLen % chunks ? 1 : 0);
      warm[L] = std::min(wu, start);
      draw[L] = (start - warm[L]) * streams + l;  // the chunk's settle
      start += len[L];
      steps = std::max(steps, warm[L] + len[L]);
    }
  }
  for (std::size_t L = 0; L < lanes; ++L) {
    idle[L] = steps - warm[L] - len[L];
  }

  timing::AnyLaneSimulator& sim = sampler_->simulator();
  sim.clearNetForces();
  sim.reset();
  if (defect != nullptr) fault::injectStuckAt(sim, *defect);

  std::vector<Stimulus> cur(lanes);
  std::vector<std::uint64_t> inWords(
      static_cast<std::size_t>(2 * width + 1) * kWords);
  std::vector<std::uint64_t> outWords;
  std::array<std::uint64_t, 64> sM{};
  for (std::size_t L = 0; L < lanes; ++L) cur[L] = draws[draw[L]];
  packStimulusWords(cur, width, kWords, inWords);
  sampler_->initialize(inWords);

  const std::size_t subBlocks = (lanes + 63) / 64;
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t L = 0; L < lanes; ++L) {
      if (s >= idle[L]) {
        draw[L] += streams;
        cur[L] = draws[draw[L]];
      }
    }
    packStimulusWords(cur, width, kWords, inWords);
    sampler_->stepInto(inWords, outWords);
    // Output words are lane-major (sub-word sb of word o = output o
    // across lanes [64sb, 64sb + 64)); one transpose of the sum words per
    // sub-block yields each lane's sum in its own row, and the carry-out
    // is read from its own word, so width 64 needs no 65th row.
    for (std::size_t sb = 0; sb < subBlocks; ++sb) {
      for (int o = 0; o < width; ++o) {
        sM[static_cast<std::size_t>(o)] =
            outWords[static_cast<std::size_t>(o) * kWords + sb];
      }
      std::fill(sM.begin() + width, sM.end(), 0);
      netlist::transpose64(sM);
      const std::uint64_t coutWord =
          outWords[static_cast<std::size_t>(width) * kWords + sb];
      const std::size_t laneEnd = std::min<std::size_t>(lanes - sb * 64, 64);
      for (std::size_t l = 0; l < laneEnd; ++l) {
        const std::size_t L = sb * 64 + l;
        if (s < idle[L] + warm[L]) continue;  // idling or warming up
        predict::TraceRecord& rec = trace[draw[L] - streams];
        rec.silver = sM[l];
        rec.silverCout = ((coutWord >> l) & 1u) != 0;
      }
    }
  }
  collects.add();
  eventsCommitted.add(sim.eventsProcessed());
  laneTransitions.add(sim.laneTransitionsCommitted());
}

CollectedTrace TraceCollector::collectPacked(
    Workload& workload, std::uint64_t cycles,
    const predict::FeatureExtractor& extractor) {
  if (extractor.width() != design_.config.width) {
    throw std::invalid_argument(
        "TraceCollector::collectPacked: extractor width mismatch");
  }
  CollectedTrace out;
  out.trace = collect(workload, cycles);
  out.packed = extractor.packTrace(out.trace);
  return out;
}

predict::Trace collectTrace(const circuits::SynthesizedDesign& design,
                            double periodNs, Workload& workload,
                            std::uint64_t cycles) {
  TraceCollector collector(design, periodNs);
  return collector.collect(workload, cycles);
}

predict::Trace collectTraceScalar(const circuits::SynthesizedDesign& design,
                                  double periodNs, Workload& workload,
                                  std::uint64_t cycles) {
  const int width = design.config.width;
  const core::IsaAdder behavioral(design.config);
  timing::ClockedSampler sampler(design.netlist, design.delays, periodNs);

  // Reusable input/output buffers: the per-cycle loop performs no heap
  // allocation (trace growth aside), keeping the wheel engine's event
  // processing the only per-cycle cost.
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> outputs;

  const Stimulus reset = workload.next();
  circuits::packOperandsInto(reset.a, reset.b, reset.carryIn, width, inputs);
  sampler.initialize(inputs);

  predict::Trace trace;
  trace.reserve(cycles);
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const Stimulus stim = workload.next();
    circuits::packOperandsInto(stim.a, stim.b, stim.carryIn, width, inputs);
    sampler.stepInto(inputs, outputs);

    predict::TraceRecord rec;
    rec.a = stim.a;
    rec.b = stim.b;
    rec.carryIn = stim.carryIn;
    const core::IsaSum diamond =
        behavioral.exactAdd(stim.a, stim.b, stim.carryIn);
    rec.diamond = diamond.sum;
    rec.diamondCout = diamond.carryOut;
    const core::IsaSum gold = behavioral.add(stim.a, stim.b, stim.carryIn);
    rec.gold = gold.sum;
    rec.goldCout = gold.carryOut;
    rec.silver = circuits::unpackSum(outputs, width);
    rec.silverCout = circuits::unpackCarryOut(outputs, width);
    trace.push_back(rec);
  }
  return trace;
}

}  // namespace oisa::experiments
