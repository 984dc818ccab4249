// campaign_bench: the traced per-layer pass.
//
// One 1-thread pass over the campaign grid that recomposes every cell from
// the public calls of each layer — the same calls, in the same order, the
// `experiments` entry point makes — and times each call from outside,
// inside a span recorded by the benchmark itself (category "bench"). The
// recomposed rows must equal the entry point's rows; that equality is what
// makes the per-layer times the product's times.
//
// Where a layer runs only inside a call the benchmark cannot split, it is
// probed outside the cell span:
//  - core.gold: IsaAdder::addTraced over the cell's records (the gold the
//    collector computes internally), checked against the recorded gold;
//  - defect: compile, fault universe and PPSFP coverage are probed one
//    design at a time, then the cell is the one-design runFaultErrorScan
//    call; fault.timed is that call minus the probes (its timed phase is
//    internal to the scan).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaigns.h"

namespace campaign_bench {

/// Span category of every span the benchmark records.
inline constexpr const char* kSpanCategory = "bench";

struct TracedPass {
  /// Canonical rows, recomposed; empty for a cell that threw or whose
  /// probe disagreed with it.
  std::vector<std::string> cells;
  /// Host seconds per layer ("netlist.compile", "timing.collect", ...).
  /// The timed calls never nest, so each is the layer's self time.
  std::map<std::string, double> layerSeconds;
  std::vector<double> cellSeconds;  ///< one per cell, grid order
  double cellTotalSeconds = 0.0;    ///< the traced total
  std::uint64_t events = 0;         ///< sim.events_committed delta
  std::uint64_t evalRows = 0;       ///< predict.eval_rows delta
  std::uint64_t gateEvals = 0;      ///< fault.gate_evaluations, PPSFP probe
  std::uint64_t activationSkips = 0;
  std::uint64_t faultsSimulated = 0;
  /// Share of cell time under the program's own spans (every span not in
  /// category "bench" or "grid").
  double internalSpanCoverage = 0.0;
  std::string traceJson;  ///< Chrome trace-event JSON (Perfetto)
};

/// Runs the pass with span tracing on (started and stopped here).
[[nodiscard]] TracedPass runTracedPass(const Campaign& campaign);

}  // namespace campaign_bench
