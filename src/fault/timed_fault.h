// oisa_fault: timing-aware stuck-at injection.
//
// Bridges the static fault model to the lane timed engine: a stem fault
// becomes a net clamp on the lane wheel (forceNet), one injectStuckAt for
// the concrete simulator of any width and for the dispatched one, so the
// same defect can be studied under overclocked sampling — the paper's timing-error mechanism on a *defective* ISA
// rather than a healthy one. Branch faults are pin-level and have no net
// to clamp; the universe's collapsed representatives of fanout-free
// regions are stems, so campaigns restrict the timed phase to stem
// classes (selectTimedFaults).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "fault/fault_model.h"
#include "timing/lane_dispatch.h"
#include "timing/lane_sim.h"

namespace oisa::fault {

/// Clamps `sim` to the stuck value of stem fault `f`. `Sim` is a concrete
/// timing::LaneTimedSimulatorT<Block> or the dispatched
/// timing::AnyLaneSimulator; both take the clamp through forceNet.
/// `laneMask` restricts the defect to a subset of lanes (healthy lanes
/// keep simulating the good machine — differential runs in one sweep);
/// on a wide simulator the 64-bit mask is broadcast across every 64-lane
/// sub-block (a defect in "lane L" exists in lane L of each sub-block).
/// Throws std::invalid_argument for branch faults.
template <class Sim>
void injectStuckAt(Sim& sim, const Fault& f,
                   std::uint64_t laneMask = ~std::uint64_t{0}) {
  if (!f.isStem()) {
    throw std::invalid_argument(
        "injectStuckAt: branch faults are pin-level and cannot be "
        "expressed as a net clamp; use a stem fault");
  }
  sim.forceNet(netlist::NetId{f.net}, laneMask, stuckWord(f.stuck));
}

/// Deterministically picks up to `count` stem faults from `candidates`
/// (e.g. detected collapsed classes), spread evenly across the list so a
/// small sample still covers low- and high-significance sites.
[[nodiscard]] std::vector<Fault> selectTimedFaults(
    std::span<const Fault> candidates, std::size_t count);

}  // namespace oisa::fault
