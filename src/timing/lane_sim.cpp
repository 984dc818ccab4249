#include "timing/lane_sim.h"

namespace oisa::timing {

// The 64-lane reference plus the portable wide fallbacks; intrinsic widths
// are instantiated only in fault/lane_engines_avx{2,512}.cpp.
template class LaneTimedSimulatorT<netlist::LaneBlock<64>>;
template class LaneTimedSimulatorT<netlist::LaneBlock<256>>;
template class LaneTimedSimulatorT<netlist::LaneBlock<512>>;
template class LaneClockedSamplerT<netlist::LaneBlock<64>>;
template class LaneClockedSamplerT<netlist::LaneBlock<256>>;
template class LaneClockedSamplerT<netlist::LaneBlock<512>>;

}  // namespace oisa::timing
