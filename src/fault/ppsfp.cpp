#include "fault/ppsfp.h"

namespace oisa::fault {

// The 64-lane reference plus the portable wide fallbacks; intrinsic widths
// are instantiated only in fault/lane_engines_avx{2,512}.cpp.
template class PpsfpEngineT<netlist::LaneBlock<64>>;
template class PpsfpEngineT<netlist::LaneBlock<256>>;
template class PpsfpEngineT<netlist::LaneBlock<512>>;

}  // namespace oisa::fault
