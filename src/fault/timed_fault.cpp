#include "fault/timed_fault.h"

namespace oisa::fault {

std::vector<Fault> selectTimedFaults(std::span<const Fault> candidates,
                                     std::size_t count) {
  std::vector<Fault> stems;
  for (const Fault& f : candidates) {
    if (f.isStem()) stems.push_back(f);
  }
  if (stems.size() <= count) return stems;
  // Even stride over the stem list: candidates arrive in net order, so a
  // contiguous prefix would sample only the lowest-significance sites.
  std::vector<Fault> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    picked.push_back(stems[i * stems.size() / count]);
  }
  return picked;
}

}  // namespace oisa::fault
