#include "netlist/lane_width.h"

#include <cstdlib>
#include <stdexcept>

namespace oisa::netlist {

std::string laneSelectionName(LaneSelection sel) {
  std::string name = std::to_string(sel.width);
  switch (sel.arch) {
    case LaneArch::Portable:
      if (sel.width > 64) name += "-portable";
      break;
    case LaneArch::Avx2: name += "-avx2"; break;
    case LaneArch::Avx512: name += "-avx512"; break;
  }
  return name;
}

bool cpuSupportsLaneArch(LaneArch arch) {
  switch (arch) {
    case LaneArch::Portable: return true;
    case LaneArch::Avx2:
#if defined(OISA_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case LaneArch::Avx512:
#if defined(OISA_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::vector<LaneSelection> availableLaneSelections() {
  std::vector<LaneSelection> out;
  out.push_back({64, LaneArch::Portable});
  out.push_back({256, LaneArch::Portable});
  if (cpuSupportsLaneArch(LaneArch::Avx2)) {
    out.push_back({256, LaneArch::Avx2});
  }
  out.push_back({512, LaneArch::Portable});
  if (cpuSupportsLaneArch(LaneArch::Avx512)) {
    out.push_back({512, LaneArch::Avx512});
  }
  return out;
}

LaneSelection defaultLaneSelection() {
  if (cpuSupportsLaneArch(LaneArch::Avx512)) return {512, LaneArch::Avx512};
  if (cpuSupportsLaneArch(LaneArch::Avx2)) return {256, LaneArch::Avx2};
  return {64, LaneArch::Portable};
}

LaneSelection parseLaneWidthSpec(std::string_view spec) {
  if (spec == "64") return {64, LaneArch::Portable};
  if (spec == "256") {
    return cpuSupportsLaneArch(LaneArch::Avx2)
               ? LaneSelection{256, LaneArch::Avx2}
               : LaneSelection{256, LaneArch::Portable};
  }
  if (spec == "512") {
    return cpuSupportsLaneArch(LaneArch::Avx512)
               ? LaneSelection{512, LaneArch::Avx512}
               : LaneSelection{512, LaneArch::Portable};
  }
  if (spec == "portable" || spec == "portable256") {
    return {256, LaneArch::Portable};
  }
  if (spec == "portable512") return {512, LaneArch::Portable};
  throw std::invalid_argument(
      std::string(kLaneWidthEnvVar) + ": unknown lane width spec \"" +
      std::string(spec) +
      "\" (expected 64, 256, 512, portable, portable256 or portable512)");
}

LaneSelection selectLaneWidth() {
  if (const char* spec = std::getenv(kLaneWidthEnvVar);
      spec != nullptr && spec[0] != '\0') {
    return parseLaneWidthSpec(spec);
  }
  return defaultLaneSelection();
}

}  // namespace oisa::netlist
