#include "core/isa_adder.h"

#include <array>
#include <bit>
#include <stdexcept>

namespace oisa::core {

namespace {
/// Low-n-bit mask, safe for n in [0, 64].
[[nodiscard]] constexpr std::uint64_t maskBits(int n) noexcept {
  if (n <= 0) return 0;
  if (n >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << n) - 1;
}

/// n-bit a + b + carryIn for operands already masked to n bits, n in
/// [1, 64]. At n == 64 the top bit is split off, so the carry-out needs no
/// 65-bit arithmetic (and no shift by 64).
[[nodiscard]] constexpr IsaSum addBits(std::uint64_t a, std::uint64_t b,
                                       bool carryIn, int n) noexcept {
  IsaSum r;
  if (n < 64) {
    const std::uint64_t raw = a + b + (carryIn ? 1u : 0u);
    r.sum = raw & maskBits(n);
    r.carryOut = ((raw >> n) & 1u) != 0;
    return r;
  }
  const std::uint64_t lowMask = maskBits(63);
  const std::uint64_t low = (a & lowMask) + (b & lowMask) +
                            (carryIn ? 1u : 0u);
  const std::uint64_t topSum = (a >> 63) + (b >> 63) + (low >> 63);
  r.sum = (low & lowMask) | ((topSum & 1u) << 63);
  r.carryOut = (topSum >> 1) != 0;
  return r;
}

/// Upper bound of IsaConfig::pathCount() (width <= 64, block >= 1).
constexpr int kMaxPaths = 64;
}  // namespace

IsaAdder::IsaAdder(const IsaConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  mask_ = maskBits(cfg_.width);
  blockMask_ = cfg_.exact ? mask_ : maskBits(cfg_.block);
}

IsaSum IsaAdder::exactAdd(std::uint64_t a, std::uint64_t b,
                          bool carryIn) const {
  return addBits(a & mask_, b & mask_, carryIn, cfg_.width);
}

IsaSum IsaAdder::add(std::uint64_t a, std::uint64_t b, bool carryIn) const {
  if (cfg_.exact) return exactAdd(a, b, carryIn);
  return addPaths<false>(a & mask_, b & mask_, carryIn, nullptr);
}

IsaSum IsaAdder::addTraced(std::uint64_t a, std::uint64_t b, bool carryIn,
                           std::vector<PathTrace>& traces) const {
  if (cfg_.exact) {
    traces.assign(1, PathTrace{});
    return exactAdd(a, b, carryIn);
  }
  traces.assign(static_cast<std::size_t>(cfg_.pathCount()), PathTrace{});
  return addPaths<true>(a & mask_, b & mask_, carryIn, traces.data());
}

template <bool kTraced>
IsaSum IsaAdder::addPaths(std::uint64_t a, std::uint64_t b, bool carryIn,
                          PathTrace* traces) const {
  const int k = cfg_.block;
  const int paths = cfg_.pathCount();
  const int s = cfg_.spec;
  const int c = cfg_.correction;
  const int r = cfg_.reduction;
  const std::uint64_t topRMask = blockMask_ & ~maskBits(k - r);

  // Every entry below `paths` is written by stage 1 before it is read.
  std::array<std::uint64_t, kMaxPaths> sums;
  std::array<bool, kMaxPaths> couts;
  std::array<bool, kMaxPaths> specs;

  // Stage 1: concurrent speculative paths (SPEC + ADD).
  for (int i = 0; i < paths; ++i) {
    const int base = i * k;
    const std::uint64_t ai = (a >> base) & blockMask_;
    const std::uint64_t bi = (b >> base) & blockMask_;
    bool spec = false;
    if (i == 0) {
      spec = carryIn;  // the first path uses the exact adder carry-in
    } else if (s > 0) {
      // Carry look-ahead over the S bits preceding this path, with the
      // window carry-in speculated at 0 (or 1 for the dual polarity): the
      // speculated carry is the carry-out of the S-bit window addition.
      const std::uint64_t aw = (a >> (base - s)) & maskBits(s);
      const std::uint64_t bw = (b >> (base - s)) & maskBits(s);
      const std::uint64_t win = aw + bw + (cfg_.speculateHigh ? 1u : 0u);
      spec = ((win >> s) & 1u) != 0;
    } else {
      spec = cfg_.speculateHigh;  // S == 0: constant speculation
    }
    const IsaSum raw = addBits(ai, bi, spec, k);
    sums[static_cast<std::size_t>(i)] = raw.sum;
    couts[static_cast<std::size_t>(i)] = raw.carryOut;
    specs[static_cast<std::size_t>(i)] = spec;
    if constexpr (kTraced) {
      traces[i].specCarry = spec;
      traces[i].rawSum = raw.sum;
    }
  }

  // Stage 2: COMP blocks. Each path compares its speculated carry against
  // the carry-out of the preceding sub-adder, then corrects its own LSBs or
  // balances the preceding sum's MSBs.
  for (int i = 1; i < paths; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const bool cPrev = couts[idx - 1];
    const int err = static_cast<int>(cPrev) - static_cast<int>(specs[idx]);
    if constexpr (kTraced) {
      traces[i].trueCarryIn = cPrev;
      traces[i].faultDirection = err;
    }
    if (err == 0) continue;
    const std::uint64_t lowC = sums[idx] & maskBits(c);
    // Weights and contribution wrap in unsigned space: a fault weighted
    // 2^63 (width 64, block 1) has no positive int64 form.
    const std::uint64_t blockWeight = std::uint64_t{1}
                                      << (static_cast<unsigned>(i) *
                                          static_cast<unsigned>(k));
    const std::uint64_t prevWeight = std::uint64_t{1}
                                     << (static_cast<unsigned>(i - 1) *
                                         static_cast<unsigned>(k));
    std::uint64_t contribution = 0;
    bool corrected = false;
    bool balanced = false;
    if (err > 0) {
      // Missed carry: the local sum is short of +1.
      if (c > 0 && lowC != maskBits(c)) {
        sums[idx] += 1;  // stays within the C-bit group by the guard above
        corrected = true;
      } else if (r > 0) {
        // Preceding sum is 2^k too low (its carry was dropped): saturating
        // its top R bits towards 1 shrinks the deficit below 2^(k-r).
        const std::uint64_t delta = (sums[idx - 1] | topRMask) - sums[idx - 1];
        contribution = delta * prevWeight - blockWeight;
        sums[idx - 1] |= topRMask;
        balanced = true;
      } else {
        contribution = std::uint64_t{0} - blockWeight;
      }
    } else {
      // Spurious carry: the local sum is +1 too high.
      if (c > 0 && lowC != 0) {
        sums[idx] -= 1;
        corrected = true;
      } else if (r > 0) {
        const std::uint64_t delta =
            sums[idx - 1] - (sums[idx - 1] & ~topRMask);
        contribution = blockWeight - delta * prevWeight;
        sums[idx - 1] &= ~topRMask;
        balanced = true;
      } else {
        contribution = blockWeight;
      }
    }
    if constexpr (kTraced) {
      traces[i].corrected = corrected;
      traces[i].balanced = balanced;
      traces[i].errorContribution = static_cast<std::int64_t>(contribution);
    }
  }

  IsaSum result;
  for (int i = 0; i < paths; ++i) {
    result.sum |= sums[static_cast<std::size_t>(i)]
                  << (static_cast<unsigned>(i) * static_cast<unsigned>(k));
  }
  result.sum &= mask_;
  result.carryOut = couts[static_cast<std::size_t>(paths - 1)];
  return result;
}

std::vector<int> equivalentBitPositions(std::span<const PathTrace> traces) {
  std::vector<int> positions;
  for (const PathTrace& t : traces) {
    if (t.errorContribution == 0) continue;
    const auto magnitude = static_cast<std::uint64_t>(
        t.errorContribution < 0 ? -t.errorContribution : t.errorContribution);
    positions.push_back(63 - std::countl_zero(magnitude));
  }
  return positions;
}

std::int64_t IsaAdder::structuralError(std::uint64_t a, std::uint64_t b,
                                       bool carryIn) const {
  const IsaSum gold = add(a, b, carryIn);
  const IsaSum diamond = exactAdd(a, b, carryIn);
  // Subtract in unsigned space (wraps, then two's-complement cast): composed
  // values may use bit 63 at widths 63-64, where int64 casts would overflow.
  return static_cast<std::int64_t>(gold.value(cfg_.width) -
                                   diamond.value(cfg_.width));
}

}  // namespace oisa::core
