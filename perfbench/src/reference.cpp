// The machine-speed reference. A shared VM changes speed by a fifth or
// more, second to second and over minutes, as other tenants of its host
// come and go, which would swamp any change in the simulator's own speed.
// So rounds time a fixed kernel of the benchmark's own — a pointer chase
// through a 4 MB cycle and a sort of a 128 KB array, in buffers allocated
// once so the simulator's heap state cannot touch it — before they start
// and between their operations, and scale their wall times by nominal over
// measured kernel time.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

struct Kernel {
  static constexpr std::uint32_t kSlots = 1u << 20;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> scratch;

  Kernel() : next(kSlots), keys(kSlots / 32), scratch(kSlots / 32) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto draw = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    // Sattolo's algorithm: one cycle through every slot.
    for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(next[i], next[static_cast<std::uint32_t>(draw() % i)]);
    }
    for (auto& k : keys) k = static_cast<std::uint32_t>(draw());
  }

  double run_once() {
    const auto start = Clock::now();
    std::uint32_t at = 0;
    for (int step = 0; step < 200'000; ++step) at = next[at];
    std::copy(keys.begin(), keys.end(), scratch.begin());
    scratch[0] ^= at;
    std::sort(scratch.begin(), scratch.end());
    sink = scratch[scratch.size() / 2];
    return seconds_since(start);
  }

  volatile std::uint32_t sink = 0;
};

}  // namespace

void SpeedProbe::sample() {
  static Kernel kernel;
  spent_s_ += kernel.run_once();
  ++samples_;
}

}  // namespace perfbench
