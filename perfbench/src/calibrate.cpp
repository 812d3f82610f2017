#include "calibrate.h"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kCores = 1024;
constexpr std::size_t kWordsPerCore = 4096 / 8;  // 4 KiB of state each
constexpr int kEvents = 300000;
constexpr int kTouchesPerEvent = 6;

std::uint64_t next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s;
}

/// One round: the same events, in the same order, every time.
std::uint64_t round_of_work() {
  // Allocated once, so rounds after the first take no page faults.
  static std::vector<std::uint64_t> state(kCores * kWordsPerCore, 1);
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, core)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t s = 5, acc = 0;
  for (std::uint32_t c = 0; c < kCores; ++c) queue.push({next(s) >> 44, c});
  for (int e = 0; e < kEvents; ++e) {
    const auto [time, core] = queue.top();
    queue.pop();
    std::uint64_t* words = &state[core * kWordsPerCore];
    for (int k = 0; k < kTouchesPerEvent; ++k) {
      const std::size_t w = (next(s) >> 40) % kWordsPerCore;
      words[w] += time;
      acc ^= words[(w * 7) % kWordsPerCore];
    }
    // The next event lands on this core or, half the time, another one.
    const auto other = static_cast<std::uint32_t>((next(s) >> 33) % kCores);
    queue.push({time + (next(s) >> 54) + 1, (acc & 1) != 0 ? other : core});
  }
  return acc;
}

}  // namespace

double calibration_round_seconds() {
  const auto t0 = Clock::now();
  const std::uint64_t acc = round_of_work();
  asm volatile("" : : "r"(acc) : "memory");
  return seconds_since(t0);
}

}  // namespace perfbench
