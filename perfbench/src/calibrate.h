// Host-speed calibration.
//
// The benchmark's host is shared: other load on it slows the simulator
// down by up to 1.8x in phases that last from seconds to minutes, mostly
// through the memory system (caches, memory bandwidth). A fixed kernel of
// the same kind of work, timed between the passes, tracks those phases,
// and the end-to-end times are scaled by it to the reference host speed.
// The kernel is part of the benchmark, so no change to the simulator
// moves it.
#pragma once

namespace perfbench {

/// Seconds of one round of the calibration kernel at the reference host
/// speed: the 4-CPU Xeon host described in README.md, in its faster
/// phases.
inline constexpr double kReferenceRoundSeconds = 0.03;

/// Seconds of one round of the calibration kernel now. A round is a
/// small discrete-event loop, like the simulator's own: 1024 cores with
/// 4 KiB of state each, a time-ordered event queue, and every event
/// touching a few words of its core's state and scheduling the next.
[[nodiscard]] double calibration_round_seconds();

}  // namespace perfbench
