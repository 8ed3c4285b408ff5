// The one audited wall-clock probe of the deterministic modules.
//
// Real time must never steer a deterministic path, but `ddcsim --timing`
// and the benches want per-phase wall-clock. Every such measurement goes
// through timed_phase: the clock reads feed only the reporting counter
// it is given, never control flow, so an outcome stays a pure function
// of (options, seed).
#pragma once

#include <chrono>

namespace ddc {

/// Runs `phase` and adds its wall-clock seconds to `seconds`.
template <typename Phase>
void timed_phase(double& seconds, Phase&& phase) {
  using Clock = std::chrono::steady_clock;  // ddcverify: allow(wall-clock)
  const auto start = Clock::now();
  phase();
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace ddc
