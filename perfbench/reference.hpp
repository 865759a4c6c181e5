// reference.hpp — a fixed reference kernel that measures the host's speed.
//
// On a shared host the speed of one core drifts by a quarter or more from
// one minute to the next.  The end-to-end timings are therefore reported at
// a reference speed: each run times this kernel between its measured
// phases and scales its timings by kReferenceNominalS over the kernel's
// mean time.  The kernel is the benchmark's own code and uses none of the
// simulator's, so a change to the simulator cannot move it.
#pragma once

namespace perfbench {

/// The reference kernel's time, in seconds, at the reference speed (about
/// its time on a shared 4-vCPU Xeon model 143 KVM guest).
inline constexpr double kReferenceNominalS = 0.020;

/// Runs the reference kernel once; returns its wall time in seconds.
double run_reference();

}  // namespace perfbench
