// Host-speed probe: a fixed kernel timed between rounds of jobs.
//
// The benchmark's host is a shared 4-vCPU guest. The same simulator job's
// wall moves by up to 1.4x between periods of tens of seconds to minutes,
// with no steal time and no page faults to show for it. Over such periods
// a fixed kernel that exercises what the simulator leans on (a binary
// heap, hash tables, small allocations) slows down with it: its time and
// the jobs' walls correlated at 0.9 or more on the farm and service jobs.
// Dividing each job's wall by the probe times around it removes most of
// that drift (see README.md, "Host noise").
//
// The probe is the benchmark's own code and calls nothing in src/, so a
// change to the simulator moves the jobs and not the probe.
#pragma once

namespace perfbench {

/// Wall seconds the probe takes on the reference host (kept fixed; the
/// scaled metrics read as seconds on a host where the probe takes this
/// long).
inline constexpr double kProbeRefS = 0.03;

/// Runs the probe once and returns its wall seconds (about 30 ms on the
/// reference host). Its buffers are allocated on the first call and kept.
double host_probe_s();

}  // namespace perfbench
