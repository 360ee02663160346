// Host reference kernel. The benchmark's host-time metrics are divided by
// how fast this host runs a fixed kernel at the same moment, so that
// machine-wide slowdowns (other tenants competing for caches and memory
// bandwidth) cancel out of them. The kernel lives with the benchmark and
// calls nothing in src/, so a change to the simulator never moves it.
#pragma once

namespace perfbench {

// Runs the kernel once (about 20 ms on a 4-core Xeon) and returns its
// wall time in seconds.
double reference_kernel_s();

}  // namespace perfbench
