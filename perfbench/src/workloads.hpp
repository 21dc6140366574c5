// The benchmark's three workloads. Each sets up (repeatedly, median
// reported), measures for Options::seconds, checks its outputs and
// returns either the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
#pragma once

#include <numeric>
#include <vector>

#include "common.hpp"

namespace perfbench {

// Whether to set up once more, given the durations (s) so far: at least
// 5 times and until 5 s have been spent, at most 1000 times, so the
// median of a millisecond set-up is as steady as that of a slow one and
// a burst of host or disk latency moves few of the samples.
inline bool set_up_again(const std::vector<double>& setup_s) {
  const double spent = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  return setup_s.size() < 5 || (spent < 5.0 && setup_s.size() < 1000);
}

Result run_paper_flow(const Options& options);
Result run_glitch_sim(const Options& options);
Result run_serve_zipf(const Options& options);

// X-server error of one paper pass over bench/fig10's own inputs: every
// workload reports it, computed outside set-up and the timed region.
double reference_xserver_err_pp();

}  // namespace perfbench
