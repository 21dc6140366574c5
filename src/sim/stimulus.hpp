// Stimulus generation and activity-extraction harnesses.
//
// Fig. 8 uses uniform random vectors on an 8-bit adder; Fig. 9 fixes one
// operand and increments the other ("one of the inputs fixed at 0 and the
// other input increments from 0 to 255"), demonstrating that node activity
// is a strong function of signal statistics. Both stimuli live here, plus
// gray-code and bounded-random-walk sources used by tests and examples.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bp_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/statistics.hpp"

namespace lv::sim {

// `count` uniform values over [0, 2^bits).
std::vector<std::uint64_t> random_vectors(std::size_t count, int bits,
                                          std::uint64_t seed);

// start, start+1, ... (mod 2^bits).
std::vector<std::uint64_t> counting_vectors(std::size_t count, int bits,
                                            std::uint64_t start = 0);

// Gray-code sequence (exactly one bit flips between consecutive vectors).
std::vector<std::uint64_t> gray_vectors(std::size_t count, int bits,
                                        std::uint64_t start = 0);

// Bounded random walk: v += uniform[-step, step], clamped to [0, 2^bits).
// Models strongly correlated data (e.g. speech samples, Section 2's
// "signal statistics").
std::vector<std::uint64_t> random_walk_vectors(std::size_t count, int bits,
                                               std::uint64_t step,
                                               std::uint64_t seed);

// Activity replay of (a, b) vector pairs on two buses: the aggregate
// ActivityStats equal those of the serial loop
//
//   for (i) { set_bus(a, a[i]); set_bus(b, b[i]); settle(); }
//
// bit for bit (pinned by sim_activity_test.cpp and
// sim_bitparallel_test.cpp). Vectors must have equal length.
//
// Slices. The N vectors split into contiguous slices of 16 counted
// settles at the kernel's lane width: 16 vectors for the scalar kernel,
// 64 x 16 = 1024 for the word kernel. The last slice runs on `sim`, so
// `sim` ends in the state a serial replay ends in; the other slices run
// as lv::exec tasks, each on a worker-local copy of a snapshot of `sim`
// taken before any slice runs (flop state, SimConfig, options and clock
// enables travel with the copy), and their stats are added into
// sim.stats() afterwards. At most one copy per exec worker is alive,
// plus the snapshot. The geometry depends on N only, never on the thread
// width, so the work done — and every Stability::exact lv::obs counter —
// is width-invariant. Nested calls (from inside an exec task, e.g. a
// server worker) run the slices serially on the calling thread.
//
// Priming. Every slice starts from the snapshot state, not from where a
// serial replay would be, so before slice s >= 1 counts anything it runs
// one uncounted settle on vector s*len - 1. settle() never clocks, so
// the flops hold their state, and the settled state of the logic is a
// function of its inputs and that held flop state alone. After the
// priming settle the simulator therefore holds exactly the state a
// serial replay has after vector s*len - 1, and every counted settle
// presents the same (previous, next) vector pair the serial loop would.
// The price is one extra settle per slice; lv::obs counts it under
// sim.settle_calls / sim.events_processed (or their sim.word_* twins),
// never under transitions, settled changes or cycles.
void run_two_operand_workload(Simulator& sim, const circuit::Bus& a,
                              const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors);

// Word-kernel replay of the same workload. Within a slice of m vectors,
// lane L carries the contiguous subsequence [L*k, min((L+1)*k, m)) of
// the slice (k = ceil(m/64)), so one pass of k settles covers the slice.
// Lanes whose subsequence has run out re-drive their last value and are
// dropped from the active-lane mask, so the aggregate ActivityStats
// count exactly N lane-cycles. The slice's priming settle (empty
// active-lane mask) seats every lane on the predecessor of its first
// vector — vector i - 1, or for i = 0 the present value of lane 0 (X on
// a fresh simulator, the pre-settled inputs if the caller primed and
// cleared stats). The argument above then applies lane by lane. Per-lane
// counters (Options::per_lane_stats) cover the last slice only, and the
// lanes end on their own last vectors (not on vector N - 1).
void run_two_operand_workload(BitParallelSimulator& sim,
                              const circuit::Bus& a, const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors);

// Builds the Figs. 8-9 histogram: per-node transition probability
// (toggles per cycle) over all gate-driven nets (primary inputs and the
// clock are stimulus, not circuit nodes).
lv::util::Histogram activity_histogram(const circuit::Netlist& netlist,
                                       const ActivityStats& stats,
                                       std::size_t bins,
                                       double max_probability = 1.0);
inline lv::util::Histogram activity_histogram(const Simulator& sim,
                                              std::size_t bins,
                                              double max_probability = 1.0) {
  return activity_histogram(sim.netlist(), sim.stats(), bins,
                            max_probability);
}
inline lv::util::Histogram activity_histogram(const BitParallelSimulator& sim,
                                              std::size_t bins,
                                              double max_probability = 1.0) {
  return activity_histogram(sim.netlist(), sim.stats(), bins,
                            max_probability);
}

// Mean node transition activity alpha (rising transitions per node per
// cycle) over gate-driven nets — the scalar the paper's energy models use.
double mean_alpha(const circuit::Netlist& netlist, const ActivityStats& stats);
inline double mean_alpha(const Simulator& sim) {
  return mean_alpha(sim.netlist(), sim.stats());
}
inline double mean_alpha(const BitParallelSimulator& sim) {
  return mean_alpha(sim.netlist(), sim.stats());
}

}  // namespace lv::sim
