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
// Slices. The N vectors split into contiguous slices of
// ceil(N / 16) vectors, clamped to at least a per-kernel floor (4 scalar
// vectors; 64 word vectors, one per lane) and at most 16 counted settles
// at the kernel's lane width (16 scalar vectors, 64 x 16 = 1024 word
// vectors). So N >= 16 * floor gives at least 16 slices, enough for the
// guided exec cursor to balance a few workers, and the geometry depends
// on N only, never on the thread width: the work done, and every
// Stability::exact lv::obs counter, is width-invariant. Every slice runs
// as an lv::exec task on a worker-local copy of `sim` (flop state,
// SimConfig, options and clock enables travel with the copy) whose stats
// start cleared; `sim` is only read while slices run. The copy that ran
// the last slice then becomes `sim`, so `sim` ends in the state a serial
// replay ends in, and the stats `sim` held before the call plus every
// other slice's are added into it. At most one copy per exec worker is
// alive. Nested calls (from inside an exec task, e.g. a server worker)
// run the slices serially on the calling thread. A single slice runs on
// `sim` directly.
//
// Seating. Every slice starts from the state of `sim`, not from where a
// serial replay would be, so a slice beginning at vector i > 0 first
// drives vector i - 1 and seats the copy on it (Simulator::seat): the
// inputs take their values, every combinational instance is evaluated
// once in levelized order, and the result becomes the settled state,
// counting nothing. Why that is the state a serial replay has after
// vector i - 1: settle() never clocks, so the flops hold their state
// through the whole replay, and the quiescent value of an acyclic
// combinational net is a function of the primary inputs and the flop
// outputs alone, which the seat computes directly. (Nets the serial loop
// never evaluated start X and stay X under both, since every cell maps
// all-X inputs to X; Stimulus.SeatMatchesSettle pins seat == settle on
// every gen kind, from fresh and settled states, with held flops.) Every
// counted settle therefore presents exactly the (previous, next) vector
// pair of the serial loop. A seat costs one evaluation per instance and
// O(nets) copying, with no events, so lv::obs counts no settle call,
// event, transition, settled change or cycle for it.
void run_two_operand_workload(Simulator& sim, const circuit::Bus& a,
                              const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors);

// Word-kernel replay of the same workload. Within a slice of m vectors,
// lane L carries the contiguous subsequence [L*k, min((L+1)*k, m)) of
// the slice (k = ceil(m/64)), so one pass of k settles covers the slice.
// Lanes whose subsequence has run out re-drive their last value and are
// dropped from the active-lane mask, so the aggregate ActivityStats
// count exactly N lane-cycles. Every slice's seat puts each lane on the
// predecessor of its first vector — vector i - 1, or for i = 0 the
// present value of lane 0 (X on a fresh simulator, the pre-settled
// inputs if the caller primed and cleared stats). The argument above
// then applies lane by lane. Per-lane counters (Options::per_lane_stats)
// cover the last slice only, and the lanes end on their own last
// vectors (not on vector N - 1).
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
