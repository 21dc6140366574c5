#include "sim/stimulus.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>

#include "exec/parallel.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace lv::sim {

namespace u = lv::util;

namespace {

std::uint64_t mask_for(int bits) {
  u::require(bits >= 1 && bits <= 64, "stimulus: bits must be in [1, 64]");
  return bits == 64 ? ~std::uint64_t{0}
                    : ((std::uint64_t{1} << bits) - 1);
}

}  // namespace

std::vector<std::uint64_t> random_vectors(std::size_t count, int bits,
                                          std::uint64_t seed) {
  const std::uint64_t mask = mask_for(bits);
  u::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.next_u64() & mask);
  return out;
}

std::vector<std::uint64_t> counting_vectors(std::size_t count, int bits,
                                            std::uint64_t start) {
  const std::uint64_t mask = mask_for(bits);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back((start + i) & mask);
  return out;
}

std::vector<std::uint64_t> gray_vectors(std::size_t count, int bits,
                                        std::uint64_t start) {
  const std::uint64_t mask = mask_for(bits);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t n = (start + i) & mask;
    out.push_back((n ^ (n >> 1)) & mask);
  }
  return out;
}

std::vector<std::uint64_t> random_walk_vectors(std::size_t count, int bits,
                                               std::uint64_t step,
                                               std::uint64_t seed) {
  const std::uint64_t mask = mask_for(bits);
  u::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t v = mask / 2;
  for (std::size_t i = 0; i < count; ++i) {
    const auto delta = static_cast<std::int64_t>(rng.next_below(2 * step + 1)) -
                       static_cast<std::int64_t>(step);
    std::int64_t next = static_cast<std::int64_t>(v) + delta;
    next = std::max<std::int64_t>(0, std::min(next, static_cast<std::int64_t>(mask)));
    v = static_cast<std::uint64_t>(next);
    out.push_back(v);
  }
  return out;
}

namespace {

// Slice geometry (stimulus.hpp): ceil(n / kSlices) vectors per slice,
// clamped to [floor, kSliceSettles * lanes].
constexpr std::size_t kSlices = 16;
constexpr std::size_t kSliceSettles = 16;
// Per-kernel floors (EXPERIMENTS.md "Sixteen-slice replay"): a word
// slice below one vector per lane would leave lanes idle and multiply
// the settles; the scalar floor was picked by measurement.
constexpr std::size_t kScalarFloor = 4;
constexpr std::size_t kWordFloor = kLaneCount;

std::size_t slice_length(std::size_t n, std::size_t floor,
                         std::size_t lanes) {
  return std::clamp((n + kSlices - 1) / kSlices, floor,
                    kSliceSettles * lanes);
}

// Runs run_slice(sim, begin, end) over contiguous slices of `len`
// vectors covering [0, n). Every slice runs in an exec task on a
// worker-local copy of `sim` with cleared stats (`sim` itself is only
// read until all slices are done); the copy that ran the last slice then
// becomes `sim`, so `sim` ends where a serial replay ends, and the
// stats of `sim` before the call and of every other slice are added
// into it. Slice geometry depends on n alone, so the work (and every
// Stability::exact counter) is the same at any thread width.
template <class Sim, class RunSlice>
void run_sliced(Sim& sim, std::size_t n, std::size_t len,
                const RunSlice& run_slice) {
  if (n == 0) return;
  const std::size_t slices = (n + len - 1) / len;
  if (slices == 1) {
    run_slice(sim, 0, n);
    return;
  }
  const std::size_t nets = sim.netlist().net_count();
  struct Worker {
    std::optional<Sim> sim;
    ActivityStats stats;
  };
  std::mutex mu;
  std::deque<Worker> workers;  // one per participating exec worker
  std::optional<Sim> last;
  exec::parallel_map_stateful<char>(
      slices,
      [&] {
        const std::lock_guard<std::mutex> lock{mu};
        return &workers.emplace_back(Worker{std::nullopt, ActivityStats{nets}});
      },
      [&](Worker* w, std::size_t s) {
        const std::size_t begin = s * len;
        if (w->sim)
          *w->sim = sim;
        else
          w->sim.emplace(sim);
        w->sim->clear_stats();
        run_slice(*w->sim, begin, std::min(begin + len, n));
        if (s + 1 == slices) {
          last = std::move(w->sim);
          w->sim.reset();
        } else {
          w->stats.add(w->sim->stats());
        }
        return char{0};
      });
  const ActivityStats before = sim.stats();
  sim = std::move(*last);
  sim.add_stats(before);
  for (const Worker& w : workers) sim.add_stats(w.stats);
}

}  // namespace

void run_two_operand_workload(Simulator& sim, const circuit::Bus& a,
                              const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors) {
  u::require(a_vectors.size() == b_vectors.size(),
             "run_two_operand_workload: vector count mismatch");
  const std::size_t n = a_vectors.size();
  run_sliced(sim, n, slice_length(n, kScalarFloor, 1),
             [&](Simulator& s, std::size_t begin, std::size_t end) {
               // Seat the simulator on the state a serial replay has
               // after vector begin - 1 (stimulus.hpp).
               if (begin > 0) {
                 s.set_bus(a, a_vectors[begin - 1]);
                 s.set_bus(b, b_vectors[begin - 1]);
                 s.seat();
               }
               for (std::size_t i = begin; i < end; ++i) {
                 s.set_bus(a, a_vectors[i]);
                 s.set_bus(b, b_vectors[i]);
                 s.settle();
               }
             });
}

void run_two_operand_workload(BitParallelSimulator& sim,
                              const circuit::Bus& a, const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors) {
  u::require(a_vectors.size() == b_vectors.size(),
             "run_two_operand_workload: vector count mismatch");
  const auto run_slice = [&](BitParallelSimulator& s, std::size_t begin,
                             std::size_t end) {
    // Lane L owns vectors [begin + L*k, min(begin + (L+1)*k, end)).
    const std::size_t m = end - begin;
    const std::size_t k = (m + kLaneCount - 1) / kLaneCount;
    const std::size_t lanes = (m + k - 1) / k;
    std::vector<std::uint64_t> a_lane(lanes), b_lane(lanes);
    // Seat every lane on the predecessor of its first vector — vector
    // i - 1, or for i == 0 the present input value, which is what a
    // serial replay starts from.
    const auto seat_bus = [&](const circuit::Bus& bus,
                              const std::vector<std::uint64_t>& v,
                              std::vector<std::uint64_t>& lane_values) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t first = begin + lane * k;
        lane_values[lane] = first == 0 ? 0 : v[first - 1];
      }
      for (std::size_t j = 0; j < bus.size(); ++j) {
        LogicW w = lane_bits(lane_values.data(), lanes,
                             static_cast<unsigned>(j));
        if (begin == 0) w = with_lane(w, 0, lane_of(s.value(bus[j]), 0));
        s.set_input(bus[j], w);
      }
    };
    seat_bus(a, a_vectors, a_lane);
    seat_bus(b, b_vectors, b_lane);
    s.seat();
    for (std::size_t step = 0; step < k; ++step) {
      std::uint64_t active = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t first = begin + lane * k;
        const std::size_t last = std::min(first + k, end) - 1;
        const std::size_t i = first + step;
        if (i <= last) active |= std::uint64_t{1} << lane;
        // Exhausted lanes re-drive their final vector: no events, and the
        // active mask keeps them out of the statistics.
        const std::size_t idx = std::min(i, last);
        a_lane[lane] = a_vectors[idx];
        b_lane[lane] = b_vectors[idx];
      }
      s.set_active_lanes(active);
      s.set_bus(a, a_lane);
      s.set_bus(b, b_lane);
      s.settle();
    }
    s.set_active_lanes(kAllLanes);
  };
  const std::size_t n = a_vectors.size();
  run_sliced(sim, n, slice_length(n, kWordFloor, kLaneCount), run_slice);
}

lv::util::Histogram activity_histogram(const circuit::Netlist& netlist,
                                       const ActivityStats& stats,
                                       std::size_t bins,
                                       double max_probability) {
  lv::util::Histogram hist{0.0, max_probability, bins};
  for (circuit::NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    if (net.is_primary_input || net.is_clock) continue;
    hist.add(stats.toggle_rate(n));
  }
  return hist;
}

double mean_alpha(const circuit::Netlist& netlist,
                  const ActivityStats& stats) {
  double sum = 0.0;
  std::size_t nodes = 0;
  for (circuit::NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    if (net.is_primary_input || net.is_clock) continue;
    sum += stats.alpha(n);
    ++nodes;
  }
  return nodes == 0 ? 0.0 : sum / static_cast<double>(nodes);
}

}  // namespace lv::sim
