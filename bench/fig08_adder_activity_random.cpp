// Fig. 8 — Histogram of transition activity for an 8-bit ripple-carry
// adder with random input patterns (delay-annotated simulation, glitches
// included — the paper uses IRSIM).
//
// Paper shape: a broad histogram; many nodes transition with substantial
// probability under random stimulus.
//
// The extraction runs twice — once through the scalar compiled kernel
// and once through the bit-parallel (64-lane) kernel's lane-chunked
// workload runner — and requires the two ActivityStats to agree exactly
// (the seating argument in sim/stimulus.hpp makes the chunked
// replay bit-identical to the serial one). The wall-clock ratio is the
// measured bit-parallel speedup recorded in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/ascii_plot.hpp"

int main(int argc, char** argv) {
  lv::bench::apply_bench_args(argc, argv);
  namespace c = lv::circuit;
  namespace s = lv::sim;
  using clock = std::chrono::steady_clock;
  lv::bench::banner("Fig. 8", "8-bit RCA activity histogram, random inputs");

  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  constexpr std::size_t kVectors = 10000;
  const auto a = s::random_vectors(kVectors, 8, 0xf18a);
  const auto b = s::random_vectors(kVectors, 8, 0xf18b);

  s::Simulator sim{nl};
  sim.set_bus(ports.a, 0);
  sim.set_bus(ports.b, 0);
  sim.settle();
  sim.clear_stats();
  const auto t0 = clock::now();
  s::run_two_operand_workload(sim, ports.a, ports.b, a, b);
  const auto t1 = clock::now();

  s::BitParallelSimulator word{nl};
  word.set_bus_broadcast(ports.a, 0);
  word.set_bus_broadcast(ports.b, 0);
  word.settle();
  word.clear_stats();
  const auto t2 = clock::now();
  s::run_two_operand_workload(word, ports.a, ports.b, a, b);
  const auto t3 = clock::now();

  const auto hist = s::activity_histogram(sim, 20, 2.0);
  std::printf("%s\n",
              lv::util::render_histogram(
                  hist, "number of nodes vs transition probability "
                        "(toggles/cycle, glitches included)")
                  .c_str());

  const double alpha = s::mean_alpha(sim);
  std::printf("mean node alpha (rising transitions/cycle): %.4f\n", alpha);
  double glitchiest = 0.0;
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    glitchiest = std::max(glitchiest, sim.stats().glitch_fraction(n));
  std::printf("worst per-node glitch fraction: %.3f\n", glitchiest);

  const double scalar_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double word_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();
  const double speedup = word_ms > 0.0 ? scalar_ms / word_ms : 0.0;
  std::printf("scalar kernel: %.2f ms, bit-parallel kernel: %.2f ms "
              "(speedup %.1fx)\n",
              scalar_ms, word_ms, speedup);

  lv::bench::shape_check("substantial mean activity under random stimulus",
                         alpha > 0.15 && alpha < 1.5);
  lv::bench::shape_check("carry-chain glitching visible (some node >5%)",
                         glitchiest > 0.05);
  lv::bench::shape_check("histogram covers all gate-driven nodes",
                         hist.total() == nl.instance_count());
  bool identical = word.stats().cycles() == sim.stats().cycles();
  for (c::NetId n = 0; n < nl.net_count() && identical; ++n)
    identical = word.stats().transitions(n) == sim.stats().transitions(n) &&
                word.stats().settled_changes(n) ==
                    sim.stats().settled_changes(n);
  lv::bench::shape_check("bit-parallel activity bit-identical to scalar",
                         identical);
  lv::bench::shape_check("bit-parallel kernel at least 4x faster",
                         speedup >= 4.0);
  return 0;
}
