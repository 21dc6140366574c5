// P1 — engine throughput: event-driven logic simulation, the LVR32
// instruction-set simulator, and the stuck-at fault campaign's thread
// scaling (google-benchmark; informational).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "circuit/generators.hpp"
#include "exec/thread_pool.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "workloads/idea.hpp"

namespace {

void BM_AdderSimulation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_ripple_carry_adder(nl, width);
  lv::sim::Simulator sim{nl};
  const auto a = lv::sim::random_vectors(256, width, 1);
  const auto b = lv::sim::random_vectors(256, width, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.set_bus(ports.a, a[i & 255]);
    sim.set_bus(ports.b, b[i & 255]);
    sim.settle();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_AdderSimulation)->Arg(8)->Arg(16)->Arg(32);

void BM_MultiplierSimulation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_array_multiplier(nl, width);
  lv::sim::Simulator sim{nl};
  const auto a = lv::sim::random_vectors(256, width, 3);
  const auto b = lv::sim::random_vectors(256, width, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.set_bus(ports.a, a[i & 255]);
    sim.set_bus(ports.b, b[i & 255]);
    sim.settle();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_MultiplierSimulation)->Arg(4)->Arg(8);

// Same adder stimulus through the bit-parallel kernel: each settle
// presents 64 vectors at once, so items processed advance 64 per
// iteration and the per-item rate is directly comparable to
// BM_AdderSimulation.
void BM_AdderSimulationWord(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_ripple_carry_adder(nl, width);
  lv::sim::BitParallelSimulator sim{nl};
  const auto a = lv::sim::random_vectors(256, width, 1);
  const auto b = lv::sim::random_vectors(256, width, 2);
  std::size_t i = 0;
  std::vector<std::uint64_t> a_lanes(lv::sim::kLaneCount);
  std::vector<std::uint64_t> b_lanes(lv::sim::kLaneCount);
  for (auto _ : state) {
    for (std::size_t lane = 0; lane < lv::sim::kLaneCount; ++lane) {
      a_lanes[lane] = a[(i + lane) & 255];
      b_lanes[lane] = b[(i + lane) & 255];
    }
    sim.set_bus(ports.a, a_lanes);
    sim.set_bus(ports.b, b_lanes);
    sim.settle();
    i += lv::sim::kLaneCount;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * lv::sim::kLaneCount));
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_AdderSimulationWord)->Arg(8)->Arg(16)->Arg(32);

// Activity-extraction workload (1024 random vectors over a 16-bit RCA)
// through each kernel at a fixed exec width. The runner spreads its
// slices over exec workers, so the unsuffixed scalar/word pair — the
// measured kernel speedup CI gates on (tools/bench_diff.py
// --require-speedup) — runs at width 1 to compare kernels, not thread
// counts. The /threads:4 rows show the runner's scaling: 64 scalar
// slices of 16 vectors, 16 word slices of 64.
template <class Sim>
void adder_workload(benchmark::State& state, std::size_t threads) {
  lv::exec::set_thread_count(threads);
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_ripple_carry_adder(nl, 16);
  const auto a = lv::sim::random_vectors(1024, 16, 21);
  const auto b = lv::sim::random_vectors(1024, 16, 22);
  Sim sim{nl};
  for (auto _ : state) {
    lv::sim::run_two_operand_workload(sim, ports.a, ports.b, a, b);
    benchmark::DoNotOptimize(sim.stats().cycles());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(a.size()));
  lv::exec::set_thread_count(0);
}

void BM_AdderWorkloadScalar(benchmark::State& state) {
  adder_workload<lv::sim::Simulator>(state, 1);
}
BENCHMARK(BM_AdderWorkloadScalar);

void BM_AdderWorkloadWord(benchmark::State& state) {
  adder_workload<lv::sim::BitParallelSimulator>(state, 1);
}
BENCHMARK(BM_AdderWorkloadWord);

void BM_AdderWorkloadScalarThreads(benchmark::State& state) {
  adder_workload<lv::sim::Simulator>(
      state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_AdderWorkloadScalarThreads)->ArgName("threads")->Arg(4)
    ->UseRealTime();

void BM_AdderWorkloadWordThreads(benchmark::State& state) {
  adder_workload<lv::sim::BitParallelSimulator>(
      state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_AdderWorkloadWordThreads)->ArgName("threads")->Arg(4)
    ->UseRealTime();

// Glitch-heavy word-kernel replay at widths 1 and 4: `vectors` random
// vectors over a `bits`-bit array multiplier.
void multiplier_workload(benchmark::State& state, int bits,
                         std::size_t vectors) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_array_multiplier(nl, bits);
  const auto a = lv::sim::random_vectors(vectors, bits, 23);
  const auto b = lv::sim::random_vectors(vectors, bits, 24);
  lv::sim::BitParallelSimulator sim{nl};
  for (auto _ : state) {
    lv::sim::run_two_operand_workload(sim, ports.a, ports.b, a, b);
    benchmark::DoNotOptimize(sim.stats().cycles());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(a.size()));
  lv::exec::set_thread_count(0);
}

// The `simulate mul8 --kernel word --vectors 2000` job: 16 word slices
// of 125 vectors.
void BM_MultiplierWorkloadWord(benchmark::State& state) {
  multiplier_workload(state, 8, 2000);
}
BENCHMARK(BM_MultiplierWorkloadWord)->ArgName("threads")->Arg(1)->Arg(4)
    ->UseRealTime();

// A small glitch-heavy job (glitch_sim's mul12 size): 48 vectors fill
// less than one 64-lane word, so the replay is one slice at any width.
void BM_MultiplierWorkloadWordSmall(benchmark::State& state) {
  multiplier_workload(state, 12, 48);
}
BENCHMARK(BM_MultiplierWorkloadWordSmall)->ArgName("threads")->Arg(1)
    ->Arg(4)->UseRealTime();

void BM_MachineIdeaBlock(benchmark::State& state) {
  const auto workload = lv::workloads::idea_workload(1);
  const auto prog = lv::isa::assemble(workload.source);
  for (auto _ : state) {
    lv::isa::Machine m;
    m.load(prog.words);
    const auto retired = m.run();
    benchmark::DoNotOptimize(retired);
    state.counters["instructions"] = static_cast<double>(retired);
  }
}
BENCHMARK(BM_MachineIdeaBlock);

void BM_Assembler(benchmark::State& state) {
  const auto workload = lv::workloads::idea_workload(16);
  for (auto _ : state) {
    const auto prog = lv::isa::assemble(workload.source);
    benchmark::DoNotOptimize(prog.words.data());
  }
}
BENCHMARK(BM_Assembler);

// Stuck-at fault campaigns at the worker width given by the argument (/1
// = serial code path; results identical at every width and between the
// scalar and word kernels). The scalar/word pairs at one thread are the
// measured fault-campaign speedups CI gates on: RCA12, small and
// early-exit friendly, and mul8, where the scalar reference replays the
// array multiplier's glitches and the word kernel grades settled values.
template <class Build>
void fault_campaign(benchmark::State& state, lv::sim::FaultKernel kernel,
                    Build build) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  lv::circuit::Netlist nl;
  build(nl);
  const auto vecs = lv::sim::random_vectors(
      64, static_cast<int>(nl.primary_inputs().size()), 7);
  for (auto _ : state) {
    const auto r = lv::sim::fault_coverage(nl, vecs, kernel);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.counters["faults"] = static_cast<double>(
      lv::sim::enumerate_faults(nl).size());
  lv::exec::set_thread_count(0);
}

void rca12(lv::circuit::Netlist& nl) {
  lv::circuit::build_ripple_carry_adder(nl, 12);
}
void mul8(lv::circuit::Netlist& nl) {
  lv::circuit::build_array_multiplier(nl, 8);
}

void BM_FaultCampaignScalar(benchmark::State& state) {
  fault_campaign(state, lv::sim::FaultKernel::scalar, rca12);
}
BENCHMARK(BM_FaultCampaignScalar)->ArgName("threads")->Arg(1)->Arg(2)
    ->Arg(4)->Arg(8)->UseRealTime();

void BM_FaultCampaignWord(benchmark::State& state) {
  fault_campaign(state, lv::sim::FaultKernel::word, rca12);
}
BENCHMARK(BM_FaultCampaignWord)->ArgName("threads")->Arg(1)->Arg(2)
    ->Arg(4)->Arg(8)->UseRealTime();

void BM_FaultCampaignMulScalar(benchmark::State& state) {
  fault_campaign(state, lv::sim::FaultKernel::scalar, mul8);
}
BENCHMARK(BM_FaultCampaignMulScalar)->ArgName("threads")->Arg(1)
    ->UseRealTime();

void BM_FaultCampaignMulWord(benchmark::State& state) {
  fault_campaign(state, lv::sim::FaultKernel::word, mul8);
}
BENCHMARK(BM_FaultCampaignMulWord)->ArgName("threads")->Arg(1)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
