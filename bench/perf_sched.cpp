// Scheduler head-to-head: the lv::exec default (guided self-scheduling
// on one atomic cursor, exec/parallel.hpp) against a static reference
// loop that hands out fixed ceil(n / (4 * width)) chunks from its own
// cursor. The reference is written here with ThreadPool::run; it is a
// yardstick, not an lv::exec option. Three workloads:
//
//   * tail-heavy Zipf loop — the heaviest items sit at the end of the
//     index space, inside the last static chunk;
//   * skewed fault campaign — the scalar kernel on a netlist whose
//     undetectable (full-replay) faults all land in the last static
//     chunk at 4 threads;
//   * head-heavy Zipf loop — the heaviest item first. Guided hands its
//     widest claim (twice the static chunk) out first, so this is the
//     shape where it loses to static chunking; the row records the
//     trade-off.
//
// CI (bench-smoke) archives this binary's JSON as BENCH_sched.json and
// gates `BM_SkewedCampaignStatic/threads:4 / BM_SkewedCampaignGuided/
// threads:4 >= 1.5` via tools/bench_diff.py --require-speedup. Every
// row asserts that its results equal the serial loop's before timing
// starts — the schedules must agree bit-for-bit, or the numbers are
// meaningless.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/fault.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"

namespace {

// The static reference: out[i] = fn(i), workers claiming fixed chunks
// of ceil(n / (4 * width)) from an atomic cursor. fn must not throw.
template <class T, class Fn>
std::vector<T> static_map(std::size_t n, std::size_t width, Fn&& fn) {
  std::vector<T> out(n);
  if (width > n) width = n;
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  const std::size_t chunk = (n + 4 * width - 1) / (4 * width);
  std::atomic<std::size_t> cursor{0};
  lv::exec::ThreadPool::pool().run(width, [&](std::size_t) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    }
  });
  return out;
}

enum class Sched { guided, static_chunks };

// ---- Zipf-skewed loops ----------------------------------------------------

// Deterministic spin work: splitmix64 rounds, opaque to the optimizer.
std::uint64_t spin(std::uint64_t rounds) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    benchmark::DoNotOptimize(z);
  }
  return x;
}

constexpr std::size_t kZipfItems = 512;

// cost ~ 1/rank^1.1. Tail-heavy: rank = n - i, so the heaviest items
// sit at the end of the index space, inside the last static chunk; the
// 32 tail items carry ~63% of the total work, the single heaviest ~21%.
// Head-heavy: rank = i + 1, the mirror image.
std::uint64_t zipf_rounds(std::size_t i, bool tail_heavy) {
  const double rank =
      static_cast<double>(tail_heavy ? kZipfItems - i : i + 1);
  const double cost = 40000.0 / std::pow(rank, 1.1);
  return static_cast<std::uint64_t>(cost) + 4;
}

void zipf_loop(benchmark::State& state, Sched sched, bool tail_heavy) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto body = [tail_heavy](std::size_t i) {
    return spin(zipf_rounds(i, tail_heavy));
  };
  const auto run = [&] {
    return sched == Sched::guided
               ? lv::exec::parallel_map<std::uint64_t>(kZipfItems, body,
                                                       {.threads = threads})
               : static_map<std::uint64_t>(kZipfItems, threads, body);
  };
  std::vector<std::uint64_t> expect(kZipfItems);
  for (std::size_t i = 0; i < kZipfItems; ++i) expect[i] = body(i);
  if (run() != expect) {
    state.SkipWithError("schedule changed the results");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(run());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kZipfItems; ++i)
    total += zipf_rounds(i, tail_heavy);
  state.counters["spin_rounds"] = static_cast<double>(total);
}

void BM_SchedZipfTailGuided(benchmark::State& state) {
  zipf_loop(state, Sched::guided, true);
}
BENCHMARK(BM_SchedZipfTailGuided)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SchedZipfTailStatic(benchmark::State& state) {
  zipf_loop(state, Sched::static_chunks, true);
}
BENCHMARK(BM_SchedZipfTailStatic)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SchedZipfHeadGuided(benchmark::State& state) {
  zipf_loop(state, Sched::guided, false);
}
BENCHMARK(BM_SchedZipfHeadGuided)
    ->ArgName("threads")->Arg(4)->UseRealTime();

void BM_SchedZipfHeadStatic(benchmark::State& state) {
  zipf_loop(state, Sched::static_chunks, false);
}
BENCHMARK(BM_SchedZipfHeadStatic)
    ->ArgName("threads")->Arg(4)->UseRealTime();

// ---- skewed fault campaign -------------------------------------------

// A netlist whose fault population is maximally skewed: a live
// ripple-carry adder (every fault observable, detected within a few
// random vectors — cheap) plus a masked cone built *last*, whose nets
// feed a primary output only through AND-with-constant-0. Both stuck-at
// polarities of every cone net are undetectable, so each costs the full
// vector set — the scalar kernel's worst case, ~100x a leaf fault.
//
// Construction pins the fault-list layout:
//   * faults enumerate in net-creation order, two per net, so the cone's
//     faults occupy the tail of the campaign;
//   * pad inverters (observable, cheap) align the total fault count to a
//     multiple of 4*width(=16), making the static chunk exact — the
//     heavy block then sits entirely inside the *last* chunk at 4
//     threads.
struct SkewedCampaign {
  lv::circuit::Netlist nl;
  std::vector<std::uint64_t> vectors;
};

SkewedCampaign build_skewed_campaign() {
  SkewedCampaign c;
  const auto ports = lv::circuit::build_ripple_carry_adder(c.nl, 24);
  const std::size_t live = lv::sim::enumerate_faults(c.nl).size();

  constexpr std::size_t kBlock = 16;  // cone faults: 2*(6 chain + 2) nets
  // Total faults: next multiple of 16 fitting live + cone, with the last
  // chunk (total/16) at least as wide as the cone block.
  std::size_t total = ((live + kBlock + 15) / 16) * 16;
  while (total / 16 < kBlock) total += 16;
  const std::size_t pads = (total - kBlock - live) / 2;  // 2 faults per INV

  // Observable pad chain (cheap faults) — built before the cone so the
  // cone stays at the tail of the fault list.
  auto prev = ports.sum.at(0);
  for (std::size_t p = 0; p < pads; ++p) {
    prev = c.nl.add_gate(lv::circuit::CellKind::inv,
                         "pad" + std::to_string(p), {prev});
  }
  c.nl.mark_output(prev);

  // The masked cone: a 6-XOR chain off the primary inputs, ANDed with a
  // constant 0. Chain nets reach an output only through that AND, so no
  // stuck-at on them (or on the AND's own 0-side) is ever detectable.
  auto chain = c.nl.add_gate(lv::circuit::CellKind::xor2, "cone0",
                             {ports.a.at(0), ports.b.at(0)});
  for (int g = 1; g < 6; ++g) {
    chain = c.nl.add_gate(lv::circuit::CellKind::xor2,
                          "cone" + std::to_string(g),
                          {chain, ports.a.at(static_cast<std::size_t>(g))});
  }
  const auto zero = c.nl.add_gate(lv::circuit::CellKind::tie0, "mask0", {});
  const auto masked = c.nl.add_gate(lv::circuit::CellKind::and2,
                                    "masked", {chain, zero});
  c.nl.mark_output(masked);

  const std::size_t got = lv::sim::enumerate_faults(c.nl).size();
  if (got != total || got % 16 != 0) {
    std::fprintf(stderr,
                 "perf_sched: fault-count alignment broke (%zu != %zu)\n",
                 got, total);
    std::exit(1);
  }
  c.vectors = lv::sim::random_vectors(
      1024, static_cast<int>(c.nl.primary_inputs().size()), 11);
  return c;
}

constexpr std::size_t kNeverDetected = std::numeric_limits<std::size_t>::max();

// The scalar fault campaign of sim::fault_coverage — compile, good-machine
// responses, one early-exit FaultySimulator per fault, serial fold —
// with the per-fault loop on the static reference schedule.
lv::sim::CoverageResult static_campaign(const SkewedCampaign& c,
                                        std::size_t width) {
  const auto inputs = c.nl.primary_inputs();
  const auto outputs = c.nl.primary_outputs();
  const auto graph = lv::sim::SimGraph::compile(c.nl);
  const auto faults = lv::sim::enumerate_faults(c.nl);
  std::vector<std::uint64_t> golden;
  {
    lv::sim::Simulator good{graph};
    for (const auto v : c.vectors) {
      good.set_bus(inputs, v);
      good.settle();
      std::uint64_t out = 0;
      good.read_bus(outputs, out);
      golden.push_back(out);
    }
  }
  const auto first = static_map<std::size_t>(
      faults.size(), width, [&](std::size_t k) {
        lv::sim::FaultySimulator bad{graph, faults[k]};
        for (std::size_t i = 0; i < c.vectors.size(); ++i) {
          bad.set_bus(inputs, c.vectors[i]);
          bad.settle();
          std::uint64_t out = 0;
          if (!bad.read_bus(outputs, out) || out != golden[i]) return i;
        }
        return kNeverDetected;
      });
  lv::sim::CoverageResult r;
  r.total_faults = faults.size();
  r.first_detections.assign(c.vectors.size(), 0);
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (first[k] == kNeverDetected) {
      r.undetected.push_back(faults[k]);
    } else {
      ++r.detected;
      ++r.first_detections[first[k]];
    }
  }
  r.coverage = static_cast<double>(r.detected) /
               static_cast<double>(r.total_faults);
  return r;
}

bool same_coverage(const lv::sim::CoverageResult& a,
                   const lv::sim::CoverageResult& b) {
  if (a.total_faults != b.total_faults || a.detected != b.detected ||
      a.coverage != b.coverage || a.first_detections != b.first_detections ||
      a.undetected.size() != b.undetected.size())
    return false;
  for (std::size_t i = 0; i < a.undetected.size(); ++i) {
    if (a.undetected[i].net != b.undetected[i].net ||
        a.undetected[i].stuck_at != b.undetected[i].stuck_at)
      return false;
  }
  return true;
}

void skewed_campaign(benchmark::State& state, Sched sched) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const SkewedCampaign c = build_skewed_campaign();
  // Scalar kernel: per-fault early exit is what skews per-item cost.
  lv::exec::set_thread_count(1);
  const auto expect =
      lv::sim::fault_coverage(c.nl, c.vectors, lv::sim::FaultKernel::scalar);
  lv::exec::set_thread_count(threads);
  const auto run = [&] {
    return sched == Sched::guided
               ? lv::sim::fault_coverage(c.nl, c.vectors,
                                         lv::sim::FaultKernel::scalar)
               : static_campaign(c, threads);
  };
  if (!same_coverage(run(), expect)) {
    state.SkipWithError("schedule changed the coverage");
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(run().coverage);
    state.counters["faults"] = static_cast<double>(expect.total_faults);
    state.counters["undetected"] =
        static_cast<double>(expect.total_faults - expect.detected);
  }
  lv::exec::set_thread_count(0);
}

void BM_SkewedCampaignGuided(benchmark::State& state) {
  skewed_campaign(state, Sched::guided);
}
BENCHMARK(BM_SkewedCampaignGuided)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SkewedCampaignStatic(benchmark::State& state) {
  skewed_campaign(state, Sched::static_chunks);
}
BENCHMARK(BM_SkewedCampaignStatic)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
