// Bit-parallel (64-lane) kernel suite.
//
// The contract under test is *per-lane bit-exactness*: every lane of a
// BitParallelSimulator must reproduce, exactly, the trajectory and
// activity accounting that a scalar Simulator produces when fed that
// lane's stimulus alone — on every fixture, every delay model, with
// X-carrying lanes, lane-isolated stuck-at pins, and both word
// evaluation paths (verified direct operators and the per-lane LUT
// fallback). No tolerances: the word kernel shares the scalar kernel's
// (time, seq) event order, so equality is exact, not statistical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "exec/thread_pool.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

const s::SimConfig::DelayModel kModels[] = {
    s::SimConfig::DelayModel::zero,
    s::SimConfig::DelayModel::unit,
    s::SimConfig::DelayModel::load,
};

const char* model_name(s::SimConfig::DelayModel m) {
  switch (m) {
    case s::SimConfig::DelayModel::zero: return "zero";
    case s::SimConfig::DelayModel::unit: return "unit";
    case s::SimConfig::DelayModel::load: return "load";
  }
  return "?";
}

// Per-lane two-operand streams: streams[lane][step].
using LaneStreams = std::vector<std::vector<std::uint64_t>>;

LaneStreams random_lane_streams(std::size_t lanes, std::size_t steps,
                                int bits, std::uint64_t seed0) {
  LaneStreams out(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    out[lane] = s::random_vectors(steps, bits, seed0 + lane);
  return out;
}

// Transposes one step of per-lane streams into the span set_bus takes.
std::vector<std::uint64_t> step_values(const LaneStreams& streams,
                                       std::size_t step) {
  std::vector<std::uint64_t> out(streams.size());
  for (std::size_t lane = 0; lane < streams.size(); ++lane)
    out[lane] = streams[lane][step];
  return out;
}

// Requires lane `lane` of `word` to match `scalar` exactly: every net
// value and the full per-net activity accounting.
void expect_lane_matches_scalar(const c::Netlist& nl,
                                const s::BitParallelSimulator& word,
                                unsigned lane, const s::Simulator& scalar,
                                s::SimConfig::DelayModel model) {
  const s::ActivityStats lane_stats = word.lane_stats(lane);
  const auto& want = scalar.stats();
  ASSERT_EQ(lane_stats.cycles(), want.cycles())
      << "lane " << lane << " model " << model_name(model);
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(word.value(n, lane), scalar.value(n))
        << "net '" << nl.net(n).name << "' lane " << lane << " model "
        << model_name(model);
    ASSERT_EQ(lane_stats.transitions(n), want.transitions(n))
        << "net '" << nl.net(n).name << "' lane " << lane << " model "
        << model_name(model);
    ASSERT_EQ(lane_stats.settled_changes(n), want.settled_changes(n))
        << "net '" << nl.net(n).name << "' lane " << lane << " model "
        << model_name(model);
  }
}

// Every verdict of a fault campaign: counts, the undetected list in
// fault order and the per-vector first-detection profile.
void expect_same_verdicts(const s::CoverageResult& got,
                          const s::CoverageResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.total_faults, want.total_faults) << label;
  EXPECT_EQ(got.detected, want.detected) << label;
  EXPECT_EQ(got.coverage, want.coverage) << label;
  ASSERT_EQ(got.undetected.size(), want.undetected.size()) << label;
  for (std::size_t k = 0; k < got.undetected.size(); ++k) {
    EXPECT_EQ(got.undetected[k].net, want.undetected[k].net) << label;
    EXPECT_EQ(got.undetected[k].stuck_at, want.undetected[k].stuck_at)
        << label;
  }
  EXPECT_EQ(got.first_detections, want.first_detections) << label;
}

}  // namespace

TEST(SimBitParallel, SixtyFourLanesMatchScalarPerLane_Adder) {
  // 64 distinct random streams through one word simulator; every lane
  // must equal a scalar run of its own stream, for all delay models.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 16);
  constexpr std::size_t kSteps = 24;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 16, 1000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 16, 2000);
  for (const auto model : kModels) {
    const s::SimConfig config{model, 50'000'000};
    s::BitParallelSimulator word{nl, config, {.per_lane_stats = true}};
    for (std::size_t i = 0; i < kSteps; ++i) {
      word.set_bus(ports.a, step_values(a, i));
      word.set_bus(ports.b, step_values(b, i));
      word.settle();
    }
    for (unsigned lane = 0; lane < s::kLaneCount; ++lane) {
      s::Simulator scalar{nl, config};
      for (std::size_t i = 0; i < kSteps; ++i) {
        scalar.set_bus(ports.a, a[lane][i]);
        scalar.set_bus(ports.b, b[lane][i]);
        scalar.settle();
      }
      expect_lane_matches_scalar(nl, word, lane, scalar, model);
    }
  }
}

TEST(SimBitParallel, MultiplierLanesMatchScalarPerLane) {
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 6);
  constexpr std::size_t kSteps = 16;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 6, 3000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 6, 4000);
  for (const auto model : kModels) {
    const s::SimConfig config{model, 50'000'000};
    s::BitParallelSimulator word{nl, config, {.per_lane_stats = true}};
    for (std::size_t i = 0; i < kSteps; ++i) {
      word.set_bus(ports.a, step_values(a, i));
      word.set_bus(ports.b, step_values(b, i));
      word.settle();
    }
    // Spot-check a spread of lanes (the adder test sweeps all 64).
    for (const unsigned lane : {0u, 1u, 7u, 31u, 62u, 63u}) {
      s::Simulator scalar{nl, config};
      for (std::size_t i = 0; i < kSteps; ++i) {
        scalar.set_bus(ports.a, a[lane][i]);
        scalar.set_bus(ports.b, b[lane][i]);
        scalar.settle();
      }
      expect_lane_matches_scalar(nl, word, lane, scalar, model);
    }
  }
}

TEST(SimBitParallel, PipelinedMacClockGatingLanesMatchScalarPerLane) {
  // Sequential path: clock_cycle, reset_flops, mid-run clock gating and
  // a broadcast force_net, with per-lane data streams.
  c::Netlist nl;
  const auto ports = c::build_pipelined_mac(nl, 8, "mac");
  constexpr std::size_t kSteps = 32;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 8, 5000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 8, 6000);
  for (const auto model : kModels) {
    const s::SimConfig config{model, 50'000'000};
    s::BitParallelSimulator word{nl, config, {.per_lane_stats = true}};
    word.reset_flops(c::Logic::zero);
    for (std::size_t i = 0; i < kSteps; ++i) {
      if (i == 10) word.set_module_clock_enable("mac.acc", false);
      if (i == 16) word.set_module_clock_enable("mac.acc", true);
      word.set_bus(ports.a, step_values(a, i));
      word.set_bus(ports.b, step_values(b, i));
      word.clock_cycle();
    }
    word.force_net(ports.accumulator[0], c::Logic::one);
    word.clock_cycle();
    for (const unsigned lane : {0u, 5u, 33u, 63u}) {
      s::Simulator scalar{nl, config};
      scalar.reset_flops(c::Logic::zero);
      for (std::size_t i = 0; i < kSteps; ++i) {
        if (i == 10) scalar.set_module_clock_enable("mac.acc", false);
        if (i == 16) scalar.set_module_clock_enable("mac.acc", true);
        scalar.set_bus(ports.a, a[lane][i]);
        scalar.set_bus(ports.b, b[lane][i]);
        scalar.clock_cycle();
      }
      scalar.force_net(ports.accumulator[0], c::Logic::one);
      scalar.clock_cycle();
      expect_lane_matches_scalar(nl, word, lane, scalar, model);
    }
  }
}

TEST(SimBitParallel, XCarryingLanesStayLaneExact) {
  // Lanes disagreeing on X vs 0/1 at the same input: X must propagate
  // per lane exactly as the scalar kernel propagates it, without leaking
  // into known lanes.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  // Lane value pattern for input bit j of operand a, step i:
  //   lane 0:     known from the vector stream
  //   lane 1:     X on odd input bits
  //   lane 2:     all X on operand a
  //   lane 3:     known, complemented stream
  const auto base = s::random_vectors(12, 8, 77);
  const auto lane_value = [&](unsigned lane, std::size_t i,
                              std::size_t j) -> c::Logic {
    const bool bit = (base[i] >> j) & 1;
    switch (lane) {
      case 1: return (j % 2 == 1) ? c::Logic::x : c::from_bool(bit);
      case 2: return c::Logic::x;
      case 3: return c::from_bool(!bit);
      default: return c::from_bool(bit);
    }
  };
  for (const auto model : kModels) {
    const s::SimConfig config{model, 50'000'000};
    s::BitParallelSimulator word{nl, config, {.per_lane_stats = true}};
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (std::size_t j = 0; j < ports.a.size(); ++j) {
        s::LogicW w{0, 0};
        for (unsigned lane = 0; lane < 4; ++lane)
          w = s::with_lane(w, lane, lane_value(lane, i, j));
        word.set_input(ports.a[j], w);
      }
      word.set_bus_broadcast(ports.b, base[i] ^ 0x3c);
      word.settle();
    }
    for (unsigned lane = 0; lane < 4; ++lane) {
      s::Simulator scalar{nl, config};
      for (std::size_t i = 0; i < base.size(); ++i) {
        for (std::size_t j = 0; j < ports.a.size(); ++j)
          scalar.set_input(ports.a[j], lane_value(lane, i, j));
        scalar.set_bus(ports.b, base[i] ^ 0x3c);
        scalar.settle();
      }
      expect_lane_matches_scalar(nl, word, lane, scalar, model);
    }
    // An all-X operand must leave lane 2's sum X but lane 0's known.
    std::uint64_t out = 0;
    EXPECT_TRUE(word.read_bus(ports.sum, 0, out));
    EXPECT_FALSE(word.read_bus(ports.sum, 2, out));
  }
}

TEST(SimBitParallel, PinnedSeatIsolatesInjectedFaults) {
  // Stuck-at-1 on lane 3 and stuck-at-0 on lane 5 of one gate-driven net,
  // and stuck-at-1 on lane 7 of a primary input, pinned by seat(stuck):
  // each faulty lane must match a scalar FaultySimulator on every net and
  // lane 0 the good machine, on both word evaluation paths.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  const auto vecs_a = s::random_vectors(20, 8, 91);
  const auto vecs_b = s::random_vectors(20, 8, 92);
  const std::pair<unsigned, s::Fault> faults[] = {
      {3, {ports.sum[2], c::Logic::one}},
      {5, {ports.sum[2], c::Logic::zero}},
      {7, {ports.a[0], c::Logic::one}},
  };
  std::vector<s::StuckLanes> stuck(nl.net_count());
  for (const auto& [lane, fault] : faults)
    (fault.stuck_at == c::Logic::one ? stuck[fault.net].one
                                     : stuck[fault.net].zero) |=
        std::uint64_t{1} << lane;

  for (const bool lut : {false, true}) {
    s::BitParallelSimulator word{nl, {}, {.force_lut_fallback = lut}};
    s::Simulator good{nl};
    std::vector<s::FaultySimulator> bad;
    for (const auto& [lane, fault] : faults) bad.emplace_back(nl, fault);
    for (std::size_t i = 0; i < vecs_a.size(); ++i) {
      word.set_bus_broadcast(ports.a, vecs_a[i]);
      word.set_bus_broadcast(ports.b, vecs_b[i]);
      word.seat(stuck);
      good.set_bus(ports.a, vecs_a[i]);
      good.set_bus(ports.b, vecs_b[i]);
      good.settle();
      for (auto& machine : bad) {
        machine.set_bus(ports.a, vecs_a[i]);
        machine.set_bus(ports.b, vecs_b[i]);
        machine.settle();
      }
      for (c::NetId n = 0; n < nl.net_count(); ++n) {
        ASSERT_EQ(word.value(n, 0), good.value(n))
            << "lut " << lut << " vector " << i << " net " << n;
        for (std::size_t f = 0; f < bad.size(); ++f)
          ASSERT_EQ(word.value(n, faults[f].first), bad[f].value(n))
              << "lut " << lut << " vector " << i << " net " << n
              << " lane " << faults[f].first;
      }
    }
  }
}

TEST(SimBitParallel, FaultKernelsAgreeExactly) {
  // The word campaign (63 fault machines per levelized pass over settled
  // values) must reproduce the scalar event-driven campaign verbatim on
  // every kind `lvtool gen` produces, at every exec width. At width 16
  // the scalar reference (whose own width invariance ScheduleDeterminism
  // pins) runs once, on 4 vectors: the array multiplier's glitch storms
  // cost it ~0.5 ms per settle there.
  using Build = void (*)(c::Netlist&, int);
  const std::pair<const char*, Build> kinds[] = {
      {"rca", [](c::Netlist& nl, int w) { c::build_ripple_carry_adder(nl, w); }},
      {"cla", [](c::Netlist& nl, int w) { c::build_carry_lookahead_adder(nl, w); }},
      {"csel", [](c::Netlist& nl, int w) { c::build_carry_select_adder(nl, w); }},
      {"ks", [](c::Netlist& nl, int w) { c::build_kogge_stone_adder(nl, w); }},
      {"mul", [](c::Netlist& nl, int w) { c::build_array_multiplier(nl, w); }},
      {"shifter", [](c::Netlist& nl, int w) { c::build_barrel_shifter(nl, w); }},
      {"alu", [](c::Netlist& nl, int w) { c::build_alu(nl, w); }},
      {"cskip", [](c::Netlist& nl, int w) { c::build_carry_skip_adder(nl, w); }},
      {"wmul", [](c::Netlist& nl, int w) { c::build_wallace_multiplier(nl, w); }},
  };
  for (const auto& [kind, build] : kinds) {
    for (const int width : {4, 8, 16}) {
      c::Netlist nl;
      build(nl, width);
      const std::size_t inputs = nl.primary_inputs().size();
      ASSERT_LE(inputs, 64u) << kind << width;
      const auto vecs = s::random_vectors(width == 16 ? 4 : 40,
                                          static_cast<int>(inputs),
                                          17 + static_cast<unsigned>(width));
      const std::string label = kind + std::to_string(width);
      lv::exec::set_thread_count(8);
      const auto scalar = s::fault_coverage(nl, vecs, s::FaultKernel::scalar);
      ASSERT_EQ(scalar.first_detections.size(), vecs.size());
      for (const std::size_t exec_width : {1u, 2u, 8u}) {
        lv::exec::set_thread_count(exec_width);
        const std::string at = label + " width " + std::to_string(exec_width);
        expect_same_verdicts(s::fault_coverage(nl, vecs, s::FaultKernel::word),
                             scalar, at + " word");
        if (width != 16)
          expect_same_verdicts(
              s::fault_coverage(nl, vecs, s::FaultKernel::scalar), scalar,
              at + " scalar");
      }
    }
  }
  lv::exec::set_thread_count(0);  // restore the default
}

TEST(SimBitParallel, FaultKernelsAgreeOnHandBuiltCorners) {
  // A tie cell, faults on primary-output nets, undetectable faults, and
  // stuck-at-0 and stuck-at-1 of every net side by side in one batch
  // (enumerate_faults lists them adjacently and there are fewer than 63).
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto cin = nl.add_input("c");
  const auto t = nl.add_gate(c::CellKind::tie1, "t", {});
  const auto ab = nl.add_gate(c::CellKind::and2, "g_ab", {a, b});
  const auto ac = nl.add_gate(c::CellKind::and2, "g_ac", {a, cin});
  const auto r = nl.add_gate(c::CellKind::or2, "g_r", {a, ac});  // == a
  const auto y1 = nl.add_gate(c::CellKind::and2, "g_y1", {r, t});
  const auto y2 = nl.add_gate(c::CellKind::xor2, "g_y2", {cin, ab});
  const auto nb = nl.add_gate(c::CellKind::inv, "g_nb", {b});
  const auto y3 = nl.add_gate(c::CellKind::nand2, "g_y3", {nb, t});
  nl.mark_output(y1);
  nl.mark_output(y2);
  nl.mark_output(y3);
  std::vector<std::uint64_t> vecs;  // exhaustive, twice
  for (int rep = 0; rep < 2; ++rep)
    for (std::uint64_t v = 0; v < 8; ++v) vecs.push_back(v);

  const auto scalar = s::fault_coverage(nl, vecs, s::FaultKernel::scalar);
  for (const std::size_t exec_width : {1u, 2u, 8u}) {
    lv::exec::set_thread_count(exec_width);
    expect_same_verdicts(s::fault_coverage(nl, vecs, s::FaultKernel::word),
                         scalar, "width " + std::to_string(exec_width));
  }
  lv::exec::set_thread_count(0);

  // Undetectable: the tie stuck at its own value, and the redundant AND
  // of a OR (a AND c) stuck at 0. Everything else is caught, including
  // the tie stuck at 0, that AND stuck at 1 and every output fault.
  EXPECT_EQ(scalar.total_faults, 2u * 8u);
  ASSERT_EQ(scalar.undetected.size(), 2u);
  EXPECT_EQ(scalar.undetected[0].net, t);
  EXPECT_EQ(scalar.undetected[0].stuck_at, c::Logic::one);
  EXPECT_EQ(scalar.undetected[1].net, ac);
  EXPECT_EQ(scalar.undetected[1].stuck_at, c::Logic::zero);
}

TEST(SimBitParallel, FirstDetectionsProfileSumsToDetected) {
  // Exhaustive vectors on a small adder: the first-detection histogram
  // attributes every detected fault exactly once, and is front-loaded
  // (later vectors add less marginal coverage than the first).
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 3);
  const auto vecs = s::counting_vectors(
      1u << nl.primary_inputs().size(),
      static_cast<int>(nl.primary_inputs().size()));
  const auto result = s::fault_coverage(nl, vecs);
  std::uint64_t sum = 0;
  for (const auto c : result.first_detections) sum += c;
  EXPECT_EQ(sum, result.detected);
  EXPECT_GT(result.first_detections[0], 0u);
}

TEST(SimBitParallel, LutFallbackMatchesDirectOperators) {
  // Differential test of the two word evaluation paths: forcing every
  // cell through the per-lane LUT fallback must not change a single
  // counter or value.
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 5);
  const auto a = random_lane_streams(s::kLaneCount, 12, 5, 7000);
  const auto b = random_lane_streams(s::kLaneCount, 12, 5, 8000);
  for (const auto model : kModels) {
    const s::SimConfig config{model, 50'000'000};
    s::BitParallelSimulator direct{nl, config, {.per_lane_stats = true}};
    s::BitParallelSimulator fallback{
        nl, config,
        {.per_lane_stats = true, .force_lut_fallback = true}};
    for (std::size_t i = 0; i < 12; ++i) {
      for (auto* sim : {&direct, &fallback}) {
        sim->set_bus(ports.a, step_values(a, i));
        sim->set_bus(ports.b, step_values(b, i));
        sim->settle();
      }
    }
    EXPECT_EQ(direct.stats().cycles(), fallback.stats().cycles());
    for (c::NetId n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(direct.value(n), fallback.value(n))
          << "net '" << nl.net(n).name << "' model " << model_name(model);
      ASSERT_EQ(direct.stats().transitions(n), fallback.stats().transitions(n))
          << "net '" << nl.net(n).name << "' model " << model_name(model);
      ASSERT_EQ(direct.stats().settled_changes(n),
                fallback.stats().settled_changes(n))
          << "net '" << nl.net(n).name << "' model " << model_name(model);
    }
  }
}

TEST(SimBitParallel, ActiveLaneMaskGatesAccountingOnly) {
  // Inactive lanes keep simulating (values identical) but contribute
  // neither transitions nor cycles to the aggregate stats.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  const auto a = random_lane_streams(s::kLaneCount, 10, 8, 9000);
  const auto b = random_lane_streams(s::kLaneCount, 10, 8, 9100);
  s::BitParallelSimulator all{nl, {}, {.per_lane_stats = true}};
  s::BitParallelSimulator half{nl, {}, {.per_lane_stats = true}};
  const std::uint64_t mask = 0x00000000ffffffffull;
  half.set_active_lanes(mask);
  for (std::size_t i = 0; i < 10; ++i) {
    for (auto* sim : {&all, &half}) {
      sim->set_bus(ports.a, step_values(a, i));
      sim->set_bus(ports.b, step_values(b, i));
      sim->settle();
    }
  }
  EXPECT_EQ(all.stats().cycles(), 10u * s::kLaneCount);
  EXPECT_EQ(half.stats().cycles(), 10u * 32u);
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(all.value(n), half.value(n)) << nl.net(n).name;
    // Aggregate of the gated run equals the sum of its active lanes'
    // counters (which the mask does not distort).
    std::uint64_t lane_sum = 0;
    for (unsigned lane = 0; lane < 32; ++lane)
      lane_sum += all.lane_stats(lane).transitions(n);
    ASSERT_EQ(half.stats().transitions(n), lane_sum) << nl.net(n).name;
  }
}

TEST(SimBitParallel, LaneChunkedWorkloadMatchesScalarReplayExactly) {
  // The workload runner splits the vectors into slices of ceil(N/16)
  // (64 to 1024), runs each on a copy of the caller's simulator across
  // exec workers, and seats every lane on its predecessor vector, so the
  // aggregate ActivityStats must equal a hand-written serial scalar loop
  // *bit for bit* — per-net transitions, settled changes, cycle count,
  // and therefore mean alpha and the Fig. 8 histogram. The vector counts
  // sit on the geometry's edges: one vector, one partial slice at the
  // floor (N <= 1024), exactly 16 slices, a ragged last slice, the
  // 1024-vector cap (N > 16384); the widths cover the serial path, an
  // odd width and more workers than cores. Lanes end on their own last
  // vectors, so the final state is checked lane by lane: identical at
  // every width, each lane the settled state of the inputs it holds, and
  // the lane holding vector N - 1 equal to the serial loop's final state.
  c::Netlist adder_nl;
  const auto adder = c::build_ripple_carry_adder(adder_nl, 8);
  c::Netlist mul_nl;
  const auto mul = c::build_array_multiplier(mul_nl, 8);
  struct Case {
    const c::Netlist* nl;
    c::Bus a, b;
    const char* name;
  };
  for (const Case& cs : {Case{&adder_nl, adder.a, adder.b, "rca8"},
                         Case{&mul_nl, mul.a, mul.b, "mul8"}}) {
    const std::size_t nets = cs.nl->net_count();
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{48}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{2000}, std::size_t{16383},
          std::size_t{16384}, std::size_t{16385}}) {
      const std::string label =
          std::string{cs.name} + " n = " + std::to_string(n);
      const auto a = s::random_vectors(n, 8, 41);
      const auto b = s::random_vectors(n, 8, 42);
      s::Simulator scalar{*cs.nl};
      for (std::size_t i = 0; i < n; ++i) {
        scalar.set_bus(cs.a, a[i]);
        scalar.set_bus(cs.b, b[i]);
        scalar.settle();
      }
      ASSERT_EQ(scalar.stats().cycles(), n);
      std::vector<s::LogicW> final_values;
      for (const std::size_t width : {1u, 2u, 3u, 8u}) {
        lv::exec::set_thread_count(width);
        s::BitParallelSimulator word{*cs.nl};
        s::run_two_operand_workload(word, cs.a, cs.b, a, b);
        ASSERT_EQ(word.stats().cycles(), n);
        for (c::NetId net = 0; net < nets; ++net) {
          ASSERT_EQ(word.stats().transitions(net),
                    scalar.stats().transitions(net))
              << label << " net '" << cs.nl->net(net).name << "' width "
              << width;
          ASSERT_EQ(word.stats().settled_changes(net),
                    scalar.stats().settled_changes(net))
              << label << " net '" << cs.nl->net(net).name << "' width "
              << width;
        }
        if (n > 1) {
          EXPECT_GT(s::mean_alpha(word), 0.0);
        }
        EXPECT_EQ(s::mean_alpha(word), s::mean_alpha(scalar));
        std::vector<s::LogicW> values(nets);
        for (c::NetId net = 0; net < nets; ++net) values[net] = word.value(net);
        if (final_values.empty()) {
          final_values = values;
          continue;
        }
        for (c::NetId net = 0; net < nets; ++net)
          ASSERT_EQ(values[net], final_values[net])
              << label << " final net '" << cs.nl->net(net).name
              << "' width " << width;
      }
      bool saw_last = false;
      for (unsigned lane = 0; lane < s::kLaneCount; ++lane) {
        std::uint64_t la = 0, lb = 0;
        bool known = true;
        for (const c::NetId net : cs.a)
          known = known && s::lane_of(final_values[net], lane) != c::Logic::x;
        for (const c::NetId net : cs.b)
          known = known && s::lane_of(final_values[net], lane) != c::Logic::x;
        if (!known) continue;
        for (std::size_t j = 0; j < cs.a.size(); ++j) {
          if (s::lane_of(final_values[cs.a[j]], lane) == c::Logic::one)
            la |= std::uint64_t{1} << j;
          if (s::lane_of(final_values[cs.b[j]], lane) == c::Logic::one)
            lb |= std::uint64_t{1} << j;
        }
        s::Simulator settled{*cs.nl};
        settled.set_bus(cs.a, la);
        settled.set_bus(cs.b, lb);
        settled.settle();
        for (c::NetId net = 0; net < nets; ++net)
          ASSERT_EQ(s::lane_of(final_values[net], lane), settled.value(net))
              << label << " lane " << lane << " net '"
              << cs.nl->net(net).name << "'";
        if (la == a.back() && lb == b.back()) {
          saw_last = true;
          for (c::NetId net = 0; net < nets; ++net)
            ASSERT_EQ(settled.value(net), scalar.value(net)) << label;
        }
      }
      EXPECT_TRUE(saw_last) << label;
    }
  }
  lv::exec::set_thread_count(0);
}

TEST(SimBitParallel, CopiedLutFallbackSimulatorOutlivesItsSource) {
  // Copies of a force_lut_fallback simulator (copy-constructed and
  // copy-assigned) must keep a valid word plan after the source is gone;
  // under ASan a plan pointer into the source's storage fails here.
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 4);
  const auto a = random_lane_streams(s::kLaneCount, 12, 4, 7100);
  const auto b = random_lane_streams(s::kLaneCount, 12, 4, 7200);
  const s::BitParallelSimulator::Options fallback{.force_lut_fallback = true};
  s::BitParallelSimulator ref{nl, {}, fallback};
  auto source = std::make_unique<s::BitParallelSimulator>(
      nl, s::SimConfig{}, fallback);
  const auto step = [&](s::BitParallelSimulator& sim, std::size_t i) {
    sim.set_bus(ports.a, step_values(a, i));
    sim.set_bus(ports.b, step_values(b, i));
    sim.settle();
  };
  for (std::size_t i = 0; i < 4; ++i) {
    step(ref, i);
    step(*source, i);
  }
  s::BitParallelSimulator copy = *source;
  s::BitParallelSimulator assigned{nl};
  assigned = *source;
  source.reset();
  for (std::size_t i = 4; i < 12; ++i) {
    step(ref, i);
    step(copy, i);
    step(assigned, i);
  }
  for (const auto* sim : {&copy, &assigned}) {
    EXPECT_EQ(sim->stats().cycles(), ref.stats().cycles());
    for (c::NetId n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(sim->value(n), ref.value(n)) << nl.net(n).name;
      ASSERT_EQ(sim->stats().transitions(n), ref.stats().transitions(n))
          << nl.net(n).name;
    }
  }
}

TEST(SimBitParallel, EventBudgetIsATypedError) {
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 4);
  s::SimConfig config;
  config.max_events_per_settle = 8;
  s::BitParallelSimulator word{nl, config};
  word.set_bus_broadcast(ports.a, 0xf);
  word.set_bus_broadcast(ports.b, 0xf);
  EXPECT_THROW(word.settle(), s::EventBudgetError);
  s::Simulator scalar{nl, config};
  scalar.set_bus(ports.a, 0xf);
  scalar.set_bus(ports.b, 0xf);
  EXPECT_THROW(scalar.settle(), s::EventBudgetError);
}

TEST(SimBitParallel, RejectsBadLaneAndBusUsage) {
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  s::BitParallelSimulator sim{nl};
  std::uint64_t out = 0;
  EXPECT_THROW(sim.read_bus(ports.sum, 64, out), lv::util::Error);
  EXPECT_THROW(sim.lane_stats(0), lv::util::Error);  // per_lane_stats off
  const std::vector<std::uint64_t> too_many(65, 0);
  EXPECT_THROW(sim.set_bus(ports.a, too_many), lv::util::Error);
  EXPECT_THROW(sim.set_input(ports.sum[0], c::Logic::one), lv::util::Error);
  // The pinned seat takes exactly one StuckLanes per net.
  const std::vector<s::StuckLanes> too_few(nl.net_count() - 1);
  const std::vector<s::StuckLanes> one_extra(nl.net_count() + 1);
  EXPECT_THROW(sim.seat(too_few), lv::util::Error);
  EXPECT_THROW(sim.seat(one_extra), lv::util::Error);
}
