// SimGraph serialization (lv-graph/1): a decoded graph must be
// bit-identical to the compile it was encoded from — pinned by
// re-encoding (every serialized array compared at once) and by running
// both through the simulator. Damaged blobs must throw util::Error, the
// signal the artifact store turns into miss-and-delete.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/graph_io.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;
namespace u = lv::util;

namespace {

const char* kSequentialNetlist =
    "lvnet 1\n"
    "clock clk\n"
    "input d\n"
    "input sel\n"
    "net q\n"
    "net inv_q\n"
    "net muxed\n"
    "net tied\n"
    "net y\n"
    "gate f0 DFF q d clk\n"
    "gate i0 INV inv_q q\n"
    "gate m0 MUX2 muxed q inv_q sel\n"
    "gate t0 TIE1 tied\n"
    "gate a0 AND2 y muxed tied\n"
    "output y\n";

// decode(encode(g)) must re-encode to the identical byte string: that
// compares every serialized field (nodes, CSRs, all three delay arrays,
// word ops, tie inits, bitmaps) in one shot.
void expect_round_trip_identical(const c::Netlist& nl) {
  const auto compiled = s::SimGraph::compile(nl);
  const std::string blob = s::encode_graph(*compiled);
  const auto decoded = s::decode_graph(nl, blob);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(s::encode_graph(*decoded), blob);
  // The LUT bank is not serialized (reinstalled from the built-in bank);
  // it must still match the compiled graph's.
  ASSERT_EQ(decoded->luts().size(), compiled->luts().size());
  for (std::size_t i = 0; i < decoded->luts().size(); ++i)
    EXPECT_EQ(decoded->luts()[i], compiled->luts()[i]) << "lut " << i;
  EXPECT_EQ(decoded->max_delay(s::SimConfig::DelayModel::load),
            compiled->max_delay(s::SimConfig::DelayModel::load));
  // Nor is the levelized order: decode rebuilds it from the graph.
  EXPECT_EQ(decoded->comb_order(), compiled->comb_order());
}

}  // namespace

TEST(SimGraphIo, CombinationalRoundTripIsBitIdentical) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  expect_round_trip_identical(nl);
}

TEST(SimGraphIo, SequentialRoundTripIsBitIdentical) {
  const c::Netlist nl = lv::check::require_netlist(kSequentialNetlist);
  expect_round_trip_identical(nl);
}

TEST(SimGraphIo, DecodedGraphSimulatesIdentically) {
  c::Netlist nl;
  const c::AdderPorts ports = c::build_ripple_carry_adder(nl, 8);
  const auto compiled = s::SimGraph::compile(nl);
  const auto decoded = s::decode_graph(nl, s::encode_graph(*compiled));

  s::SimConfig config;
  config.delay_model = s::SimConfig::DelayModel::load;
  s::Simulator a{compiled, config};
  s::Simulator b{decoded, config};
  u::Xoshiro256 rng{42};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = rng.next_u64() & 0xff;
    const std::uint64_t vb = rng.next_u64() & 0xff;
    a.set_bus(ports.a, va);
    a.set_bus(ports.b, vb);
    a.settle();
    b.set_bus(ports.a, va);
    b.set_bus(ports.b, vb);
    b.settle();
    std::uint64_t sa = 0;
    std::uint64_t sb = 0;
    ASSERT_TRUE(a.read_bus(ports.sum, sa));
    ASSERT_TRUE(b.read_bus(ports.sum, sb));
    EXPECT_EQ(sa, sb) << "inputs " << va << " + " << vb;
    EXPECT_EQ(sa & 0xff, (va + vb) & 0xff);
  }
  // Transition statistics ride on the same delay arrays — glitch counts
  // must match too, not just settled values.
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    EXPECT_EQ(a.stats().transitions(n), b.stats().transitions(n)) << n;
}

TEST(SimGraphIo, RejectsTruncatedBlob) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                blob.size() / 2, blob.size() - 1})
    EXPECT_THROW(s::decode_graph(nl, std::string_view{blob}.substr(0, len)),
                 u::Error)
        << "prefix of " << len << " bytes decoded";
}

TEST(SimGraphIo, RejectsVersionBump) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  blob[0] = static_cast<char>(blob[0] + 1);  // version is the first u32
  EXPECT_THROW(s::decode_graph(nl, blob), u::Error);
}

TEST(SimGraphIo, RejectsBlobForDifferentNetlist) {
  // A blob keyed to the wrong netlist (count mismatch) must throw, not
  // index out of bounds.
  c::Netlist four;
  c::build_ripple_carry_adder(four, 4);
  c::Netlist eight;
  c::build_ripple_carry_adder(eight, 8);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(four));
  EXPECT_THROW(s::decode_graph(eight, blob), u::Error);
}

TEST(SimGraphIo, RejectsOutOfRangeIndices) {
  // Flip bytes across the whole blob; every mutation must either decode
  // to a graph that re-encodes cleanly or throw util::Error — never
  // crash or hand back out-of-range indices silently.
  const c::Netlist nl = lv::check::require_netlist(kSequentialNetlist);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  int rejected = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x7f);
    try {
      const auto g = s::decode_graph(nl, mutated);
      ASSERT_NE(g, nullptr);
    } catch (const u::Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "no mutation was ever rejected";
}
