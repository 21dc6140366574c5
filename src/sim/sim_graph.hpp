// Compiled simulation graph — the netlist pre-lowered, once, into the
// flat arrays the event kernel actually touches per event.
//
// The interpreted kernel paid per event for work that is invariant per
// netlist: cell_info() lookups, fanout vector-of-vectors chasing, delay
// recomputation (a double divide per evaluation under the load model),
// and a heap-allocated input-value vector per gate evaluation. SimGraph
// hoists all of it to compile time:
//
//   * CSR fanout restricted to *combinational* consumers (flops never
//     react to data-input events, so they are filtered out of the
//     event-propagation graph entirely instead of being skipped by a
//     per-event branch);
//   * CSR input-pin arrays (flat NetId storage, one span per instance);
//   * per-instance integer delays, precomputed for all three
//     SimConfig::DelayModel settings so a Simulator just indexes the
//     array for its model;
//   * truth-table LUT evaluation for combinational cells with <= 4
//     inputs: three-valued inputs pack into 2-bit codes (Logic's own
//     integer values), so a gate evaluation is a shift/or gather plus
//     one 256-byte table lookup. Wider or exotic cells fall back to
//     circuit::evaluate_cell; the tables themselves are *built* through
//     evaluate_cell, which is what makes the LUT path bit-identical to
//     the interpreted kernel by construction.
//
// A graph is immutable after compile() and safe to share across threads
// and simulators — the fault campaign compiles one graph and runs every
// fault machine against it instead of re-validating and re-deriving per
// simulator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.hpp"
#include "util/error.hpp"

namespace lv::sim {

struct SimConfig {
  enum class DelayModel {
    zero,  // all gates settle instantaneously (no glitches modelled)
    unit,  // every gate = 1 tick (glitches from path-depth imbalance)
    load,  // gate delay = 1 + fanout_pins/drive (heavier loads slower)
  };
  DelayModel delay_model = DelayModel::unit;
  // Safety valve: maximum events processed per settle() call.
  std::uint64_t max_events_per_settle = 50'000'000;
};

// Thrown by settle() (either kernel) when one settle processes more than
// SimConfig::max_events_per_settle events. Typed so front-ends can report
// it as the coded `sim.event_budget` diagnostic instead of an internal
// fault.
class EventBudgetError : public util::Error {
 public:
  using util::Error::Error;
};

class SimGraph {
 public:
  // Inputs to a LUT-evaluated cell pack into 2 bits each (Logic::zero=0,
  // Logic::one=1, Logic::x=2), so 4 inputs index a 256-entry table.
  static constexpr int kMaxLutInputs = 4;
  static constexpr std::uint8_t kNoLut = 0xff;
  using Lut = std::array<circuit::Logic, 256>;

  // Word-level evaluation plan (bit-parallel kernel): word_ops()[i] is
  // the CellKind evaluated directly as bitwise ops on whole 64-lane
  // words, or one of the sentinels below. Direct kinds are admitted only
  // after their word operator is verified against circuit::evaluate_cell
  // over every 3^k input combination (sim_graph.cpp), so the word kernel
  // is lane-for-lane identical to the scalar kernel by construction.
  static constexpr std::uint8_t kWordLut = 0xfe;         // per-lane LUT path
  static constexpr std::uint8_t kWordSequential = 0xfd;  // flop: never evaluated

  // Per-instance evaluation record (hot: keep it small and flat).
  struct Node {
    circuit::NetId output = circuit::kInvalidNet;
    std::uint32_t in_begin = 0;  // index into input_nets()
    std::uint8_t in_count = 0;
    std::uint8_t lut = kNoLut;   // index into luts(); kNoLut = generic path
    std::uint8_t kind = 0;       // circuit::CellKind, for the generic path
    std::uint8_t sequential = 0;
  };

  struct TieInit {
    circuit::NetId net = circuit::kInvalidNet;
    circuit::Logic value = circuit::Logic::x;
  };

  // Validates the netlist and lowers it. The netlist must outlive the
  // graph (the simulator still reads names/modules through it on cold
  // paths).
  explicit SimGraph(const circuit::Netlist& netlist);

  // Convenience for the common shared-ownership pattern.
  static std::shared_ptr<const SimGraph> compile(
      const circuit::Netlist& netlist) {
    return std::make_shared<const SimGraph>(netlist);
  }

  const circuit::Netlist& netlist() const { return netlist_; }
  std::size_t net_count() const { return net_count_; }
  std::size_t instance_count() const { return nodes_.size(); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<circuit::NetId>& input_nets() const { return input_nets_; }

  // Event-propagation CSR: combinational consumers of net n live at
  // eval_list()[eval_offsets()[n] .. eval_offsets()[n+1]).
  const std::vector<std::uint32_t>& eval_offsets() const {
    return eval_offsets_;
  }
  const std::vector<circuit::InstanceId>& eval_list() const {
    return eval_list_;
  }

  // Per-instance delay under `model`, and its maximum over the netlist
  // (bounds the scheduler's timing-wheel horizon).
  const std::vector<std::uint32_t>& delays(SimConfig::DelayModel model) const {
    return delays_[static_cast<std::size_t>(model)];
  }
  std::uint64_t max_delay(SimConfig::DelayModel model) const {
    return max_delay_[static_cast<std::size_t>(model)];
  }

  const std::vector<Lut>& luts() const { return luts_; }

  // Per-instance word-level plan (see kWordLut / kWordSequential above).
  const std::vector<std::uint8_t>& word_ops() const { return word_ops_; }

  const std::vector<circuit::InstanceId>& sequential_instances() const {
    return sequential_;
  }

  // Every combinational instance exactly once, levelized: each instance
  // comes after the combinational drivers of all its inputs. Evaluating
  // the instances once in this order brings every gate-driven net to its
  // quiescent value (the slice seat, Simulator::seat). Filled by compile,
  // so workers never need the netlist's lazy topo_order() cache.
  const std::vector<circuit::InstanceId>& comb_order() const {
    return comb_order_;
  }
  const std::vector<TieInit>& tie_inits() const { return tie_inits_; }

  // True when `net` is a primary input (flat bitmap; lets set_input stay
  // off the Net-struct cold path).
  bool is_primary_input(circuit::NetId net) const {
    return net < net_count_ && net_is_input_[net] != 0;
  }

  // Widest input count of any instance (sizes the generic-path scratch).
  std::size_t max_input_count() const { return max_input_count_; }

  SimGraph(const SimGraph&) = delete;
  SimGraph& operator=(const SimGraph&) = delete;

 private:
  // Fills comb_order_ from nodes_ and the eval CSR; throws on a
  // combinational cycle.
  void levelize();

  const circuit::Netlist& netlist_;
  std::size_t net_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<circuit::NetId> input_nets_;
  std::vector<std::uint32_t> eval_offsets_;
  std::vector<circuit::InstanceId> eval_list_;
  std::vector<std::uint32_t> delays_[3];
  std::uint64_t max_delay_[3] = {0, 0, 0};
  std::vector<Lut> luts_;
  std::vector<std::uint8_t> word_ops_;
  std::vector<circuit::InstanceId> sequential_;
  std::vector<circuit::InstanceId> comb_order_;
  std::vector<TieInit> tie_inits_;
  std::vector<std::uint8_t> net_is_input_;
  std::size_t max_input_count_ = 0;
};

}  // namespace lv::sim
