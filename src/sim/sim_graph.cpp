#include "sim/sim_graph.hpp"

#include <algorithm>
#include <array>
#include <bitset>

#include "obs/metrics.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

using circuit::CellInfo;
using circuit::CellKind;
using circuit::InstanceId;
using circuit::Logic;
using circuit::NetId;

namespace {

lv::obs::Timer& t_graph_compile() {
  static auto& t = lv::obs::Registry::global().timer("sim.graph_compile_ns");
  return t;
}

// Per-kind truth tables over packed 2-bit Logic codes, built once per
// process through circuit::evaluate_cell so LUT evaluation is
// bit-identical to interpreted evaluation by construction. Entries whose
// decoded pins include the unused code 3 are never indexed (values_ only
// ever holds codes 0..2); they are filled with X for determinism.
const std::vector<SimGraph::Lut>& kind_luts() {
  static const std::vector<SimGraph::Lut> tables = [] {
    constexpr auto kind_count = static_cast<std::size_t>(CellKind::kind_count);
    std::vector<SimGraph::Lut> out(kind_count);
    for (std::size_t k = 0; k < kind_count; ++k) {
      const auto kind = static_cast<CellKind>(k);
      const CellInfo& info = circuit::cell_info(kind);
      out[k].fill(Logic::x);
      if (info.sequential || info.input_count > SimGraph::kMaxLutInputs)
        continue;
      const int entries = 1 << (2 * info.input_count);
      for (int idx = 0; idx < entries; ++idx) {
        std::array<Logic, SimGraph::kMaxLutInputs> pins{};
        bool representable = true;
        for (int p = 0; p < info.input_count; ++p) {
          const int code = (idx >> (2 * p)) & 3;
          if (code == 3) {
            representable = false;
            break;
          }
          pins[static_cast<std::size_t>(p)] = static_cast<Logic>(code);
        }
        if (!representable) continue;
        out[k][static_cast<std::size_t>(idx)] = circuit::evaluate_cell(
            kind, {pins.data(), static_cast<std::size_t>(info.input_count)});
      }
    }
    return out;
  }();
  return tables;
}

// Verified direct-word-operator admission. A combinational kind gets a
// direct word plan only if word_evaluate_direct reproduces
// circuit::evaluate_cell on *every* 3^k three-valued input combination,
// checked once per process with each candidate input broadcast to all 64
// lanes plus a rotating per-lane pattern (so a lane-mixing bug in the
// bitplane algebra cannot hide behind uniform lanes). Any mismatch
// demotes the kind to the per-lane LUT fallback, which is built through
// evaluate_cell and therefore correct by construction.
const std::bitset<static_cast<std::size_t>(CellKind::kind_count)>&
verified_word_kinds() {
  static const auto verified = [] {
    constexpr auto kind_count = static_cast<std::size_t>(CellKind::kind_count);
    std::bitset<kind_count> ok;
    constexpr std::array<Logic, 3> codes{Logic::zero, Logic::one, Logic::x};
    for (std::size_t k = 0; k < kind_count; ++k) {
      const auto kind = static_cast<CellKind>(k);
      const CellInfo& info = circuit::cell_info(kind);
      if (info.sequential || !word_op_candidate(kind)) continue;
      const int n = info.input_count;
      int combos = 1;
      for (int p = 0; p < n; ++p) combos *= 3;
      bool good = true;
      for (int c = 0; c < combos && good; ++c) {
        std::array<Logic, SimGraph::kMaxLutInputs> pins{};
        std::array<LogicW, SimGraph::kMaxLutInputs> words{};
        int rest = c;
        for (int p = 0; p < n; ++p) {
          pins[static_cast<std::size_t>(p)] =
              codes[static_cast<std::size_t>(rest % 3)];
          rest /= 3;
        }
        // Lane pattern: lane L holds the combination rotated by L, so
        // neighbouring lanes carry different combinations.
        for (unsigned lane = 0; lane < kLaneCount; ++lane) {
          int rc = (c + static_cast<int>(lane)) % combos;
          for (int p = 0; p < n; ++p) {
            words[static_cast<std::size_t>(p)] =
                with_lane(words[static_cast<std::size_t>(p)], lane,
                          codes[static_cast<std::size_t>(rc % 3)]);
            rc /= 3;
          }
        }
        const LogicW got = word_evaluate_direct(kind, words.data());
        // Every lane must match its own scalar evaluation; lane `c`'s
        // rotation is 0, i.e. the combination under test.
        for (unsigned lane = 0; lane < kLaneCount && good; ++lane) {
          int rc = (c + static_cast<int>(lane)) % combos;
          std::array<Logic, SimGraph::kMaxLutInputs> lane_pins{};
          for (int p = 0; p < n; ++p) {
            lane_pins[static_cast<std::size_t>(p)] =
                codes[static_cast<std::size_t>(rc % 3)];
            rc /= 3;
          }
          const Logic lane_want = circuit::evaluate_cell(
              kind, {lane_pins.data(), static_cast<std::size_t>(n)});
          good = lane_of(got, lane) == lane_want;
        }
      }
      ok[k] = good;
    }
    return ok;
  }();
  return verified;
}

}  // namespace

SimGraph::SimGraph(const circuit::Netlist& netlist) : netlist_{netlist} {
  lv::obs::ScopedTimer compile_timer{t_graph_compile()};
  netlist.validate();
  net_count_ = netlist.net_count();
  const std::size_t inst_count = netlist.instance_count();

  luts_ = kind_luts();

  // Per-instance nodes + flat input-pin array.
  nodes_.resize(inst_count);
  word_ops_.assign(inst_count, kWordLut);
  std::size_t pin_total = 0;
  for (InstanceId i = 0; i < inst_count; ++i)
    pin_total += netlist.instance(i).inputs.size();
  input_nets_.reserve(pin_total);
  for (InstanceId i = 0; i < inst_count; ++i) {
    const auto& inst = netlist.instance(i);
    const CellInfo& info = circuit::cell_info(inst.kind);
    Node& node = nodes_[i];
    node.output = inst.output;
    node.in_begin = static_cast<std::uint32_t>(input_nets_.size());
    node.in_count = static_cast<std::uint8_t>(inst.inputs.size());
    node.kind = static_cast<std::uint8_t>(inst.kind);
    node.sequential = info.sequential ? 1 : 0;
    node.lut = (!info.sequential && info.input_count <= kMaxLutInputs)
                   ? static_cast<std::uint8_t>(inst.kind)
                   : kNoLut;
    // Word plan: direct bitwise evaluation for verified kinds, per-lane
    // LUT fallback otherwise; flops are not event-evaluated.
    if (info.sequential)
      word_ops_[i] = kWordSequential;
    else if (verified_word_kinds()[static_cast<std::size_t>(inst.kind)])
      word_ops_[i] = static_cast<std::uint8_t>(inst.kind);
    else
      word_ops_[i] = kWordLut;
    input_nets_.insert(input_nets_.end(), inst.inputs.begin(),
                       inst.inputs.end());
    max_input_count_ = std::max(max_input_count_, inst.inputs.size());
    if (info.sequential) sequential_.push_back(i);
    if (inst.kind == CellKind::tie0)
      tie_inits_.push_back({inst.output, Logic::zero});
    else if (inst.kind == CellKind::tie1)
      tie_inits_.push_back({inst.output, Logic::one});
  }

  // Event-propagation CSR: the netlist's full consumer CSR filtered down
  // to combinational consumers, preserving ascending-instance order (the
  // evaluation order the bit-exact statistics contract depends on).
  const auto& full_offsets = netlist.fanout_offsets();
  const auto& full_list = netlist.fanout_list();
  eval_offsets_.assign(net_count_ + 1, 0);
  eval_list_.reserve(full_list.size());
  for (NetId n = 0; n < net_count_; ++n) {
    for (std::uint32_t k = full_offsets[n]; k < full_offsets[n + 1]; ++k) {
      const InstanceId consumer = full_list[k];
      if (nodes_[consumer].sequential == 0) eval_list_.push_back(consumer);
    }
    eval_offsets_[n + 1] = static_cast<std::uint32_t>(eval_list_.size());
  }

  // Delays for all three models. The load model reproduces the historical
  // per-event formula exactly: 1 + floor(fanout_pins / (2 * drive_mult)),
  // with fanout_pins counting *all* consumer pins (sequential included).
  for (auto& d : delays_) d.assign(inst_count, 0);
  for (InstanceId i = 0; i < inst_count; ++i) {
    const auto& inst = netlist.instance(i);
    const CellInfo& info = circuit::cell_info(inst.kind);
    delays_[static_cast<std::size_t>(SimConfig::DelayModel::unit)][i] = 1;
    const double load = static_cast<double>(netlist.fanout_pins(inst.output));
    delays_[static_cast<std::size_t>(SimConfig::DelayModel::load)][i] =
        1 + static_cast<std::uint32_t>(load / (2.0 * info.drive_mult));
  }
  for (std::size_t m = 0; m < 3; ++m)
    for (InstanceId i = 0; i < inst_count; ++i)
      max_delay_[m] = std::max<std::uint64_t>(max_delay_[m], delays_[m][i]);

  net_is_input_.assign(net_count_, 0);
  for (const NetId n : netlist.primary_inputs()) net_is_input_[n] = 1;

  levelize();
}

void SimGraph::levelize() {
  // Kahn's algorithm over the eval CSR: an instance is placed once every
  // combinational driver of its input pins is placed, so the order runs
  // level by level from the primary inputs, flop outputs and ties.
  const std::size_t inst_count = nodes_.size();
  std::vector<std::uint32_t> waiting(inst_count, 0);
  const auto consumers = [&](InstanceId d, auto&& visit) {
    const NetId out = nodes_[d].output;
    for (std::uint32_t k = eval_offsets_[out]; k < eval_offsets_[out + 1]; ++k)
      visit(eval_list_[k]);
  };
  std::size_t comb_count = 0;
  for (InstanceId d = 0; d < inst_count; ++d) {
    if (nodes_[d].sequential != 0) continue;
    ++comb_count;
    consumers(d, [&](InstanceId c) { ++waiting[c]; });
  }
  comb_order_.clear();
  comb_order_.reserve(comb_count);
  for (InstanceId i = 0; i < inst_count; ++i)
    if (nodes_[i].sequential == 0 && waiting[i] == 0) comb_order_.push_back(i);
  for (std::size_t head = 0; head < comb_order_.size(); ++head)
    consumers(comb_order_[head], [&](InstanceId c) {
      if (--waiting[c] == 0 && nodes_[c].sequential == 0)
        comb_order_.push_back(c);
    });
  util::require(comb_order_.size() == comb_count,
                "SimGraph: combinational cycle");
}

}  // namespace lv::sim
