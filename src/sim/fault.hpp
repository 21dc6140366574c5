// Stuck-at fault injection and fault simulation.
//
// Failure-injection support for the logic simulator: a FaultySimulator
// forces one net to a constant (stuck-at-0/1) regardless of its driver,
// and `fault_coverage` grades a vector set against the collapsed fault
// list. Used to grade the stimulus generators (random vs counting
// coverage) and as a harness robustness check: power/timing analyses
// must keep working on faulty netlists (a bug in a generator shows up
// here first).
//
// Two kernels produce bit-identical results:
//
//   * FaultKernel::scalar — the event-driven reference: one
//     FaultySimulator per fault, replayed glitch by glitch over the whole
//     vector set (settle, then re-force the stuck net and re-propagate).
//   * FaultKernel::word (default) — settled-state grading: a batch holds
//     the good machine in lane 0 and up to 63 distinct fault machines in
//     lanes 1-63 of one 64-lane BitParallelSimulator. Per vector it
//     drives the inputs and makes one levelized pass over
//     SimGraph::comb_order() with the batch's stuck lanes pinned
//     (BitParallelSimulator::seat(stuck)), so one pass grades 63 faults.
//     Detection is a word-level compare at the primary outputs: a fault
//     lane detects when any output bit is X or differs from the lane-0
//     value.
//
// Why the word verdicts are exact. fault_coverage accepts combinational
// netlists only. After the scalar kernel's settle-and-re-force, every
// net except the fault net holds its cell function of its inputs (an
// event-driven settle reaches quiescence; nets never evaluated hold X,
// and every cell maps all-X inputs to X), and the fault net holds its
// stuck value. In an acyclic graph that fixed point is unique: fixing
// the nets level by level from the inputs leaves one choice per net. The
// pinned pass computes exactly that fixed point for each lane, with the
// same verified word operators and per-lane LUT fallback the event
// kernel uses, so each lane's outputs equal the scalar fault machine's.
// Glitches on the way there never change a settled verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace lv::sim {

struct Fault {
  circuit::NetId net = 0;
  circuit::Logic stuck_at = circuit::Logic::zero;  // zero or one
};

// Simulator wrapper holding one injected fault. The faulty net reports
// the stuck value; fanout sees it; statistics still accumulate normally.
class FaultySimulator {
 public:
  FaultySimulator(const circuit::Netlist& netlist, Fault fault,
                  SimConfig config = {});
  // Shares a pre-compiled SimGraph — the fault campaign compiles the
  // netlist once and runs every fault machine against the same graph
  // instead of re-validating and re-lowering per fault.
  FaultySimulator(std::shared_ptr<const SimGraph> graph, Fault fault,
                  SimConfig config = {});

  void set_input(circuit::NetId net, circuit::Logic value);
  void set_bus(const circuit::Bus& bus, std::uint64_t value);
  void settle();
  circuit::Logic value(circuit::NetId net) const;
  bool read_bus(const circuit::Bus& bus, std::uint64_t& out) const;

  const Fault& fault() const { return fault_; }

 private:
  void reassert_fault();

  Simulator sim_;
  Fault fault_;
};

// All stuck-at faults on gate-driven nets (two per net), excluding
// primary inputs and the clock.
std::vector<Fault> enumerate_faults(const circuit::Netlist& netlist);

enum class FaultKernel {
  scalar,  // one fault machine per replay (serial fault simulation)
  word,    // 63 fault machines + good machine per 64-lane replay
};

struct CoverageResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  double coverage = 0.0;  // detected / total
  std::vector<Fault> undetected;
  // first_detections[i] = number of faults whose *first* detection was
  // vectors[i] (each fault attributed once, to the earliest detecting
  // vector; the sum equals `detected`). The marginal-coverage profile of
  // a vector set: a long zero tail means the extra vectors bought
  // nothing.
  std::vector<std::uint64_t> first_detections;
};

// Fault simulation of combinational netlists: applies each input vector
// to the good and faulty machines and flags a detection when any primary
// output differs (or reads X on the faulty machine). `vectors` drive all
// primary inputs as one packed bus (LSB = first declared input). Both
// kernels return bit-identical results at any thread count.
CoverageResult fault_coverage(const circuit::Netlist& netlist,
                              const std::vector<std::uint64_t>& vectors,
                              FaultKernel kernel = FaultKernel::word);

}  // namespace lv::sim
