// One pass of the paper's methodology (DAC'96, Fig. 10): ISA profile ->
// fga/bga, generated module netlists ingested as .lvnet text, alpha
// from simulation, Fig. 4 V_T optimum, dual-V_T assignment, the
// E_SOIAS/E_SOI grid and the six application points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace perfbench {

struct PaperInputs {
  lv::workloads::Workload espresso;
  lv::workloads::Workload li;
  lv::workloads::Workload idea;
  std::uint64_t vector_seed = 0;
  std::size_t vectors = 2000;
};

// Inputs drawn from the run seed: workload data and stimulus vary.
PaperInputs paper_inputs(std::uint64_t seed);
// The inputs bench/fig10 uses, so xserver_err_pp is the figure's own.
PaperInputs reference_paper_inputs();

struct PaperOutcome {
  std::uint64_t digest = 0;  // every numeric result of the pass
  double xserver_err_pp = 0.0;
  std::vector<std::string> failed_checks;
  // Work done, as counts.
  std::uint64_t instructions = 0;
  std::uint64_t gates = 0;
  std::uint64_t ingest_bytes = 0;
  std::uint64_t compiles = 0;
  std::uint64_t vectors = 0;
  std::uint64_t high_vt = 0;
  std::uint64_t vt_evals = 0;
  std::uint64_t grid_points = 0;
  // Host time of the activity extraction and of the parallel grid.
  double vector_ms = 0.0;
  double grid_wall_ms = 0.0;
  double grid_cpu_ms = 0.0;
};

// Spans (when tracing is on): paper.pass > profile.run, circuit.gen,
// circuit.emit, check.ingest, sim.compile, sim.word.replay,
// core.module_params, opt.optimize_vt, opt.dual_vt, core.grid,
// core.points.
PaperOutcome run_paper_pass(const PaperInputs& inputs);

}  // namespace perfbench
