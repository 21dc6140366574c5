#include "paper.hpp"

#include <cmath>
#include <optional>

#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "common.hpp"
#include "core/activity.hpp"
#include "core/comparison.hpp"
#include "opt/dual_vt.hpp"
#include "opt/voltage_opt.hpp"
#include "profile/profiler.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/sim_graph.hpp"
#include "sim/stimulus.hpp"
#include "tech/process.hpp"
#include "timing/delay_model.hpp"
#include "workloads/idea.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

namespace c = lv::circuit;
namespace co = lv::core;
namespace p = lv::profile;

// X-server savings the paper reports for adder, shifter, multiplier.
constexpr double kPaperXServerSavings[3] = {43.0, 81.0, 97.0};

struct Module {
  const char* name;
  void (*build)(c::Netlist&);
};

// fig10's three modules; inputs are the ingested netlist's primary
// inputs, which list the generator's operand buses in port order.
const Module kModules[3] = {
    {"adder", [](c::Netlist& nl) { c::build_ripple_carry_adder(nl, 16); }},
    {"shifter", [](c::Netlist& nl) { c::build_barrel_shifter(nl, 16); }},
    {"multiplier", [](c::Netlist& nl) { c::build_array_multiplier(nl, 8); }},
};

std::uint64_t fold(std::uint64_t h, double v) { return fnv_value(h, v); }

struct Profiled {
  p::UnitProfile adder, shifter, multiplier;
};

Profiled profile_all(const PaperInputs& in, PaperOutcome& out) {
  Profiled espresso_units;
  for (const auto* w : {&in.espresso, &in.li, &in.idea}) {
    Tracer::Span span{"profile.run"};
    // Gap tolerance 4, as in fig10: a power-down controller with a few
    // cycles of hysteresis.
    p::ActivityProfiler profiler{p::UnitMap::standard(), 4};
    const auto run = lv::workloads::run_workload(*w, {&profiler});
    if (!run.verified) out.failed_checks.push_back(w->name + " output mismatch");
    out.instructions += run.instructions;
    for (const auto unit :
         {p::FunctionalUnit::alu_adder, p::FunctionalUnit::shifter,
          p::FunctionalUnit::multiplier}) {
      const auto prof = profiler.profile(unit);
      out.digest = fold(fold(out.digest, prof.fga), prof.bga);
    }
    if (w == &in.espresso) {
      espresso_units.adder = profiler.profile(p::FunctionalUnit::alu_adder);
      espresso_units.shifter = profiler.profile(p::FunctionalUnit::shifter);
      espresso_units.multiplier =
          profiler.profile(p::FunctionalUnit::multiplier);
    }
  }
  return espresso_units;
}

}  // namespace

PaperInputs paper_inputs(std::uint64_t seed) {
  PaperInputs in;
  in.espresso = lv::workloads::espresso_workload(96, derive_seed(seed, 1));
  in.li = lv::workloads::li_workload(128, derive_seed(seed, 2));
  in.idea = lv::workloads::idea_workload(
      32, {0x0001, 0x0002, 0x0003, 0x0004, 0x0005, 0x0006, 0x0007, 0x0008},
      derive_seed(seed, 3));
  in.vector_seed = derive_seed(seed, 4);
  return in;
}

PaperInputs reference_paper_inputs() {
  PaperInputs in;
  in.espresso = lv::workloads::espresso_workload(96);
  in.li = lv::workloads::li_workload();
  in.idea = lv::workloads::idea_workload();
  in.vector_seed = 0xa1fa;
  return in;
}

PaperOutcome run_paper_pass(const PaperInputs& in) {
  Tracer::Span pass{"paper.pass"};
  PaperOutcome out;
  out.digest = kFnvBasis;
  const Profiled units = profile_all(in, out);

  const auto soias = lv::tech::soias();
  const co::BurstOperatingPoint op{1.0, soias.backgate_swing, 50e6, 1.0};
  const auto dual_tech = lv::tech::dual_vt_mtcmos();

  std::vector<co::ModuleParams> mods;
  std::vector<double> alphas;
  for (const Module& m : kModules) {
    std::string text;
    {
      c::Netlist generated;
      {
        Tracer::Span span{"circuit.gen"};
        m.build(generated);
      }
      Tracer::Span span{"circuit.emit"};
      text = c::to_netlist_text(generated);
    }
    std::optional<c::Netlist> nl;
    {
      Tracer::Span span{"check.ingest"};
      lv::check::DiagSink sink;
      nl = lv::check::load_netlist_text(text, sink, std::string{m.name} + ".lvnet");
    }
    out.ingest_bytes += text.size();
    if (!nl) {
      out.failed_checks.push_back(std::string{m.name} + " failed to ingest");
      return out;
    }
    out.gates += nl->instance_count();

    std::shared_ptr<const lv::sim::SimGraph> graph;
    {
      Tracer::Span span{"sim.compile"};
      graph = lv::sim::SimGraph::compile(*nl);
    }
    out.compiles += 1;
    const c::Bus inputs = nl->primary_inputs();
    const auto vecs = lv::sim::random_vectors(
        in.vectors, static_cast<int>(inputs.size()), in.vector_seed);
    double alpha = 0.0;
    {
      Tracer::Span span{"sim.word.replay"};
      const auto t0 = Clock::now();
      lv::sim::BitParallelSimulator sim{graph};
      sim.set_bus_broadcast(inputs, 0);
      sim.settle();
      sim.clear_stats();
      lv::sim::run_two_operand_workload(
          sim, inputs, {}, vecs, std::vector<std::uint64_t>(vecs.size(), 0));
      alpha = lv::sim::mean_alpha(sim);
      out.vector_ms += ms_between(t0, Clock::now());
    }
    out.vectors += vecs.size();
    alphas.push_back(alpha);
    out.digest = fold(out.digest, alpha);

    {
      Tracer::Span span{"core.module_params"};
      mods.push_back(co::module_params_from_netlist(*nl, soias, op.vdd, m.name));
    }
    {
      Tracer::Span span{"opt.dual_vt"};
      const auto dv = lv::opt::assign_dual_vt(*nl, dual_tech, 1.0, 0.05);
      out.high_vt += dv.high_vt_count;
      out.digest = fold(fold(out.digest, dv.leakage_after), dv.delay_after);
    }
  }

  {
    // Fig. 4: the energy-optimal V_T at fixed throughput.
    Tracer::Span span{"opt.optimize_vt"};
    const lv::timing::RingOscillator ring{101};
    const auto vt = lv::opt::optimize_vt(lv::tech::soi_low_vt(), ring, 1.0e6,
                                         1.0, 0.05, 0.55, 26);
    out.vt_evals += static_cast<std::uint64_t>(vt.status.iterations);
    if (!vt.status.converged) out.failed_checks.push_back("optimize_vt did not converge");
    out.digest = fold(fold(out.digest, vt.optimum.vt), vt.optimum.total_energy);
  }

  co::RatioGrid grid;
  {
    Tracer::Span span{"core.grid"};
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    grid = co::energy_ratio_grid(mods[0], alphas[0], op, 1e-5, 1.0, 1e-5, 1.0, 41);
    out.grid_cpu_ms += process_cpu_ms() - cpu0;
    out.grid_wall_ms += ms_between(t0, Clock::now());
  }
  for (const auto& row : grid.log_ratio) {
    out.grid_points += row.size();
    for (const double v : row) out.digest = fold(out.digest, v);
  }
  int contour_cols = 0;
  for (const auto& be : grid.breakeven_bga()) contour_cols += be.has_value();

  std::vector<co::ApplicationPoint> pts;
  {
    Tracer::Span span{"core.points"};
    const p::UnitProfile* profs[3] = {&units.adder, &units.shifter,
                                      &units.multiplier};
    for (const double duty : {1.0, 0.02})
      for (std::size_t i = 0; i < 3; ++i) {
        const auto act = co::activity_from_profile(*profs[i], alphas[i], duty);
        pts.push_back(co::evaluate_application(kModules[i].name, mods[i], act, op));
      }
  }
  for (const auto& pt : pts)
    out.digest = fold(fold(out.digest, pt.log_ratio), pt.savings_percent);

  double err = 0.0;
  for (std::size_t i = 0; i < 3; ++i)
    err += std::abs(pts[3 + i].savings_percent - kPaperXServerSavings[i]);
  out.xserver_err_pp = err / 3.0;

  // fig10's six shape checks.
  const auto expect = [&out](bool ok, const char* what) {
    if (!ok) out.failed_checks.push_back(what);
  };
  expect(contour_cols > 10, "breakeven contour present across the plane");
  expect(std::abs(pts[0].savings_percent) < 35.0 &&
             std::abs(pts[1].savings_percent) < 35.0 &&
             std::abs(pts[2].savings_percent) < 35.0,
         "continuous operation: little advantage (|savings| < 35%)");
  expect(pts[3].log_ratio < 0.0 && pts[4].log_ratio < 0.0 &&
             pts[5].log_ratio < 0.0,
         "X-server points all favor SOIAS");
  expect(pts[5].savings_percent > pts[4].savings_percent &&
             pts[4].savings_percent > pts[3].savings_percent,
         "savings ordering multiplier > shifter > adder");
  expect(pts[3].savings_percent > 25.0 && pts[3].savings_percent < 65.0,
         "X-server adder savings in 25-65%");
  expect(pts[5].savings_percent > 85.0, "X-server multiplier savings > 85%");
  return out;
}

}  // namespace perfbench
