// The fifteen lvtool operations plus `version` and `cache`, ported
// verbatim from the monolithic tools/lvtool.cpp subcommands (`cache` is
// native to this layer). Format strings are unchanged:
// the golden CLI contract (tools/golden_cli.cmake against fixtures
// recorded from the pre-refactor binary) pins stdout byte-for-byte.
//
// What changed: file reads go through the session (content-hash cached,
// inline server payloads honored), file writes become Response::files,
// and printf targets the Response::out buffer.
#include "svc/handlers.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/analysis_context.hpp"
#include "check/codes.hpp"
#include "check/diag.hpp"
#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "circuit/transforms.hpp"
#include "obs/metrics.hpp"
#include "opt/dual_vt.hpp"
#include "opt/gate_sizing.hpp"
#include "opt/voltage_opt.hpp"
#include "power/estimator.hpp"
#include "power/glitch.hpp"
#include "profile/profiler.hpp"
#include "sim/activity_io.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/vcd.hpp"
#include "svc/protocol.hpp"
#include "tech/techfile.hpp"
#include "timing/path_enum.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/table.hpp"
#include "workloads/idea.hpp"
#include "workloads/kernels.hpp"

#ifndef LVSIM_VERSION_STR
#define LVSIM_VERSION_STR "0.0.0"
#endif
#ifndef LVSIM_BUILD_TYPE_STR
#define LVSIM_BUILD_TYPE_STR "unknown"
#endif
#ifndef LVSIM_SANITIZE_STR
#define LVSIM_SANITIZE_STR ""
#endif

namespace lv::svc {

namespace {

namespace c = lv::circuit;
namespace chk = lv::check;
namespace u = lv::util;

// ---- input resolution -------------------------------------------------

// A wrong positional-argument count is a usage error: exit 2, coded
// cli.option like every other bad option.
void require_args(const Params& args, std::size_t count, const char* usage) {
  if (args.positional.size() != count)
    throw chk::InputError(chk::codes::cli_option, usage);
}

// Inline payload (server mode) if the client shipped one under `role`,
// else the local file at `path` (CLI mode / server-local paths).
std::string source_text(const Request& req, const char* role,
                        const std::string& path) {
  if (const auto it = req.inputs.find(role); it != req.inputs.end())
    return it->second;
  return chk::read_file(path);  // throws InputError(io.open) -> exit 2
}

std::shared_ptr<const Session::Design> load_design(ServiceContext& ctx,
                                                   const Request& req,
                                                   const std::string& path) {
  return ctx.session.netlist(source_text(req, "netlist", path), path);
}

bool is_builtin_process(const std::string& name) {
  return name == "bulk_cmos_06um" || name == "soi_low_vt" ||
         name == "soias" || name == "dual_vt_mtcmos" ||
         name == "bulk_body_bias";
}

std::shared_ptr<const tech::Process> load_process(ServiceContext& ctx,
                                                  const Request& req,
                                                  const std::string& name) {
  if (req.inputs.count("tech") == 0 && is_builtin_process(name)) {
    if (name == "bulk_cmos_06um")
      return std::make_shared<const tech::Process>(tech::bulk_cmos_06um());
    if (name == "soi_low_vt")
      return std::make_shared<const tech::Process>(tech::soi_low_vt());
    if (name == "soias")
      return std::make_shared<const tech::Process>(tech::soias());
    if (name == "dual_vt_mtcmos")
      return std::make_shared<const tech::Process>(tech::dual_vt_mtcmos());
    if (name == "bulk_body_bias")
      return std::make_shared<const tech::Process>(tech::bulk_body_bias());
  }
  return ctx.session.tech(source_text(req, "tech", name), name);
}

// Identity of the process a memo bank belongs to: the tool version (the
// device models are code) plus either the builtin's name or the techfile
// bytes. Keys the session/store "memos" artifacts.
store::Key128 process_memo_key(const Request& req, const std::string& name) {
  store::FieldHasher h;
  h.field("lv-memos/1").field(LVSIM_VERSION_STR);
  if (req.inputs.count("tech") == 0 && is_builtin_process(name))
    h.field("builtin:" + name);
  else
    h.field(source_text(req, "tech", name));
  return h.digest();
}

// Random stimulus over all primary inputs; returns the simulator with
// accumulated statistics. Runs over the design's shared compiled graph,
// so a session's repeat simulations skip graph compilation.
lv::sim::Simulator simulate_random(const Session::Design& design,
                                   std::size_t vectors, std::uint64_t seed,
                                   lv::sim::VcdRecorder* vcd = nullptr) {
  const c::Netlist& nl = design.netlist();
  lv::sim::Simulator sim{design.graph()};
  const c::Bus inputs = nl.primary_inputs();
  u::require(!inputs.empty(), "netlist has no primary inputs");
  u::require(inputs.size() <= 64, "more than 64 primary inputs");
  sim.set_bus(inputs, 0);
  if (!nl.sequential_instances().empty())
    sim.reset_flops(c::Logic::zero);
  sim.settle();
  sim.clear_stats();
  const auto vecs = lv::sim::random_vectors(
      vectors, static_cast<int>(inputs.size()), seed);
  const bool clocked = !nl.sequential_instances().empty();
  for (const auto v : vecs) {
    sim.set_bus(inputs, v);
    if (clocked)
      sim.clock_cycle();
    else
      sim.settle();
    if (vcd != nullptr) vcd->sample();
  }
  return sim;
}

// ---- operations -------------------------------------------------------

Response op_gen(ServiceContext&, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "gen needs <kind> <width>");
  const std::string kind = args.positional[0];
  const int width =
      static_cast<int>(chk::require_int(args.positional[1], "<width>"));
  c::Netlist nl;
  if (kind == "rca") c::build_ripple_carry_adder(nl, width);
  else if (kind == "cla") c::build_carry_lookahead_adder(nl, width);
  else if (kind == "csel") c::build_carry_select_adder(nl, width);
  else if (kind == "ks") c::build_kogge_stone_adder(nl, width);
  else if (kind == "mul") c::build_array_multiplier(nl, width);
  else if (kind == "shifter") c::build_barrel_shifter(nl, width);
  else if (kind == "alu") c::build_alu(nl, width);
  else if (kind == "cskip") c::build_carry_skip_adder(nl, width);
  else if (kind == "wmul") c::build_wallace_multiplier(nl, width);
  else
    throw chk::InputError(chk::codes::cli_option,
                          "unknown generator '" + kind + "'");
  const std::string text = c::to_netlist_text(nl);
  if (const auto out = args.text("--out")) {
    r.files.push_back({*out, text});
    appendf(r.out, "wrote %zu gates to %s\n", nl.instance_count(),
            out->c_str());
  } else {
    r.out += text;
  }
  return r;
}

Response op_stats(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "stats needs <netlist>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  appendf(r.out,
          "gates: %zu   nets: %zu   inputs: %zu   outputs: %zu   "
          "flops: %zu\n",
          nl.instance_count(), nl.net_count(), nl.primary_inputs().size(),
          nl.primary_outputs().size(), nl.sequential_instances().size());
  int depth = 0;
  for (const int l : nl.levelize()) depth = std::max(depth, l);
  appendf(r.out, "logic depth: %d levels\n", depth);
  u::Table table{{"cell", "count"}};
  for (const auto& [kind, count] : nl.kind_histogram())
    table.add_row({kind, static_cast<long long>(count)});
  r.out += table.to_ascii();
  const auto modules = nl.modules();
  if (!modules.empty()) {
    r.out += "modules:";
    for (const auto& m : modules) appendf(r.out, " %s", m.c_str());
    r.out += "\n";
  }
  return r;
}

Response op_simulate(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "simulate needs <netlist>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto vectors = static_cast<std::size_t>(
      args.number("--vectors", 1000));
  const auto seed = static_cast<std::uint64_t>(args.number("--seed", 1));

  const auto kernel = args.text("--kernel").value_or("scalar");
  if (kernel != "scalar" && kernel != "word")
    throw chk::InputError(chk::codes::cli_option,
                          "--kernel must be 'scalar' or 'word', got '" +
                              kernel + "'");
  const lv::sim::ActivityStats stats = [&] {
    if (kernel == "word") {
      // Bit-parallel replay: 64 vectors per settle through the
      // lane-chunked workload runner, stats bit-identical to the scalar
      // replay (see sim/stimulus.cpp).
      u::require(nl.sequential_instances().empty(),
                 "simulate: --kernel word needs a combinational netlist");
      const c::Bus inputs = nl.primary_inputs();
      u::require(!inputs.empty(), "netlist has no primary inputs");
      u::require(inputs.size() <= 64, "more than 64 primary inputs");
      lv::sim::BitParallelSimulator sim{design->graph()};
      sim.set_bus_broadcast(inputs, 0);
      sim.settle();
      sim.clear_stats();
      const auto vecs = lv::sim::random_vectors(
          vectors, static_cast<int>(inputs.size()), seed);
      lv::sim::run_two_operand_workload(
          sim, inputs, {}, vecs,
          std::vector<std::uint64_t>(vecs.size(), 0));
      return sim.stats();
    }
    return simulate_random(*design, vectors, seed).stats();
  }();
  appendf(r.out,
          "simulated %llu cycles (%s kernel); total transitions %llu; "
          "mean alpha %.4f\n",
          static_cast<unsigned long long>(stats.cycles()), kernel.c_str(),
          static_cast<unsigned long long>(stats.total_transitions()),
          lv::sim::mean_alpha(nl, stats));
  if (const auto out = args.text("--activity-out")) {
    r.files.push_back({*out, lv::sim::to_activity_text(nl, stats)});
    appendf(r.out, "activity written to %s\n", out->c_str());
  }
  if (const auto out = args.text("--vcd-out")) {
    // Re-run (capped at 256 vectors) with a recorder sampling each cycle.
    lv::sim::Simulator rerun{design->graph()};
    lv::sim::VcdRecorder rec{rerun};
    const c::Bus inputs = nl.primary_inputs();
    rerun.set_bus(inputs, 0);
    if (!nl.sequential_instances().empty())
      rerun.reset_flops(c::Logic::zero);
    rerun.settle();
    for (const auto v : lv::sim::random_vectors(
             std::min<std::size_t>(vectors, 256),
             static_cast<int>(inputs.size()), seed)) {
      rerun.set_bus(inputs, v);
      if (!nl.sequential_instances().empty())
        rerun.clock_cycle();
      else
        rerun.settle();
      rec.sample();
    }
    r.files.push_back({*out, rec.render()});
    appendf(r.out, "vcd written to %s (%llu samples)\n", out->c_str(),
            static_cast<unsigned long long>(rec.samples()));
  }
  return r;
}

Response op_power(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "power needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  lv::power::OperatingPoint op;
  op.vdd = args.positive("--vdd", tech->vdd_nominal);
  op.f_clk = args.positive("--fclk", 50e6);
  // Evaluate through a context warm-started from the session's memo bank
  // (device-model tables are pure functions of process + operating
  // values, so imported entries are the exact bits a local recompute
  // would produce — the golden CLI fixtures pin this). What this run
  // adds flows back for the next request/restart.
  lv::analysis::AnalysisContext actx{nl, *tech, op};
  const store::Key128 memo_key = process_memo_key(req, args.positional[1]);
  actx.import_memos(ctx.session.memo_blob(memo_key));
  const lv::power::PowerEstimator est{actx};

  lv::power::PowerBreakdown br;
  if (const auto file = args.text("--activity")) {
    const auto stats = chk::require_activity(
        nl, source_text(req, "activity", *file), *file);
    br = est.estimate(stats);
  } else {
    br = est.estimate_uniform(args.number("--alpha", 0.25));
  }
  u::Table table{{"component", "power_W"}};
  table.set_double_format("%.4g");
  table.add_row({std::string{"switching"}, br.switching});
  table.add_row({std::string{"short_circuit"}, br.short_circuit});
  table.add_row({std::string{"leakage"}, br.leakage});
  table.add_row({std::string{"clock"}, br.clock});
  table.add_row({std::string{"total"}, br.total()});
  r.out += table.to_ascii();
  appendf(r.out, "energy/cycle: %.4g J at %.3g Hz\n",
          br.energy_per_cycle(op.f_clk), op.f_clk);
  ctx.session.merge_memo_blob(memo_key, actx.export_memos());
  return r;
}

Response op_timing(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "timing needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  const double vdd = args.positive("--vdd", tech->vdd_nominal);
  // Same operating point the classic (netlist, process, vdd) constructor
  // builds, warm-started from the session memo bank (see op_power).
  lv::analysis::AnalysisContext actx{nl, *tech,
                                     lv::analysis::OperatingPoint{.vdd = vdd}};
  const store::Key128 memo_key = process_memo_key(req, args.positional[1]);
  actx.import_memos(ctx.session.memo_blob(memo_key));
  const lv::timing::Sta sta{actx};
  const auto res = sta.run(1.0);
  appendf(r.out,
          "critical delay: %.4g s (max clock %.4g Hz) at VDD = %.2f V\n",
          res.critical_delay, 1.0 / res.critical_delay, vdd);
  appendf(r.out, "critical path (%zu gates):", res.critical_path.size());
  for (const auto i : res.critical_path)
    appendf(r.out, " %s", nl.instance(i).name.c_str());
  r.out += "\n";
  ctx.session.merge_memo_blob(memo_key, actx.export_memos());
  return r;
}

Response op_dualvt(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "dualvt needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  const double vdd = args.positive("--vdd", tech->vdd_nominal);
  const double margin = args.number("--margin", 0.05);
  const auto res = lv::opt::assign_dual_vt(nl, *tech, vdd, margin);
  appendf(r.out, "%zu of %zu gates moved to high VT\n", res.high_vt_count,
          nl.instance_count());
  appendf(r.out, "delay:   %.4g s -> %.4g s (period budget %.4g s)\n",
          res.delay_before, res.delay_after, res.clock_period);
  appendf(r.out, "leakage: %.4g A -> %.4g A (%.1fx reduction)\n",
          res.leakage_before, res.leakage_after,
          res.leakage_before / res.leakage_after);
  return r;
}

Response op_optimize_vt(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "optimize-vt needs <tech>");
  const auto tech = load_process(ctx, req, args.positional[0]);
  const double f_clk = args.positive("--fclk", 5e6);
  const double activity = args.number("--activity", 1.0);
  const lv::timing::RingOscillator ring{101};
  const auto res =
      lv::opt::optimize_vt(*tech, ring, f_clk, activity, 0.05, 0.55, 26);
  if (!res.status.converged) {
    appendf(r.out, "did not converge after %d evaluations: %s\n",
            res.status.iterations, res.status.reason.c_str());
    r.exit_code = 1;
    return r;
  }
  appendf(r.out,
          "optimum at %.3g Hz, activity %.2f: VT = %.3f V, "
          "VDD = %.3f V, E = %.4g J/cycle (switching %.4g, leakage "
          "%.4g)\n",
          f_clk, activity, res.optimum.vt, res.optimum.vdd,
          res.optimum.total_energy, res.optimum.switching_energy,
          res.optimum.leakage_energy);
  return r;
}

Response op_profile(ServiceContext&, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "profile needs <workload>");
  const std::string name = args.positional[0];
  const auto gap = static_cast<std::uint64_t>(args.number("--gap", 0));
  const int blocks = static_cast<int>(args.number("--blocks", 16));
  lv::workloads::Workload workload;
  if (name == "espresso") workload = lv::workloads::espresso_workload();
  else if (name == "li") workload = lv::workloads::li_workload();
  else if (name == "idea") workload = lv::workloads::idea_workload(blocks);
  else if (name == "fir") workload = lv::workloads::fir_workload();
  else if (name == "crc32") workload = lv::workloads::crc32_workload();
  else if (name == "sort") workload = lv::workloads::sort_workload();
  else if (name == "matmul") workload = lv::workloads::matmul_workload();
  else if (name == "strsearch") workload = lv::workloads::strsearch_workload();
  else
    throw chk::InputError(chk::codes::cli_option,
                          "unknown workload '" + name + "'");

  lv::profile::ActivityProfiler profiler{lv::profile::UnitMap::standard(),
                                         gap};
  const auto result = lv::workloads::run_workload(workload, {&profiler});
  appendf(r.out, "workload %s: %llu instructions, output %s\n",
          workload.name.c_str(),
          static_cast<unsigned long long>(result.instructions),
          result.verified ? "verified" : "MISMATCH");
  r.out += profiler.report().to_ascii();
  return r;
}

Response op_techfile(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "techfile needs <tech>");
  r.out += lv::tech::to_techfile(*load_process(ctx, req, args.positional[0]));
  return r;
}

Response op_glitch(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "glitch needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  const auto vectors =
      static_cast<std::size_t>(args.number("--vectors", 2000));
  const auto sim = simulate_random(
      *design, vectors, static_cast<std::uint64_t>(args.number("--seed", 1)));
  lv::power::OperatingPoint op;
  op.vdd = args.positive("--vdd", tech->vdd_nominal);
  const auto report =
      lv::power::analyze_glitch_power(nl, *tech, op, sim.stats());
  appendf(r.out, "functional power: %.4g W\n", report.functional_power);
  appendf(r.out, "glitch power:     %.4g W (%.1f%% of switching)\n",
          report.glitch_power, report.glitch_fraction * 100.0);
  appendf(r.out, "worst net: %s (%.1f%% of all glitching)\n",
          report.worst_net.c_str(), report.worst_net_share * 100.0);
  for (const auto& [mod, frac] : report.module_glitch_fraction)
    appendf(r.out, "  module '%s': %.1f%% glitch\n",
            mod.empty() ? "<top>" : mod.c_str(), frac * 100.0);
  return r;
}

Response op_faults(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "faults needs <netlist>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto vectors =
      static_cast<std::size_t>(args.number("--vectors", 256));
  const auto vecs = lv::sim::random_vectors(
      vectors, static_cast<int>(nl.primary_inputs().size()),
      static_cast<std::uint64_t>(args.number("--seed", 1)));
  const auto kernel_name = args.text("--kernel").value_or("word");
  if (kernel_name != "scalar" && kernel_name != "word")
    throw chk::InputError(chk::codes::cli_option,
                          "--kernel must be 'scalar' or 'word', got '" +
                              kernel_name + "'");
  const auto result = lv::sim::fault_coverage(
      nl, vecs,
      kernel_name == "word" ? lv::sim::FaultKernel::word
                            : lv::sim::FaultKernel::scalar);
  appendf(r.out,
          "stuck-at faults: %zu; detected %zu; coverage %.2f%% "
          "(%s kernel)\n",
          result.total_faults, result.detected, result.coverage * 100.0,
          kernel_name.c_str());
  if (result.detected > 0) {
    // First-detection profile: how quickly the vector set earns its
    // coverage (cumulative detections over result.first_detections).
    std::size_t cum = 0, v50 = 0, v90 = 0, last = 0;
    for (std::size_t i = 0; i < result.first_detections.size(); ++i) {
      const auto d = result.first_detections[i];
      if (d == 0) continue;
      if (cum * 2 < result.detected && (cum + d) * 2 >= result.detected)
        v50 = i;
      if (cum * 10 < result.detected * 9 &&
          (cum + d) * 10 >= result.detected * 9)
        v90 = i;
      cum += d;
      last = i;
    }
    appendf(r.out,
            "first-detection profile: 50%% of detected faults by "
            "vector %zu, 90%% by %zu, last new detection at %zu\n",
            v50, v90, last);
  }
  std::size_t shown = 0;
  for (const auto& f : result.undetected) {
    if (shown++ >= 10) {
      appendf(r.out, "  ... %zu more\n", result.undetected.size() - 10);
      break;
    }
    appendf(r.out, "  undetected: %s stuck-at-%c\n",
            nl.net(f.net).name.c_str(), lv::circuit::to_char(f.stuck_at));
  }
  return r;
}

Response op_paths(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "paths needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  const double vdd = args.positive("--vdd", tech->vdd_nominal);
  const int k = static_cast<int>(args.number("--k", 5));
  const auto sta = lv::timing::Sta{nl, *tech, vdd}.run(1.0);
  const auto paths = lv::timing::enumerate_critical_paths(nl, sta, k);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    appendf(r.out, "#%zu  %.4g s  (%zu gates):", i + 1, paths[i].arrival,
            paths[i].instances.size());
    for (const auto inst : paths[i].instances)
      appendf(r.out, " %s", nl.instance(inst).name.c_str());
    r.out += "\n";
  }
  appendf(r.out, "arrival imbalance (glitch proxy): %.4g s total\n",
          lv::timing::total_arrival_imbalance(nl, sta));
  return r;
}

Response op_sizing(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 2, "sizing needs <netlist> <tech>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  const auto tech = load_process(ctx, req, args.positional[1]);
  const auto res = lv::opt::downsize_gates(
      nl, *tech, args.positive("--vdd", tech->vdd_nominal),
      args.number("--margin", 0.05), args.number("--min-size", 0.5));
  appendf(r.out, "%zu of %zu gates downsized\n", res.downsized,
          nl.instance_count());
  appendf(r.out, "cap:     %.4g F -> %.4g F (-%.1f%%)\n", res.cap_before,
          res.cap_after, 100.0 * (1.0 - res.cap_after / res.cap_before));
  appendf(r.out, "leakage: %.4g A -> %.4g A (-%.1f%%)\n", res.leakage_before,
          res.leakage_after,
          100.0 * (1.0 - res.leakage_after / res.leakage_before));
  appendf(r.out, "delay:   %.4g s -> %.4g s (budget %.4g s)\n",
          res.delay_before, res.delay_after, res.clock_period);
  return r;
}

Response op_optimize(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "optimize needs <netlist>");
  const auto design = load_design(ctx, req, args.positional[0]);
  const c::Netlist& nl = design->netlist();
  c::TransformStats stats;
  const auto opt = c::optimize_netlist(nl, &stats);
  appendf(r.out,
          "%zu -> %zu gates (%zu constants folded, %zu dead removed)\n",
          stats.gates_before, stats.gates_after, stats.constants_folded,
          stats.dead_removed);
  if (const auto out = args.text("--out"))
    r.files.push_back({*out, c::to_netlist_text(opt)});
  return r;
}

// check <file> [--kind netlist|tech|activity] [--netlist <file>]
//              [--strict] [--diag-json <file>]
//
// Parses and deep-validates one input file, reporting *every* finding
// (parsers stop at the first error; the validators do not). Exit 0 when
// acceptable, 2 when not; --strict also fails on warnings. --diag-json
// writes the lv-diag/1 report (schema in docs/FORMATS.md).
Response op_check(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "check needs <file>");
  const std::string& path = args.positional[0];
  const std::string text = source_text(req, "file", path);

  // Kind: explicit --kind wins; otherwise the version header (the first
  // word of the first non-comment line) decides.
  std::string kind = args.text("--kind").value_or("");
  if (kind.empty()) {
    std::istringstream lines{text};
    std::string first_word;
    for (std::string line; std::getline(lines, line);) {
      const auto h = line.find('#');
      if (h != std::string::npos) line.resize(h);
      std::istringstream words{line};
      if (words >> first_word) break;
    }
    if (first_word == "lvnet") kind = "netlist";
    else if (first_word == "lvtech") kind = "tech";
    else if (first_word == "lvact") kind = "activity";
    else
      throw chk::InputError(
          chk::codes::cli_option,
          "cannot tell what '" + path +
              "' is (no lvnet/lvtech/lvact header); pass --kind");
  }

  chk::DiagSink sink;
  if (kind == "netlist") {
    chk::load_netlist_text(text, sink, path);
  } else if (kind == "tech") {
    chk::load_techfile_text(text, sink, path);
  } else if (kind == "activity") {
    const auto nl_path = args.text("--netlist");
    if (!nl_path)
      throw chk::InputError(chk::codes::cli_option,
                            "check --kind activity needs --netlist <file>");
    const auto design = load_design(ctx, req, *nl_path);
    chk::load_activity_text(design->netlist(), text, sink, path);
  } else {
    throw chk::InputError(chk::codes::cli_option,
                          "unknown --kind '" + kind +
                              "' (netlist|tech|activity)");
  }

  if (const auto out = args.text("--diag-json"))
    r.files.push_back({*out, sink.to_json()});
  r.out += sink.to_text();
  const bool strict = args.flag("--strict");
  const bool fail = !sink.ok() || (strict && sink.warning_count() > 0);
  appendf(r.out, "%s: %zu error(s), %zu warning(s)%s\n", path.c_str(),
          sink.error_count(), sink.warning_count(), fail ? "" : " — OK");
  r.diag_json = sink.to_json();
  r.exit_code = fail ? 2 : 0;
  return r;
}

Response op_version(ServiceContext&, const Request&) {
  Response r;
  r.out = version_text();
  return r;
}

// failpoints — lists every fault-injection site compiled into this
// binary, one per line (sorted). Armed sites append their configured
// action and hit count. tools/chaos_soak.py --list-sites diffs this
// against its expected registry, so renaming a site is a contract
// change (docs/RESILIENCE.md).
Response op_failpoints(ServiceContext&, const Request&) {
  Response r;
  for (const std::string& name : lv::failpoint::site_names()) {
    r.out += name;
    if (const auto* site = lv::failpoint::find_site(name)) {
      const auto action = site->configured_action();
      if (action != lv::failpoint::Action::none) {
        r.out += "  [armed: ";
        r.out += lv::failpoint::to_string(action);
        r.out += " evals=" + std::to_string(site->evals());
        r.out += " hits=" + std::to_string(site->hits());
        r.out += "]";
      }
    }
    r.out += "\n";
  }
  return r;
}

// cache stats|clear — maintenance for the cross-session artifact store
// (configured with --cache-dir; see docs/FORMATS.md for the on-disk
// layout). `stats` also reports this session's in-memory cache.
Response op_cache(ServiceContext& ctx, const Request& req) {
  const Params& args = req.params;
  Response r;
  require_args(args, 1, "cache needs stats|clear");
  const std::string& sub = args.positional[0];
  lv::store::ArtifactStore* store = ctx.session.store();
  if (sub == "stats") {
    if (store == nullptr) {
      r.out += "artifact store: disabled (no cache dir)\n";
    } else {
      const auto s = store->stats();
      appendf(r.out, "artifact store: %s\n", store->dir().string().c_str());
      appendf(r.out, "entries: %llu   bytes: %llu   budget: %llu\n",
              static_cast<unsigned long long>(s.entries),
              static_cast<unsigned long long>(s.bytes),
              static_cast<unsigned long long>(store->max_bytes()));
      for (const auto& [kind, count] : s.entries_by_kind)
        appendf(r.out, "  %s: %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
    }
    appendf(r.out,
            "session cache: %zu designs, %zu processes, %llu bytes "
            "(budget %llu)\n",
            ctx.session.cached_designs(), ctx.session.cached_processes(),
            static_cast<unsigned long long>(ctx.session.cached_bytes()),
            static_cast<unsigned long long>(ctx.session.max_cache_bytes()));
  } else if (sub == "clear") {
    if (store == nullptr) {
      r.out += "artifact store: disabled (no cache dir)\n";
    } else {
      appendf(r.out, "removed %llu entries from %s\n",
              static_cast<unsigned long long>(store->clear()),
              store->dir().string().c_str());
    }
  } else {
    throw chk::InputError(chk::codes::cli_option,
                          "cache: unknown subcommand '" + sub +
                              "' (stats|clear)");
  }
  return r;
}

}  // namespace

std::string version_text() {
  std::string s;
  appendf(s, "lvtool %s\n", LVSIM_VERSION_STR);
  appendf(s,
          "protocol: lvrpc/%u (frame magic LVF1, header %zu B, default "
          "max payload %u B)\n",
          kProtocolVersion, kHeaderSize, kDefaultMaxPayload);
  s += "kernels: scalar word (64 lanes/word)\n";
  const char* sanitize = LVSIM_SANITIZE_STR;
  appendf(s, "build: type=%s compiler=\"%s\" sanitize=%s\n",
          LVSIM_BUILD_TYPE_STR, __VERSION__,
          sanitize[0] == '\0' ? "none" : sanitize);
  return s;
}

const std::vector<OpSpec>& registry() {
  static const std::vector<OpSpec> ops = {
      {"check", op_check, {{"file", 0, nullptr}, {"netlist", -1, "--netlist"}}},
      {"gen", op_gen, {}},
      {"stats", op_stats, {{"netlist", 0, nullptr}}},
      {"simulate", op_simulate, {{"netlist", 0, nullptr}}},
      {"power",
       op_power,
       {{"netlist", 0, nullptr},
        {"tech", 1, nullptr},
        {"activity", -1, "--activity"}}},
      {"timing", op_timing, {{"netlist", 0, nullptr}, {"tech", 1, nullptr}}},
      {"dualvt", op_dualvt, {{"netlist", 0, nullptr}, {"tech", 1, nullptr}}},
      {"optimize-vt", op_optimize_vt, {{"tech", 0, nullptr}}},
      {"profile", op_profile, {}},
      {"techfile", op_techfile, {{"tech", 0, nullptr}}},
      {"glitch", op_glitch, {{"netlist", 0, nullptr}, {"tech", 1, nullptr}}},
      {"faults", op_faults, {{"netlist", 0, nullptr}}},
      {"paths", op_paths, {{"netlist", 0, nullptr}, {"tech", 1, nullptr}}},
      {"sizing", op_sizing, {{"netlist", 0, nullptr}, {"tech", 1, nullptr}}},
      {"optimize", op_optimize, {{"netlist", 0, nullptr}}},
      {"version", op_version, {}},
      {"cache", op_cache, {}},
      {"failpoints", op_failpoints, {}},
  };
  return ops;
}

const OpSpec* find_op(std::string_view name) {
  for (const auto& op : registry())
    if (name == op.name) return &op;
  return nullptr;
}

}  // namespace lv::svc
