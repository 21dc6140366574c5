// paper_flow: the paper's methodology as one pass, repeated. No caches
// and little glitching, so the costs outside sim show: ISA profiling,
// netlist ingest, the optimizers and the core grid. svc and store
// changes must show no change here.
#include "obs/metrics.hpp"
#include "paper.hpp"
#include "workloads.hpp"

namespace perfbench {

double reference_xserver_err_pp() {
  return run_paper_pass(reference_paper_inputs()).xserver_err_pp;
}

namespace {

struct Region {
  OpLog ops;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> failed_checks;
  std::vector<double> plain_ms, traced_ms;  // successful passes, by tracing
  PaperOutcome traced;  // summed work and host time of the traced passes
};

// Passes until `seconds` have passed (at least one). With `alternate`,
// every other pass runs traced, so traced and untraced passes interleave
// and drift in the host's speed falls on both alike. A pass fails when a
// shape check fails or its digest differs from `expected`.
Region timed(const PaperInputs& in, std::uint64_t expected, double seconds,
             bool alternate) {
  Region r;
  const auto start = Clock::now();
  const double cpu0 = process_cpu_ms();
  std::size_t pass = 0;
  do {
    const bool traced = alternate && pass++ % 2 == 1;
    if (alternate) set_tracing(traced);
    const auto t0 = Clock::now();
    const PaperOutcome o = run_paper_pass(in);
    const double ms = ms_between(t0, Clock::now());
    const bool ok = o.failed_checks.empty() && o.digest == expected;
    r.ops.add(ms, ok);
    if (ok) (traced ? r.traced_ms : r.plain_ms).push_back(ms);
    r.ops.vectors += static_cast<double>(o.vectors);
    r.ops.vector_ms += o.vector_ms;
    r.digests.push_back(o.digest);
    r.failed_checks.insert(r.failed_checks.end(), o.failed_checks.begin(),
                           o.failed_checks.end());
    if (traced) {
      r.traced.instructions += o.instructions;
      r.traced.ingest_bytes += o.ingest_bytes;
      r.traced.grid_wall_ms += o.grid_wall_ms;
      r.traced.grid_cpu_ms += o.grid_cpu_ms;
    }
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  if (alternate) set_tracing(false);
  r.wall_s = ms_between(start, Clock::now()) / 1e3;
  r.cpu_ms = process_cpu_ms() - cpu0;
  return r;
}

}  // namespace

Result run_paper_flow(const Options& opt) {
  Result result;
  EndToEnd e2e;
  // Set-up: the seeded inputs plus one untimed pass, which starts the
  // exec pool and fixes the digest every timed pass must reproduce.
  PaperInputs in;
  PaperOutcome first;
  do {
    in = PaperInputs{};
    const auto t0 = Clock::now();
    in = paper_inputs(opt.seed);
    first = run_paper_pass(in);
    e2e.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  } while (set_up_again(e2e.setup_s));
  for (const auto& what : first.failed_checks)
    result.check(false, "set-up pass: " + what);
  e2e.xserver_err_pp = reference_xserver_err_pp();
  std::printf("# paper_flow: X-server error %.4f pp over fig10's inputs\n",
              e2e.xserver_err_pp);

  Region r;
  if (!opt.trace) {
    r = timed(in, first.digest, opt.seconds, false);
    e2e.wall_s = r.wall_s;
    e2e.cpu_ms = r.cpu_ms;
    e2e.rss_mb = peak_rss_mb();
  } else {
    // Work sample: one pass with lv::obs on gives the counts.
    lv::obs::Registry::global().reset();
    set_tracing(true);
    const PaperOutcome sample = run_paper_pass(in);
    set_tracing(false);
    Layers layers;
    layers.set("profile.instructions", static_cast<double>(sample.instructions));
    layers.set("circuit.gates", static_cast<double>(sample.gates));
    layers.set("sim.compiles", static_cast<double>(sample.compiles));
    layers.set("opt.optimize_vt_evals", static_cast<double>(sample.vt_evals));
    layers.set("opt.dual_vt_high_vt", static_cast<double>(sample.high_vt));
    layers.set("core.grid_points", static_cast<double>(sample.grid_points));
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    layers.set("sim.transitions", count(obs_counter("sim.transitions") +
                                           obs_counter("sim.word_transitions")));
    const double word_events = static_cast<double>(obs_counter("sim.word_events_processed"));
    layers.set("sim.events", count(obs_counter("sim.events_processed") +
                                      obs_counter("sim.word_events_processed")));
    layers.set("sim.settle_calls", count(obs_counter("sim.settle_calls") +
                                            obs_counter("sim.word_settle_calls")));
    const double transitions = static_cast<double>(obs_counter("sim.word_transitions"));
    const double settled = static_cast<double>(obs_counter("sim.word_settled_changes"));
    layers.set("sim.glitch_share", transitions > 0 ? (transitions - settled) / transitions : 0.0);
    layers.set("sim.incremental_recompiles",
               count(obs_counter("sim.incremental_recompiles")));
    layers.set("exec.chunks_claimed", count(obs_counter("exec.pool.chunks_claimed")));
    const auto agg_sample = Tracer::global().aggregate();
    const double word_ms_sample = agg_sample.count("sim.word.replay")
                                      ? agg_sample.at("sim.word.replay").total_ms
                                      : 0.0;
    layers.set("sim.word.ns_per_event", word_events > 0 ? word_ms_sample * 1e6 / word_events : 0.0);

    r = timed(in, first.digest, opt.seconds, true);
    const auto agg = Tracer::global().aggregate();
    const auto mean_ms = [&agg](const char* name) {
      const auto it = agg.find(name);
      return it == agg.end() || it->second.calls == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.calls);
    };
    const auto total_ms = [&agg](const char* name) {
      const auto it = agg.find(name);
      return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    const std::uint64_t instructions = sample.instructions + r.traced.instructions;
    const std::uint64_t bytes = sample.ingest_bytes + r.traced.ingest_bytes;
    const double grid_wall = sample.grid_wall_ms + r.traced.grid_wall_ms;
    const double grid_cpu = sample.grid_cpu_ms + r.traced.grid_cpu_ms;
    layers.set("profile.run_ms", mean_ms("profile.run"));
    layers.set("profile.ns_per_instr",
               instructions > 0 ? total_ms("profile.run") * 1e6 / static_cast<double>(instructions) : 0.0);
    layers.set("circuit.gen_ms", mean_ms("circuit.gen"));
    layers.set("circuit.emit_ms", mean_ms("circuit.emit"));
    layers.set("check.ingest_ms", mean_ms("check.ingest"));
    layers.set("check.ingest_mb_per_s",
               total_ms("check.ingest") > 0
                   ? static_cast<double>(bytes) / 1e6 / (total_ms("check.ingest") / 1e3)
                   : 0.0);
    layers.set("sim.compile_ms", mean_ms("sim.compile"));
    layers.set("sim.word.replay_ms", mean_ms("sim.word.replay"));
    layers.set("exec.width", static_cast<double>(opt.width));
    layers.set("exec.cpu_util",
               grid_wall > 0 ? grid_cpu / (grid_wall * static_cast<double>(opt.width)) : 0.0);
    layers.set("opt.optimize_vt_ms", mean_ms("opt.optimize_vt"));
    layers.set("opt.dual_vt_ms", mean_ms("opt.dual_vt"));
    layers.set("core.module_params_ms", mean_ms("core.module_params"));
    layers.set("core.grid_ms", mean_ms("core.grid"));
    const double p50_plain = percentile(r.plain_ms, 50);
    layers.set("obs.overhead_pct",
               p50_plain > 0 ? (percentile(r.traced_ms, 50) / p50_plain - 1.0) * 100.0 : 0.0);
    layers.put_all(result);
    result.check(sample.digest == first.digest, "work-sample pass digest differs");
  }

  e2e.ops = r.ops;
  if (!opt.trace) put_end_to_end(result, e2e);
  // Every pass must pass fig10's shape checks and reproduce the set-up
  // pass's digest.
  for (const auto& what : r.failed_checks) result.check(false, what);
  std::size_t mismatched = 0;
  for (const auto d : r.digests) mismatched += d != first.digest;
  result.check(mismatched == 0,
               std::to_string(mismatched) + " pass(es) changed the result digest");
  result.attempted = e2e.ops.attempted();
  result.failed = e2e.ops.failed;
  return result;
}

}  // namespace perfbench
