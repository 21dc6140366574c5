// glitch_sim: activity extraction and stuck-at campaigns on glitch-heavy
// multipliers. Mean alpha is 2.6-12.8 on these designs, the word kernel
// loses to the scalar one, and per-fault cost is skewed, so kernel,
// event-queue, delay-model and exec-scheduling changes show here.
#include <map>
#include <memory>

#include "circuit/generators.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/sim_graph.hpp"
#include "sim/stimulus.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace c = lv::circuit;

// Glitch counts per vector are heavy-tailed (256 random vectors on
// mul12 give 4.6M-6.8M transitions), so each design has kVectorSets
// seeded activity sets, round r uses set r % kVectorSets, and a run of a
// few rounds averages over all of them.
constexpr std::size_t kVectorSets = 8;
constexpr std::size_t kTestVectors = 256;
// Stuck-at campaigns grade one fixed test set per design, the same for
// every seed, as a test program would. Their peak memory follows the
// glitchiest vectors they see, so seeded sets would make peak_rss_mb a
// draw of the seed.
constexpr std::uint64_t kTestSetSeed = 0x7e57;
constexpr std::size_t kRounds = 200;  // generated before timing
enum class Job { scalar, word, faults };
constexpr Job kJobs[3] = {Job::scalar, Job::word, Job::faults};
const char* const kJobNames[3] = {"scalar", "word", "faults"};

struct Design {
  const char* name;
  c::MultiplierPorts (*build)(c::Netlist&, int);
  int width;
  // Vectors per activity job, sized so that every activity job costs
  // about 40 ms on a 4-core container: job latencies then form one dense
  // cluster around the median instead of gaps, and op_p50_ms does not
  // jump between job types from run to run.
  std::size_t vectors;
};

c::MultiplierPorts array_mul(c::Netlist& nl, int w) {
  return c::build_array_multiplier(nl, w);
}
c::MultiplierPorts wallace_mul(c::Netlist& nl, int w) {
  return c::build_wallace_multiplier(nl, w);
}

const Design kDesigns[] = {{"mul8", array_mul, 8, 640},
                           {"mul10", array_mul, 10, 160},
                           {"mul12", array_mul, 12, 48},
                           {"wmul8", wallace_mul, 8, 768},
                           {"wmul12", wallace_mul, 12, 224}};
constexpr std::size_t kDesignCount = std::size(kDesigns);

struct Prepared {
  std::unique_ptr<c::Netlist> netlist;  // the graph references it
  std::shared_ptr<const lv::sim::SimGraph> graph;
  c::Bus inputs;
  std::vector<std::vector<std::uint64_t>> vectors;  // kVectorSets sets
  std::vector<std::uint64_t> test_set;               // fault campaigns
  std::vector<std::uint64_t> zeros;
};

struct JobSpec {
  std::size_t design = 0;
  Job job = Job::scalar;
};

// A round holds every (design, job type) pair once, in a seeded order;
// both activity jobs of one design in one round use the same set.
std::size_t vector_set(std::size_t round) { return round % kVectorSets; }

struct Setup {
  std::vector<Prepared> designs;
  std::vector<std::vector<JobSpec>> rounds;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  for (std::size_t d = 0; d < kDesignCount; ++d) {
    Prepared p;
    p.netlist = std::make_unique<c::Netlist>();
    c::MultiplierPorts ports;
    {
      Tracer::Span span{"circuit.gen"};
      ports = kDesigns[d].build(*p.netlist, kDesigns[d].width);
    }
    {
      Tracer::Span span{"sim.compile"};
      p.graph = lv::sim::SimGraph::compile(*p.netlist);
    }
    p.inputs = ports.a;
    p.inputs.insert(p.inputs.end(), ports.b.begin(), ports.b.end());
    for (std::size_t k = 0; k < kVectorSets; ++k)
      p.vectors.push_back(lv::sim::random_vectors(
          kDesigns[d].vectors, static_cast<int>(p.inputs.size()),
          derive_seed(seed, 1000 + k * kDesignCount + d)));
    p.test_set = lv::sim::random_vectors(
        kTestVectors, static_cast<int>(p.inputs.size()), derive_seed(kTestSetSeed, d));
    p.zeros.assign(kDesigns[d].vectors, 0);
    s.designs.push_back(std::move(p));
  }
  Rng rng{derive_seed(seed, 7)};
  s.rounds.resize(kRounds);
  for (auto& round : s.rounds) {
    for (std::size_t d = 0; d < kDesignCount; ++d)
      for (const Job j : kJobs) round.push_back({d, j});
    rng.shuffle(round);
  }
  return s;
}

std::uint64_t stats_digest(const lv::sim::ActivityStats& stats,
                           std::size_t nets) {
  std::uint64_t h = fnv_value(kFnvBasis, stats.cycles());
  for (c::NetId n = 0; n < nets; ++n) {
    h = fnv_value(h, stats.transitions(n));
    h = fnv_value(h, stats.settled_changes(n));
  }
  return h;
}

// The activity extraction users get from `simulate --kernel scalar|word`.
std::uint64_t run_activity(const Prepared& p, std::size_t round, bool word) {
  const auto& vecs = p.vectors[vector_set(round)];
  const std::size_t nets = p.netlist->net_count();
  if (word) {
    lv::sim::BitParallelSimulator sim{p.graph};
    sim.set_bus_broadcast(p.inputs, 0);
    sim.settle();
    sim.clear_stats();
    lv::sim::run_two_operand_workload(sim, p.inputs, {}, vecs, p.zeros);
    return stats_digest(sim.stats(), nets);
  }
  lv::sim::Simulator sim{p.graph};
  sim.set_bus(p.inputs, 0);
  sim.settle();
  sim.clear_stats();
  lv::sim::run_two_operand_workload(sim, p.inputs, {}, vecs, p.zeros);
  return stats_digest(sim.stats(), nets);
}

struct FaultOutcome {
  std::uint64_t digest = 0;
  std::uint64_t faults = 0;
};

FaultOutcome run_faults(const Prepared& p) {
  const auto r = lv::sim::fault_coverage(*p.netlist, p.test_set,
                                         lv::sim::FaultKernel::word);
  std::uint64_t h = fnv_value(kFnvBasis, r.total_faults);
  h = fnv_value(h, r.detected);
  for (const auto d : r.first_detections) h = fnv_value(h, d);
  return {h, r.total_faults};
}

// Per-job record (outputs are checked after the timed region).
struct JobRun {
  std::size_t round = 0;
  JobSpec spec;
  std::uint64_t digest = 0;
  bool threw = false;
};

struct Region {
  OpLog ops;
  std::vector<JobRun> runs;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> plain_ms, traced_ms;  // successful jobs, by tracing
  // Host time, events and faults by job type (traced rounds only).
  double scalar_ms = 0.0, word_ms = 0.0, fault_ms = 0.0, fault_cpu_ms = 0.0;
  std::uint64_t scalar_events = 0, word_events = 0, faults = 0;
};

// Which rounds of a timed region run traced. With `alternate`, every
// other round does, so traced and untraced rounds interleave and drift
// in the host's speed falls on both alike; the parity flips after each
// cycle of kVectorSets rounds, so every vector set runs both ways.
enum class Tracing { off, on, alternate };

// Whole rounds from `first_round` until `seconds` have passed (at least
// one); returns the round to continue from in `next_round`.
Region timed(const Setup& s, std::size_t first_round, double seconds,
             Tracing tracing, std::size_t* next_round) {
  Region r;
  const auto start = Clock::now();
  const double cpu0 = process_cpu_ms();
  std::size_t round = first_round;
  do {
    const bool traced = tracing == Tracing::on ||
                        (tracing == Tracing::alternate && (round + round / kVectorSets) % 2 == 1);
    if (tracing != Tracing::off) set_tracing(traced);
    for (const JobSpec& spec : s.rounds[round]) {
      const Prepared& p = s.designs[spec.design];
      JobRun run{round, spec, 0, false};
      const std::uint64_t ev0 = traced ? obs_counter("sim.events_processed") : 0;
      const std::uint64_t wev0 = traced ? obs_counter("sim.word_events_processed") : 0;
      const double job_cpu0 = traced ? process_cpu_ms() : 0.0;
      std::uint64_t faults = 0;
      const auto t0 = Clock::now();
      try {
        Tracer::Span span{spec.job == Job::scalar ? "sim.scalar.replay"
                          : spec.job == Job::word ? "sim.word.replay"
                                                  : "sim.fault"};
        if (spec.job == Job::faults) {
          const FaultOutcome f = run_faults(p);
          run.digest = f.digest;
          faults = f.faults;
        } else {
          run.digest = run_activity(p, round, spec.job == Job::word);
        }
      } catch (const std::exception& e) {
        run.threw = true;
        std::fprintf(stderr, "perfbench: %s job on %s threw: %s\n",
                     kJobNames[static_cast<int>(spec.job)],
                     kDesigns[spec.design].name, e.what());
      }
      const double ms = ms_between(t0, Clock::now());
      r.ops.add(ms, !run.threw);
      if (!run.threw) (traced ? r.traced_ms : r.plain_ms).push_back(ms);
      if (spec.job != Job::faults) {
        r.ops.vectors += static_cast<double>(kDesigns[spec.design].vectors);
        r.ops.vector_ms += ms;
      }
      if (traced && spec.job == Job::scalar) {
        r.scalar_ms += ms;
        r.scalar_events += obs_counter("sim.events_processed") - ev0;
      } else if (traced && spec.job == Job::word) {
        r.word_ms += ms;
        r.word_events += obs_counter("sim.word_events_processed") - wev0;
      } else if (traced) {
        r.fault_ms += ms;
        r.fault_cpu_ms += process_cpu_ms() - job_cpu0;
        r.faults += faults;
      }
      r.runs.push_back(run);
    }
    ++round;
  } while (round < s.rounds.size() &&
           ms_between(start, Clock::now()) < seconds * 1e3);
  if (tracing != Tracing::off) set_tracing(false);
  r.wall_s = ms_between(start, Clock::now()) / 1e3;
  r.cpu_ms = process_cpu_ms() - cpu0;
  *next_round = round;
  return r;
}

// Outside the timed region: both kernels, in every round, must give
// identical ActivityStats for each design and vector set, and every
// fault campaign on a design must give the same result as a serial
// (width 1) run of it. Each job found wrong is marked failed in `ops`.
void verify(const Setup& s, const std::vector<JobRun>& runs, OpLog& ops,
            Result& result) {
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> activity;
  std::map<std::size_t, std::uint64_t> serial_faults;
  const std::size_t width = lv::exec::thread_count();
  lv::exec::set_thread_count(1);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JobRun& run = runs[i];
    if (run.threw) continue;  // already counted as a failed op
    const std::string name = kDesigns[run.spec.design].name;
    bool ok = true;
    if (run.spec.job == Job::faults) {
      auto it = serial_faults.find(run.spec.design);
      if (it == serial_faults.end())
        it = serial_faults.emplace(run.spec.design, run_faults(s.designs[run.spec.design]).digest)
                 .first;
      ok = it->second == run.digest;
      result.check(ok, "fault campaign differs from a width-1 run on " + name);
    } else {
      const auto [it, fresh] = activity.emplace(
          std::make_pair(vector_set(run.round), run.spec.design), run.digest);
      ok = fresh || it->second == run.digest;
      result.check(ok, "scalar and word kernels disagree on " + name + " vector set " +
                           std::to_string(vector_set(run.round)));
    }
    if (!ok) ops.fail(i);
  }
  lv::exec::set_thread_count(width);
}

double mean_span_ms(const std::map<std::string, Tracer::Agg>& agg,
                    const char* name) {
  const auto it = agg.find(name);
  return it == agg.end() || it->second.calls == 0
             ? 0.0
             : it->second.total_ms / static_cast<double>(it->second.calls);
}

}  // namespace

Result run_glitch_sim(const Options& opt) {
  Result result;
  EndToEnd e2e;
  Setup s;
  Tracer::global().set_on(opt.trace);
  do {
    s = Setup{};
    const auto t0 = Clock::now();
    s = set_up(opt.seed);
    e2e.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  } while (set_up_again(e2e.setup_s));
  Tracer::global().set_on(false);
  e2e.xserver_err_pp = reference_xserver_err_pp();

  std::size_t next_round = 0;
  std::vector<Region> regions;
  if (!opt.trace) {
    regions.push_back(timed(s, 0, opt.seconds, Tracing::off, &next_round));
    e2e.wall_s = regions[0].wall_s;
    e2e.cpu_ms = regions[0].cpu_ms;
    e2e.rss_mb = peak_rss_mb();
  } else {
    // Work sample: round 0 with lv::obs on. Always round 0, so its counts
    // depend on the seed alone, not on how far the timing gets.
    lv::obs::Registry::global().reset();
    regions.push_back(timed(s, 0, 0.0, Tracing::on, &next_round));
    Layers layers;
    const auto count = [](const char* a, const char* b) {
      return static_cast<double>(obs_counter(a) + obs_counter(b));
    };
    layers.set("sim.transitions", count("sim.transitions", "sim.word_transitions"));
    layers.set("sim.events", count("sim.events_processed", "sim.word_events_processed"));
    layers.set("sim.settle_calls", count("sim.settle_calls", "sim.word_settle_calls"));
    const double settled = count("sim.settled_changes", "sim.word_settled_changes");
    const double transitions = layers.get("sim.transitions");
    layers.set("sim.glitch_share",
               transitions > 0 ? (transitions - settled) / transitions : 0.0);
    layers.set("sim.faults_graded", static_cast<double>(regions.back().faults));
    layers.set("exec.chunks_claimed",
               static_cast<double>(obs_counter("exec.pool.chunks_claimed")));
    regions.push_back(timed(s, next_round, opt.seconds, Tracing::alternate, &next_round));
    const Region& alternated = regions.back();

    double scalar_ms = 0, word_ms = 0, fault_ms = 0, fault_cpu_ms = 0;
    double scalar_events = 0, word_events = 0, faults = 0;
    for (const Region& r : regions) {
      scalar_ms += r.scalar_ms;
      word_ms += r.word_ms;
      fault_ms += r.fault_ms;
      fault_cpu_ms += r.fault_cpu_ms;
      scalar_events += static_cast<double>(r.scalar_events);
      word_events += static_cast<double>(r.word_events);
      faults += static_cast<double>(r.faults);
    }
    const auto agg = Tracer::global().aggregate();
    std::uint64_t gates = 0;
    for (const auto& p : s.designs) gates += p.netlist->instance_count();
    layers.set("circuit.gen_ms", mean_span_ms(agg, "circuit.gen"));
    layers.set("circuit.gates", static_cast<double>(gates));
    layers.set("sim.compile_ms", mean_span_ms(agg, "sim.compile"));
    layers.set("sim.compiles", static_cast<double>(s.designs.size()));
    layers.set("sim.scalar.replay_ms", mean_span_ms(agg, "sim.scalar.replay"));
    layers.set("sim.word.replay_ms", mean_span_ms(agg, "sim.word.replay"));
    layers.set("sim.scalar.ns_per_event",
               scalar_events > 0 ? scalar_ms * 1e6 / scalar_events : 0.0);
    layers.set("sim.word.ns_per_event",
               word_events > 0 ? word_ms * 1e6 / word_events : 0.0);
    layers.set("sim.fault_ms", mean_span_ms(agg, "sim.fault"));
    layers.set("sim.fault_us_per_fault", faults > 0 ? fault_ms * 1e3 / faults : 0.0);
    layers.set("exec.width", static_cast<double>(opt.width));
    layers.set("exec.cpu_util",
               fault_ms > 0 ? fault_cpu_ms / (fault_ms * static_cast<double>(opt.width))
                            : 0.0);
    const double p50_plain = percentile(alternated.plain_ms, 50);
    layers.set("obs.overhead_pct",
               p50_plain > 0
                   ? (percentile(alternated.traced_ms, 50) / p50_plain - 1.0) * 100.0
                   : 0.0);
    layers.put_all(result);
  }
  std::vector<JobRun> runs;
  for (const Region& r : regions) {
    e2e.ops.merge(r.ops);
    runs.insert(runs.end(), r.runs.begin(), r.runs.end());
  }
  verify(s, runs, e2e.ops, result);
  if (!opt.trace) put_end_to_end(result, e2e);
  result.attempted = e2e.ops.attempted();
  result.failed = e2e.ops.failed;
  return result;
}

}  // namespace perfbench
