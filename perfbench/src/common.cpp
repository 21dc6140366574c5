#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng{seed ^ (tag * 0xd1b54a32d192ed03ULL)};
  return rng.next();
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- Tracer -------------------------------------------------------------

namespace {
thread_local long t_open_span = -1;
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock{mu_};
  records_.clear();
}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_{tracer.on() ? &tracer : nullptr} {
  if (tracer_ == nullptr) return;
  parent_ = t_open_span;
  std::lock_guard<std::mutex> lock{tracer_->mu_};
  index_ = static_cast<long>(tracer_->records_.size());
  tracer_->records_.push_back({std::move(name), parent_, Clock::now(), {}});
  t_open_span = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock{tracer_->mu_};
  tracer_->records_[static_cast<std::size_t>(index_)].end = now;
  t_open_span = parent_;
}

std::map<std::string, Tracer::Agg> Tracer::aggregate() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const auto& r : records_)
    if (r.parent >= 0)
      child_ms[static_cast<std::size_t>(r.parent)] += ms_between(r.start, r.end);
  std::map<std::string, Agg> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const double ms = ms_between(r.start, r.end);
    Agg& a = out[r.name];
    a.calls += 1;
    a.total_ms += ms;
    a.self_ms += ms - child_ms[i];
  }
  return out;
}

void Tracer::print() const {
  for (const auto& [name, a] : aggregate())
    std::printf("# span %-24s calls %8llu  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(a.calls), a.total_ms,
                a.self_ms);
}

void set_tracing(bool on) {
  lv::obs::set_enabled(on);
  Tracer::global().set_on(on);
}

// ---- OpLog and statistics ----------------------------------------------

void OpLog::add(double ms, bool success) {
  latency_ms.push_back(success ? ms : std::numeric_limits<double>::infinity());
  (success ? ok : failed) += 1;
}

void OpLog::fail(std::size_t i) {
  if (std::isinf(latency_ms[i])) return;
  latency_ms[i] = std::numeric_limits<double>::infinity();
  ok -= 1;
  failed += 1;
}

void OpLog::merge(const OpLog& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  ok += other.ok;
  failed += other.failed;
  vectors += other.vectors;
  vector_ms += other.vector_ms;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[i];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- process probes -----------------------------------------------------

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double child_cpu_ms(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  std::string text{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields{text.substr(close + 2)};
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && (fields >> field); ++i)
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in{pid == 0 ? std::string{"/proc/self/status"}
                            : "/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// ---- results ------------------------------------------------------------

void Result::put(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Result::print_json() const {
  for (const auto& m : metrics)
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity: a percentile that lands on a failed op is
    // printed as the largest finite double.
    const double v = std::isfinite(metrics[i].value)
                         ? metrics[i].value
                         : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void put_end_to_end(Result& result, const EndToEnd& e2e) {
  const OpLog& ops = e2e.ops;
  const double attempted = static_cast<double>(ops.attempted());
  result.put("setup_s", median(e2e.setup_s), "s");
  result.put("op_p50_ms", percentile(ops.latency_ms, 50), "ms");
  result.put("op_p90_ms", percentile(ops.latency_ms, 90), "ms");
  result.put("ops_per_s", static_cast<double>(ops.ok) / e2e.wall_s, "1/s");
  result.put("vectors_per_s",
             ops.vector_ms > 0 ? ops.vectors / (ops.vector_ms / 1e3) : 0.0,
             "1/s");
  result.put("cpu_ms_per_op", attempted > 0 ? e2e.cpu_ms / attempted : 0.0,
             "ms");
  result.put("ok_ratio",
             attempted > 0 ? static_cast<double>(ops.ok) / attempted : 0.0,
             "1");
  result.put("peak_rss_mb", e2e.rss_mb, "MB");
  result.put("xserver_err_pp", e2e.xserver_err_pp, "pp");
  std::printf("# ops: %" PRIu64 " attempted, %" PRIu64
              " failed (fail_ratio %.4f), %zu latency samples, "
              "%.3f s timed, setup repeated %zu times\n",
              ops.attempted(), ops.failed,
              attempted > 0 ? static_cast<double>(ops.failed) / attempted : 0.0,
              ops.latency_ms.size(), e2e.wall_s, e2e.setup_s.size());
}

const char* const kServeOps[7] = {"power",  "timing", "simulate", "glitch",
                                  "dualvt", "paths",  "faults"};

Layers::Layers() {
  const std::pair<const char*, const char*> fixed[] = {
      {"profile.run_ms", "ms"},         {"profile.instructions", "count"},
      {"profile.ns_per_instr", "ns"},   {"circuit.gen_ms", "ms"},
      {"circuit.emit_ms", "ms"},        {"circuit.gates", "count"},
      {"check.ingest_ms", "ms"},        {"check.ingest_mb_per_s", "MB/s"},
      {"sim.compile_ms", "ms"},         {"sim.compiles", "count"},
      {"sim.incremental_recompiles", "count"},
      {"sim.scalar.replay_ms", "ms"},   {"sim.word.replay_ms", "ms"},
      {"sim.transitions", "count"},     {"sim.events", "count"},
      {"sim.settle_calls", "count"},    {"sim.glitch_share", "1"},
      {"sim.scalar.ns_per_event", "ns"}, {"sim.word.ns_per_event", "ns"},
      {"sim.fault_ms", "ms"},           {"sim.faults_graded", "count"},
      {"sim.fault_us_per_fault", "us"}, {"exec.width", "count"},
      {"exec.cpu_util", "1"},           {"exec.chunks_claimed", "count"},
      {"power.estimate_ms", "ms"},      {"power.glitch_ms", "ms"},
      {"timing.sta_ms", "ms"},          {"opt.optimize_vt_ms", "ms"},
      {"opt.optimize_vt_evals", "count"}, {"opt.dual_vt_ms", "ms"},
      {"opt.dual_vt_high_vt", "count"}, {"analysis.context_ms", "ms"},
      {"core.module_params_ms", "ms"},  {"core.grid_ms", "ms"},
      {"core.grid_points", "count"},    {"svc.connect_ms", "ms"},
  };
  for (const auto& [name, unit] : fixed) metrics_.push_back({name, 0.0, unit});
  for (const char* op : kServeOps) {
    metrics_.push_back({std::string{"svc.rtt_ms."} + op + ".p50", 0.0, "ms"});
    metrics_.push_back({std::string{"svc.rtt_ms."} + op + ".p90", 0.0, "ms"});
  }
  for (const char* op : kServeOps)
    metrics_.push_back({std::string{"svc.service_ms."} + op, 0.0, "ms"});
  const std::pair<const char*, const char*> tail[] = {
      {"svc.overhead_ms", "ms"},        {"svc.req_kb", "kB"},
      {"svc.resp_kb", "kB"},            {"svc.rejected", "count"},
      {"svc.queue_depth_max", "count"}, {"svc.session_hit_ratio", "1"},
      {"store.hit_ratio", "1"},         {"store.writes", "count"},
      {"store.decodes", "count"},       {"store.corrupt", "count"},
      {"store.sample_hits", "count"},   {"store.sample_writes", "count"},
      {"obs.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : tail) metrics_.push_back({name, 0.0, unit});
}

void Layers::set(const std::string& name, double value) {
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = value;
      return;
    }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

double Layers::get(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return m.value;
  return 0.0;
}

void Layers::put_all(Result& result) const {
  for (const auto& m : metrics_) result.put(m.name, m.value, m.unit);
}

std::uint64_t obs_counter(const std::string& name) {
  const lv::obs::RunReport report = lv::obs::Registry::global().report();
  if (const auto it = report.counters.find(name); it != report.counters.end())
    return it->second;
  if (const auto it = report.scheduling_counters.find(name);
      it != report.scheduling_counters.end())
    return it->second;
  return 0;
}

double report_value(const std::string& json, const std::string& name,
                    const std::string& field) {
  auto pos = json.find("\"" + name + "\"");
  if (pos == std::string::npos) return 0.0;
  if (!field.empty()) {
    pos = json.find("\"" + field + "\"", pos);
    if (pos == std::string::npos) return 0.0;
  }
  pos = json.find(':', pos);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + 1, nullptr);
}

}  // namespace perfbench
