// Shared plumbing of the lvsim benchmark: options, seeded generators,
// benchmark-side spans, the per-op log behind the end-to-end metrics,
// process CPU/memory probes and the result printer.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string lvtool;    // lvtool binary, spawned by serve_zipf
  std::string work_dir;  // scratch directory inside the checkout
  std::size_t width = 1; // lv::exec width
};

// SplitMix64: every generated input is a pure function of --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// Stream `tag` of the run seed, so adding a consumer never shifts the
// inputs another consumer draws.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// FNV-1a 64 over raw bytes; chains through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Benchmark-side spans around calls into the program's layers. Records
// stay in memory and are aggregated when the run ends; with tracing off
// a span reads no clock and records nothing. A span's parent is the
// innermost open span of the same thread, so self time is a span's
// duration minus its children's.
class Tracer {
 public:
  static Tracer& global();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void clear();

  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    explicit Span(std::string name) : Span(Tracer::global(), std::move(name)) {}
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    long index_ = -1;
    long parent_ = -1;
  };

  struct Agg {
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> aggregate() const;
  // One "# span" line per span name: calls, total and self time.
  void print() const;

 private:
  struct Record {
    std::string name;
    long parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool on_ = false;
  mutable std::mutex mu_;  // guards records_
  std::vector<Record> records_;
};

// Turns the in-process lv::obs registry and the benchmark-side spans on
// or off together: a traced op runs with both, an untraced one with
// neither.
void set_tracing(bool on);

// Per-op outcomes of one timed region. A failed or refused op counts as
// infinitely late.
struct OpLog {
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double vectors = 0.0;    // activity-extraction vectors simulated
  double vector_ms = 0.0;  // wall time of the ops that simulated them
  void add(double ms, bool success);
  // Op `i` (in add() order) turned out wrong after the timed region.
  void fail(std::size_t i);
  void merge(const OpLog& other);
  std::uint64_t attempted() const { return ok + failed; }
};

// Nearest-rank percentile (p in [0, 100]); infinities sort last.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// CPU time of this process (all threads), in ms.
double process_cpu_ms();
// CPU time (user + sys) of a live child process, in ms; 0 if unreadable.
double child_cpu_ms(pid_t pid);
// Peak resident set (VmHWM) of this process (pid 0) or a live child, MB.
double peak_rss_mb(pid_t pid = 0);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one invocation prints: end-to-end or per-layer metrics, the
// attempted/failed op counts and whether every output check held.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit);
  // A failed output check: the run is not correct.
  void check(bool ok, const std::string& what);
  void print_json() const;
};

// Timed-region totals every workload reports as end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;  // one entry per set-up repetition
  OpLog ops;
  double wall_s = 0.0;
  double cpu_ms = 0.0;  // benchmark process plus server child
  double rss_mb = 0.0;  // benchmark process plus server child
  double xserver_err_pp = 0.0;
};
void put_end_to_end(Result& result, const EndToEnd& e2e);

// The per-layer metrics, in BENCHMARK.json order. A workload sets the
// ones its layers exercise; the rest print as 0.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void put_all(Result& result) const;

 private:
  std::vector<Metric> metrics_;
};

// The server ops serve_zipf sends, in the order its metrics list them.
extern const char* const kServeOps[7];

// Counter value from the in-process lv::obs registry (0 when the
// program does not register that name).
std::uint64_t obs_counter(const std::string& name);

// Value of `"name": <number>` in an lv-run-report JSON document;
// for a timer, `field` selects "calls" or "total_ns". 0 when absent.
double report_value(const std::string& json, const std::string& name,
                    const std::string& field = "");

}  // namespace perfbench
