// lvbench — runs one benchmark workload and prints its metrics. The last
// line of stdout is the result object; earlier lines are for people.
//
//   lvbench --workload paper_flow|glitch_sim|serve_zipf --seed N
//           --seconds S --trace 0|1 --lvtool PATH --work DIR [--commit C]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/thread_pool.hpp"
#include "svc/handlers.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "lvbench: %s\nusage: lvbench --workload paper_flow|glitch_sim|"
               "serve_zipf --seed N --seconds S --trace 0|1 --lvtool PATH "
               "--work DIR [--commit C]\n",
               why);
  return 2;
}

// The "build:" line of `lvtool version` (the same text, in-process).
std::string build_line() {
  const std::string v = lv::svc::version_text();
  const auto at = v.find("build: ");
  if (at == std::string::npos) return "unknown";
  const auto end = v.find('\n', at);
  return v.substr(at + 7, end == std::string::npos ? end : end - at - 7);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (key == "--lvtool") {
      opt.lvtool = value;
    } else if (key == "--work") {
      opt.work_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty())
    return usage("--seed, --seconds, --trace and --work are required");
  if (opt.workload != "paper_flow" && opt.workload != "glitch_sim" &&
      opt.workload != "serve_zipf")
    return usage(("unknown workload '" + opt.workload + "'").c_str());

  // The exec width is fixed here, never above the host's core count.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  opt.width = static_cast<std::size_t>(std::clamp<long>(nproc, 1, 4));
  lv::exec::set_thread_count(opt.width);

  const std::string build = build_line();
  const bool optimized = build.find("type=Release") != std::string::npos ||
                         build.find("type=RelWithDebInfo") != std::string::npos;
  const bool valid = optimized && build.find("sanitize=none") != std::string::npos;
  std::printf("# machine: {\"nproc\": %ld, \"exec_width\": %zu, \"seed\": %llu, "
              "\"workload\": \"%s\", \"trace\": %d, \"build\": \"%s\", "
              "\"commit\": \"%s\", \"valid\": %s}\n",
              nproc, opt.width, static_cast<unsigned long long>(opt.seed),
              opt.workload.c_str(), opt.trace ? 1 : 0,
              json_escape(build).c_str(), json_escape(commit).c_str(),
              valid ? "true" : "false");
  if (!valid)
    std::fprintf(stderr,
                 "lvbench: warning: sanitizer or unoptimised build; these "
                 "results are invalid\n");
  std::fflush(stdout);

  try {
    perfbench::Result result;
    if (opt.workload == "paper_flow")
      result = perfbench::run_paper_flow(opt);
    else if (opt.workload == "glitch_sim")
      result = perfbench::run_glitch_sim(opt);
    else
      result = perfbench::run_serve_zipf(opt);
    if (opt.trace) perfbench::Tracer::global().print();
    result.print_json();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lvbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
