// serve_zipf: three closed-loop clients drive `lvtool serve --workers 2`
// over lvrpc/1 with a Zipf-keyed request mix over every `gen` design.
// The only workload that goes through svc sockets, queue and sessions,
// and through store reads beside writes.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "analysis/analysis_context.hpp"
#include "check/ingest.hpp"
#include "obs/metrics.hpp"
#include "opt/dual_vt.hpp"
#include "power/estimator.hpp"
#include "power/glitch.hpp"
#include "sim/fault.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "store/artifact_store.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "svc/socket.hpp"
#include "tech/process.hpp"
#include "timing/path_enum.hpp"
#include "timing/sta.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace svc = lv::svc;

// ---- the traffic --------------------------------------------------------

// Nothing records how `lvtool serve` is used, so each constant below is
// an assumption; perfbench/README.md gives the reason for each value.
constexpr int kClients = 3;
constexpr int kWorkers = 2;
constexpr std::size_t kRound = 256;        // requests per round
constexpr std::size_t kRounds = 400;       // generated before timing
constexpr double kZipfTheta = 0.99;
constexpr double kRevisionShare = 1.0 / 8; // requests carrying a fresh revision (exact per round)
constexpr std::uint64_t kPoolOrderSeed = 0x5eed;  // fixed: ranks never move
constexpr std::size_t kSimVectors = 128;
constexpr std::size_t kFaultVectors = 64;
constexpr std::size_t kSamplePerOp = 4;    // replayed in-process per op
const double kVdds[] = {0.7, 0.85, 1.0, 1.2};

// Indices into kServeOps, and each op's fixed weight in the mix.
enum Op : std::uint8_t { kPower, kTiming, kSimulate, kGlitch, kDualVt, kPaths, kFaults };
const double kOpWeights[7] = {4, 3, 2, 2, 2, 2, 1};

bool simulates(std::uint8_t op) { return op == kSimulate || op == kGlitch || op == kFaults; }

// Every `gen` kind at widths 8-64; multipliers at most 12 bits (mul16
// faults take 10 s and mul32 simulate 2.4 s to fail on one vector).
struct PoolSpec {
  const char* kind;
  int width;
};
std::vector<PoolSpec> pool_specs() {
  std::vector<PoolSpec> specs;
  for (const char* kind : {"rca", "cla", "csel", "ks", "cskip", "alu", "shifter"})
    for (const int w : {8, 16, 32, 64}) specs.push_back({kind, w});
  for (const char* kind : {"mul", "wmul"})
    for (const int w : {8, 10, 12}) specs.push_back({kind, w});
  return specs;
}

struct Swap {
  std::size_t offset;  // of the cell-kind token in the text
  std::size_t length;
  const char* replacement;
};

struct PoolDesign {
  std::string name;
  std::string text;
  std::size_t inputs = 0;
  std::vector<Swap> swaps;  // gates whose kind can change, shape kept
  double probability = 0.0;
};

struct Desc {
  std::uint32_t design = 0;
  std::uint8_t op = 0;
  bool revision = false;
  std::uint8_t vdd = 0;
  std::uint32_t seed = 0;
  std::uint32_t swap = 0;
};

struct Traffic {
  std::uint64_t seed = 0;
  std::vector<PoolDesign> pool;
  std::vector<Desc> requests;  // kRounds rounds of kRound
};

// Cell kinds swapped for a revision: same arity, so the structural shape
// key (names, outputs, arity, modules) is unchanged.
const char* swap_for(std::string_view kind) {
  if (kind == "AND2") return "OR2";
  if (kind == "OR2") return "AND2";
  if (kind == "XOR2") return "XNOR2";
  if (kind == "XNOR2") return "XOR2";
  if (kind == "NAND2") return "NOR2";
  if (kind == "NOR2") return "NAND2";
  return nullptr;
}

PoolDesign make_design(const PoolSpec& spec) {
  svc::Session session{0};
  svc::ServiceContext ctx{session};
  svc::Request gen;
  gen.op = "gen";
  gen.params.positional = {spec.kind, std::to_string(spec.width)};
  const svc::Response r = svc::run_request(ctx, gen);
  if (r.exit_code != 0)
    throw std::runtime_error("gen " + std::string{spec.kind} + " failed: " + r.err);
  PoolDesign d;
  d.name = spec.kind + std::to_string(spec.width);
  d.text = r.out;
  std::size_t at = 0;
  while (at < d.text.size()) {
    const std::size_t eol = std::min(d.text.find('\n', at), d.text.size());
    const std::string_view line{d.text.data() + at, eol - at};
    if (line.rfind("input ", 0) == 0) ++d.inputs;
    if (line.rfind("gate ", 0) == 0) {
      // gate <name> <KIND> ...
      const std::size_t k0 = line.find(' ', 5) + 1;
      const std::size_t k1 = line.find(' ', k0);
      if (const char* repl = swap_for(line.substr(k0, k1 - k0)))
        d.swaps.push_back({at + k0, k1 - k0, repl});
    }
    at = eol + 1;
  }
  return d;
}

// Zipf frequencies over a fixed rank order, turned into one round of
// exactly proportional (design, op) cells by systematic sampling; then
// systematically every 1/kRevisionShare-th request of the round, in
// design and op order, carries a fresh revision, so a round holds exactly
// kRevisionShare * kRound of them. Each round is that multiset in a
// seeded order, so every whole round has the same mix and the seed moves
// order and parameters.
Traffic make_traffic(std::uint64_t seed) {
  Traffic t;
  t.seed = seed;
  for (const auto& spec : pool_specs()) t.pool.push_back(make_design(spec));
  std::vector<std::size_t> rank(t.pool.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  Rng order{kPoolOrderSeed};
  order.shuffle(rank);
  double norm = 0.0;
  for (std::size_t r = 0; r < rank.size(); ++r)
    norm += 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
  for (std::size_t r = 0; r < rank.size(); ++r)
    t.pool[rank[r]].probability =
        1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta) / norm;

  double weight_sum = 0.0;
  for (const double w : kOpWeights) weight_sum += w;
  std::vector<Desc> round;
  double cumulative = 0.0;
  std::size_t taken = 0;
  for (std::uint32_t d = 0; d < t.pool.size(); ++d)
    for (std::uint8_t op = 0; op < 7; ++op) {
      cumulative += t.pool[d].probability * kOpWeights[op] / weight_sum;
      // Points (k + 0.5) / kRound falling in this cell's interval.
      const auto upto = static_cast<std::size_t>(
          std::floor(cumulative * static_cast<double>(kRound) + 0.5));
      for (; taken < std::min(upto, kRound); ++taken)
        round.push_back({d, op, false, 0, 0, 0});
    }
  for (std::size_t i = 0; i < round.size(); ++i)
    round[i].revision = std::floor(static_cast<double>(i + 1) * kRevisionShare) >
                        std::floor(static_cast<double>(i) * kRevisionShare);
  Rng rng{derive_seed(seed, 11)};
  t.requests.reserve(kRound * kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<Desc> shuffled = round;
    rng.shuffle(shuffled);
    for (Desc& desc : shuffled) {
      desc.vdd = static_cast<std::uint8_t>(rng.below(std::size(kVdds)));
      desc.seed = static_cast<std::uint32_t>(rng.next() % 100000 + 1);
      desc.swap = static_cast<std::uint32_t>(rng.next());
      t.requests.push_back(desc);
    }
  }
  return t;
}

std::string revision_text(const Traffic& t, std::size_t index) {
  const Desc& desc = t.requests[index];
  const PoolDesign& d = t.pool[desc.design];
  std::string text = d.text;
  if (!d.swaps.empty()) {
    const Swap& s = d.swaps[desc.swap % d.swaps.size()];
    text.replace(s.offset, s.length, s.replacement);
  }
  // Unique bytes: a revision never hits the store, whatever gate it swaps.
  text += "# revision " + std::to_string(t.seed) + "-" + std::to_string(index) + "\n";
  return text;
}

svc::Request build_request(const Traffic& t, std::size_t index) {
  const Desc& desc = t.requests[index];
  const PoolDesign& d = t.pool[desc.design];
  svc::Request req;
  req.op = kServeOps[desc.op];
  req.inputs["netlist"] = desc.revision ? revision_text(t, index) : d.text;
  auto& p = req.params;
  p.positional = {d.name + ".lvnet"};
  const std::string vdd = std::to_string(kVdds[desc.vdd]);
  const std::string seed = std::to_string(desc.seed);
  switch (desc.op) {
    case kPower:
    case kTiming:
      p.positional.push_back("soi_low_vt");
      p.options["--vdd"] = vdd;
      break;
    case kSimulate:
      p.options["--vectors"] = std::to_string(kSimVectors);
      p.options["--seed"] = seed;
      break;
    case kGlitch:
      p.positional.push_back("soi_low_vt");
      p.options["--vectors"] = std::to_string(kSimVectors);
      p.options["--seed"] = seed;
      p.options["--vdd"] = vdd;
      break;
    case kDualVt:
      p.positional.push_back("dual_vt_mtcmos");
      p.options["--margin"] = "0.05";
      break;
    case kPaths:
      p.positional.push_back("soi_low_vt");
      p.options["--vdd"] = vdd;
      p.options["--k"] = "5";
      break;
    default:  // kFaults
      p.options["--vectors"] = std::to_string(kFaultVectors);
      p.options["--seed"] = seed;
      break;
  }
  return req;
}

// What the checks need of a response. It is kept instead of the
// response text, so the benchmark's memory does not grow with the number
// of requests a run gets through.
struct Answer {
  int exit_code = 0;
  std::uint64_t out_hash = 0;
  bool internal_error = false;  // stderr carries [svc.internal]
};

Answer summarize(const svc::Response& r) {
  return {r.exit_code, fnv1a(kFnvBasis, r.out.data(), r.out.size()),
          r.err.find("[svc.internal]") != std::string::npos};
}

// The known defect kept in the mix (simulate/glitch/faults on designs
// with more than 64 primary inputs end in svc.internal today).
bool known_defect(const Traffic& t, const Desc& desc, const Answer& a) {
  return simulates(desc.op) && t.pool[desc.design].inputs > 64 && a.exit_code == 1 &&
         a.internal_error;
}

// ---- the server ---------------------------------------------------------

// An `lvtool serve` child. The destructor kills and reaps it if it is
// still running, so no exit path leaves a process behind.
class Server {
 public:
  Server(const Options& opt, const fs::path& dir) : dir_{dir} {
    fs::create_directories(dir_);
    endpoint_.path = (dir_ / "sock").string();
    const std::string cache = (dir_ / "cache").string();
    const std::string stats = (dir_ / "stats.json").string();
    const std::string log = (dir_ / "server.log").string();
    std::vector<std::string> args = {opt.lvtool, "serve", "--socket", endpoint_.path,
                                     "--workers", std::to_string(kWorkers),
                                     "--cache-dir", cache, "--stats-json", stats};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, opt.lvtool.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + opt.lvtool);
    // Ready once it accepts a hello.
    const auto start = Clock::now();
    for (;;) {
      try {
        Connection c{endpoint_};
        break;
      } catch (const std::exception&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("lvtool serve exited during start-up; see " + log);
        }
        if (ms_between(start, Clock::now()) > 20000) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          pid_ = -1;
          throw std::runtime_error("lvtool serve did not come up; see " + log);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  ~Server() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // A connection that has completed the hello exchange.
  struct Connection {
    explicit Connection(const svc::Endpoint& ep) : socket{svc::connect_to(ep)} {
      if (!svc::send_all(fd(), svc::encode_frame(svc::FrameKind::hello, 0,
                                                 "perfbench lvrpc/1")))
        throw std::runtime_error("hello not sent");
      const auto r = reader.next(fd());
      if (r.kind != svc::FrameReader::Result::Kind::frame ||
          r.frame.kind != svc::FrameKind::hello_ok)
        throw std::runtime_error("no hello_ok");
    }
    int fd() const { return socket.fd; }
    // Closes the socket, also when the constructor body throws.
    struct Fd {
      int fd;
      ~Fd() { ::close(fd); }
      explicit Fd(int f) : fd{f} {}
      Fd(const Fd&) = delete;
      Fd& operator=(const Fd&) = delete;
    } socket;
    svc::FrameReader reader;
  };

  const svc::Endpoint& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }

  // Graceful stop; returns the server's lv-run-report JSON.
  std::string shutdown() {
    {
      Connection c{endpoint_};
      svc::send_all(c.fd(), svc::encode_frame(svc::FrameKind::shutdown, 1, ""));
      c.reader.next(c.fd());
    }
    int status = 0;
    const auto start = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (ms_between(start, Clock::now()) > 20000) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::ifstream in{dir_ / "stats.json"};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  }

 private:
  fs::path dir_;
  svc::Endpoint endpoint_;
  pid_t pid_ = -1;
};

// One request from connect to response, as svc::run_client sends it: a
// fresh connection, hello, one request.
struct Sent {
  std::size_t index = 0;
  bool answered = false;  // a response frame came back
  Answer answer;
  double rtt_ms = 0.0;
  double connect_ms = 0.0;
  std::size_t req_bytes = 0;
  std::size_t resp_bytes = 0;
};

Sent send_request(const svc::Endpoint& ep, std::size_t index,
                  const std::string& payload, const char* op) {
  Sent s;
  s.index = index;
  const std::string frame = svc::encode_frame(svc::FrameKind::request, 1, payload);
  s.req_bytes = frame.size();
  Tracer::Span span{std::string{"svc.rtt."} + op};
  const auto t0 = Clock::now();
  try {
    std::optional<Server::Connection> c;
    {
      Tracer::Span connect{"svc.connect"};
      c.emplace(ep);
    }
    s.connect_ms = ms_between(t0, Clock::now());
    if (svc::send_all(c->fd(), frame)) {
      const auto r = c->reader.next(c->fd());
      if (r.kind == svc::FrameReader::Result::Kind::frame &&
          r.frame.kind == svc::FrameKind::response) {
        s.resp_bytes = r.frame.payload.size() + svc::kHeaderSize;
        s.answer = summarize(svc::decode_response(r.frame.payload));
        s.answered = true;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request %zu: %s\n", index, e.what());
  }
  s.rtt_ms = ms_between(t0, Clock::now());
  return s;
}

struct Region {
  std::vector<Sent> sent;
  double wall_s = 0.0;
  double cpu_ms = 0.0;  // benchmark process plus server
};

// kClients closed-loop clients from `next` (a round boundary) on, for at
// least `seconds` and at least one round, stopping at a round boundary so
// every region has whole rounds.
Region run_clients(const Traffic& t, const Server& server, std::size_t* next,
                   double seconds) {
  Region region;
  std::mutex mu;  // guards cursor, end and region.sent
  const std::size_t first = *next;
  std::size_t cursor = first;
  std::size_t end = t.requests.size();
  const double cpu0 = process_cpu_ms() + child_cpu_ms(server.pid());
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      for (;;) {
        std::size_t index = 0;
        {
          std::lock_guard<std::mutex> lock{mu};
          if (cursor >= end) return;
          index = cursor++;
        }
        const svc::Request req = build_request(t, index);
        const std::string payload = svc::encode_request(req);
        Sent s = send_request(server.endpoint(), index, payload, req.op.c_str());
        std::lock_guard<std::mutex> lock{mu};
        region.sent.push_back(std::move(s));
      }
    });
  while (ms_between(start, Clock::now()) < seconds * 1e3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> lock{mu};
    if (cursor >= end) break;
  }
  {
    std::lock_guard<std::mutex> lock{mu};
    end = std::min(end, std::max(first + kRound, (cursor + kRound - 1) / kRound * kRound));
  }
  for (auto& th : clients) th.join();
  region.wall_s = ms_between(start, Clock::now()) / 1e3;
  region.cpu_ms = process_cpu_ms() + child_cpu_ms(server.pid()) - cpu0;
  *next = std::max(cursor, end);
  std::sort(region.sent.begin(), region.sent.end(),
            [](const Sent& a, const Sent& b) { return a.index < b.index; });
  return region;
}

// Outcome classes of one sent request.
enum class Outcome { ok, known_defect, failed };

Outcome classify(const Traffic& t, const Sent& s) {
  if (!s.answered) return Outcome::failed;
  if (s.answer.exit_code == 0) return Outcome::ok;
  return known_defect(t, t.requests[s.index], s.answer) ? Outcome::known_defect
                                                          : Outcome::failed;
}

// `wrong`: requests whose response the replay found to differ.
OpLog op_log(const Traffic& t, const Region& region,
             const std::set<std::size_t>& wrong, std::uint64_t* failed) {
  OpLog log;
  // Requests overlap, so summed round trips would count queueing behind
  // other clients' requests; vectors are counted per wall second of the
  // region instead, which holds whole rounds of a fixed mix.
  log.vector_ms = region.wall_s * 1e3;
  for (const Sent& s : region.sent) {
    const Outcome o = wrong.count(s.index) ? Outcome::failed : classify(t, s);
    log.add(s.rtt_ms, o == Outcome::ok);
    *failed += o == Outcome::failed;
    const std::uint8_t op = t.requests[s.index].op;
    if (o == Outcome::ok && (op == kSimulate || op == kGlitch))
      log.vectors += static_cast<double>(kSimVectors);
  }
  return log;
}

// Creates `dir` if needed and fsyncs it, which commits the filesystem's
// pending metadata changes (file creations, renames, removals) to disk.
void commit_dir(const fs::path& dir) {
  fs::create_directories(dir);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Set-up: pool, traffic, server, and a store warmed with one request per
// pool design.
struct Fixture {
  Traffic traffic;
  std::unique_ptr<Server> server;
};

std::vector<svc::Request> warm_requests(const Traffic& t) {
  std::vector<svc::Request> reqs;
  for (const PoolDesign& d : t.pool) {
    svc::Request req;
    req.op = "simulate";
    req.inputs["netlist"] = d.text;
    req.params.positional = {d.name + ".lvnet"};
    req.params.options["--vectors"] = "1";
    reqs.push_back(std::move(req));
  }
  return reqs;
}

Fixture set_up(const Options& opt, const fs::path& dir) {
  Fixture f;
  f.traffic = make_traffic(opt.seed);
  f.server = std::make_unique<Server>(opt, dir);
  for (const svc::Request& req : warm_requests(f.traffic)) {
    const Sent s = send_request(f.server->endpoint(), 0, svc::encode_request(req),
                                "warm");
    if (!s.answered) throw std::runtime_error("store warm-up request failed");
  }
  return f;
}

// The in-process side: the sampled requests of round 0 replayed through
// svc::run_request, each in a fresh session over a warmed store as the
// server runs them. Their out bytes and exit code must equal the
// server's.
struct Replay {
  std::vector<std::size_t> indices;
  std::map<std::size_t, double> service_ms;
  std::set<std::size_t> wrong;
};

std::vector<std::size_t> sample_indices(const Traffic& t) {
  Rng rng{derive_seed(t.seed, 13)};
  std::vector<std::size_t> out;
  for (std::uint8_t op = 0; op < 7; ++op) {
    std::vector<std::size_t> of_op;
    for (std::size_t i = 0; i < kRound; ++i)
      if (t.requests[i].op == op) of_op.push_back(i);
    rng.shuffle(of_op);
    of_op.resize(std::min(of_op.size(), kSamplePerOp));
    out.insert(out.end(), of_op.begin(), of_op.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// With `count_work`, lv::obs is reset and enabled once the store is warm,
// so it then counts the sampled requests alone.
Replay replay(const Traffic& t, const std::map<std::size_t, const Sent*>& sent,
              const fs::path& store_dir, bool count_work, Result& result) {
  lv::store::ArtifactStore store{lv::store::StoreOptions{store_dir}};
  const auto run = [&store](const svc::Request& req) {
    svc::Session session{0, svc::Session::Options{&store}};
    svc::ServiceContext ctx{session};
    return svc::run_request(ctx, req);
  };
  for (const svc::Request& req : warm_requests(t)) run(req);
  if (count_work) {
    lv::obs::Registry::global().reset();
    lv::obs::set_enabled(true);
  }
  Replay r;
  r.indices = sample_indices(t);
  for (const std::size_t i : r.indices) {
    const svc::Request req = build_request(t, i);
    const auto t0 = Clock::now();
    const svc::Response resp = run(req);
    r.service_ms[i] = ms_between(t0, Clock::now());
    const auto it = sent.find(i);
    if (it == sent.end() || !it->second->answered) continue;  // counted as failed
    const Answer& got = it->second->answer;
    const bool same = got.exit_code == resp.exit_code && got.out_hash == summarize(resp).out_hash;
    result.check(same, "request " + std::to_string(i) + " (" + req.op +
                           "): server response differs from svc::run_request");
    if (!same) r.wrong.insert(i);
  }
  return r;
}

// Benchmark-side spans around the layer calls one sampled request makes.
void layer_replay(const Traffic& t, const std::vector<std::size_t>& indices,
                  std::uint64_t* ingest_bytes) {
  const auto soi = lv::tech::soi_low_vt();
  const auto dual = lv::tech::dual_vt_mtcmos();
  for (const std::size_t i : indices) {
    const Desc& desc = t.requests[i];
    const svc::Request req = build_request(t, i);
    const std::string& text = req.inputs.at("netlist");
    std::optional<lv::circuit::Netlist> nl;
    {
      Tracer::Span span{"check.ingest"};
      lv::check::DiagSink sink;
      nl = lv::check::load_netlist_text(text, sink, req.params.positional[0]);
    }
    *ingest_bytes += text.size();
    if (!nl) continue;
    const double vdd = kVdds[desc.vdd];
    const lv::analysis::OperatingPoint op{.vdd = vdd};
    const bool fits = nl->primary_inputs().size() <= 64;
    try {
      switch (desc.op) {
        case kPower: {
          std::optional<lv::analysis::AnalysisContext> actx;
          {
            Tracer::Span span{"analysis.context"};
            actx.emplace(*nl, soi, op);
          }
          Tracer::Span span{"power.estimate"};
          lv::power::PowerEstimator{*actx}.estimate_uniform(0.25);
          break;
        }
        case kTiming: {
          std::optional<lv::analysis::AnalysisContext> actx;
          {
            Tracer::Span span{"analysis.context"};
            actx.emplace(*nl, soi, op);
          }
          Tracer::Span span{"timing.sta"};
          lv::timing::Sta{*actx}.run(1.0);
          break;
        }
        case kSimulate:
        case kGlitch: {
          if (!fits) break;
          std::shared_ptr<const lv::sim::SimGraph> graph;
          {
            Tracer::Span span{"sim.compile"};
            graph = lv::sim::SimGraph::compile(*nl);
          }
          std::optional<lv::sim::Simulator> sim;
          {
            Tracer::Span span{"sim.scalar.replay"};
            sim.emplace(graph);
            const auto inputs = nl->primary_inputs();
            sim->set_bus(inputs, 0);
            sim->settle();
            sim->clear_stats();
            for (const auto v : lv::sim::random_vectors(
                     kSimVectors, static_cast<int>(inputs.size()), desc.seed)) {
              sim->set_bus(inputs, v);
              sim->settle();
            }
          }
          if (desc.op == kGlitch) {
            Tracer::Span span{"power.glitch"};
            lv::power::analyze_glitch_power(*nl, soi, op, sim->stats());
          }
          break;
        }
        case kDualVt: {
          Tracer::Span span{"opt.dual_vt"};
          lv::opt::assign_dual_vt(*nl, dual, dual.vdd_nominal, 0.05);
          break;
        }
        case kPaths: {
          Tracer::Span span{"timing.sta"};
          const auto sta = lv::timing::Sta{*nl, soi, vdd}.run(1.0);
          lv::timing::enumerate_critical_paths(*nl, sta, 5);
          break;
        }
        default: {  // kFaults
          if (!fits) break;
          Tracer::Span span{"sim.fault"};
          lv::sim::fault_coverage(
              *nl,
              lv::sim::random_vectors(kFaultVectors,
                                      static_cast<int>(nl->primary_inputs().size()),
                                      desc.seed),
              lv::sim::FaultKernel::word);
          break;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: layer replay of request %zu: %s\n", i, e.what());
    }
  }
}

void print_mix(const Traffic& t) {
  std::size_t revisions = 0, defects = 0;
  for (std::size_t i = 0; i < kRound; ++i) {
    const Desc& d = t.requests[i];
    revisions += d.revision;
    defects += simulates(d.op) && t.pool[d.design].inputs > 64;
  }
  std::printf("# serve_zipf mix per %zu-request round: %zu warm-design requests "
              "(%.1f%%), %zu fresh revisions (%.1f%%), %zu known-defect requests "
              "(%.1f%%)\n",
              kRound, kRound - revisions, 100.0 * static_cast<double>(kRound - revisions) / kRound,
              revisions, 100.0 * static_cast<double>(revisions) / kRound, defects,
              100.0 * static_cast<double>(defects) / kRound);
}

}  // namespace

Result run_serve_zipf(const Options& opt) {
  if (opt.lvtool.empty()) throw std::runtime_error("serve_zipf needs --lvtool");
  Result result;
  EndToEnd e2e;
  const fs::path root = fs::path{opt.work_dir} / "serve_zipf";
  Fixture f;
  do {
    // Tear the previous set-up and its store down outside the timing and
    // commit the removal, so every set-up writes its store into the same
    // state of the filesystem.
    if (f.server != nullptr) f.server->shutdown();
    f = Fixture{};
    fs::remove_all(root);
    commit_dir(root);
    const auto t0 = Clock::now();
    f = set_up(opt, root / "server");
    e2e.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  } while (set_up_again(e2e.setup_s));
  print_mix(f.traffic);
  e2e.xserver_err_pp = reference_xserver_err_pp();

  std::size_t next = 0;
  std::vector<Region> plain, traced;
  if (!opt.trace) {
    plain.push_back(run_clients(f.traffic, *f.server, &next, opt.seconds));
  } else {
    // One round untraced, one traced, alternately, so drift in the host's
    // speed falls on both alike.
    const auto start = Clock::now();
    do {
      plain.push_back(run_clients(f.traffic, *f.server, &next, 0.0));
      set_tracing(true);
      traced.push_back(run_clients(f.traffic, *f.server, &next, 0.0));
      set_tracing(false);
    } while (ms_between(start, Clock::now()) < opt.seconds * 1e3 &&
             next + 2 * kRound <= f.traffic.requests.size());
  }
  const double rss_mb = peak_rss_mb() + peak_rss_mb(f.server->pid());
  const std::string stats = f.server->shutdown();

  std::map<std::size_t, const Sent*> by_index;
  for (const auto* regions : {&plain, &traced})
    for (const Region& r : *regions)
      for (const Sent& s : r.sent) by_index[s.index] = &s;
  const Replay rep = replay(f.traffic, by_index, root / "replay-cache", opt.trace, result);

  std::uint64_t failed = 0;  // outside the known defect
  const auto tally = [&](const std::vector<Region>& regions) {
    OpLog log;
    for (const Region& r : regions) {
      log.merge(op_log(f.traffic, r, rep.wrong, &failed));
      e2e.wall_s += r.wall_s;
      e2e.cpu_ms += r.cpu_ms;
    }
    e2e.ops.merge(log);
    return log;
  };
  const OpLog plain_log = tally(plain);
  const OpLog traced_log = tally(traced);
  e2e.rss_mb = rss_mb;
  Layers layers;
  if (!opt.trace) {
    put_end_to_end(result, e2e);
  } else {
    // Work counts of the replayed sample (lv::obs is on since its start).
    layers.set("store.sample_hits", static_cast<double>(obs_counter("store.hits")));
    layers.set("store.sample_writes", static_cast<double>(obs_counter("store.writes")));
    layers.set("sim.transitions", static_cast<double>(obs_counter("sim.transitions") +
                                                      obs_counter("sim.word_transitions")));
    layers.set("sim.events", static_cast<double>(obs_counter("sim.events_processed") +
                                                 obs_counter("sim.word_events_processed")));
    layers.set("sim.settle_calls", static_cast<double>(obs_counter("sim.settle_calls") +
                                                       obs_counter("sim.word_settle_calls")));
    const double transitions = static_cast<double>(obs_counter("sim.transitions"));
    const double settled = static_cast<double>(obs_counter("sim.settled_changes"));
    layers.set("sim.glitch_share", transitions > 0 ? (transitions - settled) / transitions : 0.0);
    const double scalar_events = static_cast<double>(obs_counter("sim.events_processed"));
    std::uint64_t faults = 0;
    for (const std::size_t i : rep.indices) {
      const Desc& d = f.traffic.requests[i];
      if (d.op == kFaults && f.traffic.pool[d.design].inputs <= 64) {
        // Two faults per gate-driven net (sim::enumerate_faults).
        const auto nl = lv::check::require_netlist(build_request(f.traffic, i).inputs.at("netlist"));
        faults += lv::sim::enumerate_faults(nl).size();
      }
    }
    layers.set("sim.faults_graded", static_cast<double>(faults));
    lv::obs::set_enabled(false);

    Tracer::global().set_on(true);
    std::uint64_t ingest_bytes = 0;
    layer_replay(f.traffic, rep.indices, &ingest_bytes);
    Tracer::global().set_on(false);

    const auto agg = Tracer::global().aggregate();
    const auto mean_ms = [&agg](const std::string& name) {
      const auto it = agg.find(name);
      return it == agg.end() || it->second.calls == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.calls);
    };
    const auto total_ms = [&agg](const std::string& name) {
      const auto it = agg.find(name);
      return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    layers.set("check.ingest_ms", mean_ms("check.ingest"));
    layers.set("check.ingest_mb_per_s",
               total_ms("check.ingest") > 0
                   ? static_cast<double>(ingest_bytes) / 1e6 / (total_ms("check.ingest") / 1e3)
                   : 0.0);
    layers.set("analysis.context_ms", mean_ms("analysis.context"));
    layers.set("power.estimate_ms", mean_ms("power.estimate"));
    layers.set("power.glitch_ms", mean_ms("power.glitch"));
    layers.set("timing.sta_ms", mean_ms("timing.sta"));
    layers.set("opt.dual_vt_ms", mean_ms("opt.dual_vt"));
    layers.set("sim.scalar.replay_ms", mean_ms("sim.scalar.replay"));
    layers.set("sim.scalar.ns_per_event",
               scalar_events > 0 ? total_ms("sim.scalar.replay") * 1e6 / scalar_events : 0.0);
    layers.set("sim.fault_ms", mean_ms("sim.fault"));
    layers.set("sim.fault_us_per_fault",
               faults > 0 ? total_ms("sim.fault") * 1e3 / static_cast<double>(faults) : 0.0);

    // Client-side view of the traced rounds.
    std::vector<double> connect;
    double req_bytes = 0, resp_bytes = 0;
    std::map<std::string, std::vector<double>> rtt;
    for (const Region& r : traced)
      for (const Sent& s : r.sent) {
        connect.push_back(s.connect_ms);
        req_bytes += static_cast<double>(s.req_bytes);
        resp_bytes += static_cast<double>(s.resp_bytes);
        if (classify(f.traffic, s) == Outcome::ok)
          rtt[kServeOps[f.traffic.requests[s.index].op]].push_back(s.rtt_ms);
      }
    const double n = static_cast<double>(std::max<std::size_t>(connect.size(), 1));
    layers.set("svc.connect_ms", median(connect));
    layers.set("svc.req_kb", req_bytes / n / 1e3);
    layers.set("svc.resp_kb", resp_bytes / n / 1e3);
    std::map<std::string, std::vector<double>> service;
    std::vector<double> overhead;
    for (const auto& [i, ms] : rep.service_ms) {
      service[kServeOps[f.traffic.requests[i].op]].push_back(ms);
      const auto it = by_index.find(i);
      if (it != by_index.end() && classify(f.traffic, *it->second) == Outcome::ok)
        overhead.push_back(it->second->rtt_ms - ms);
    }
    for (const char* op : kServeOps) {
      layers.set(std::string{"svc.rtt_ms."} + op + ".p50", percentile(rtt[op], 50));
      layers.set(std::string{"svc.rtt_ms."} + op + ".p90", percentile(rtt[op], 90));
      layers.set(std::string{"svc.service_ms."} + op, median(service[op]));
    }
    layers.set("svc.overhead_ms", median(overhead));

    // Server internals, from its own `serve --stats-json` report.
    const auto v = [&stats](const char* name) { return report_value(stats, name); };
    layers.set("svc.rejected", v("svc.rejected_overload") + v("svc.rejected_deadline"));
    layers.set("svc.queue_depth_max", v("svc.queue_depth"));
    const double lookups = v("svc.cache_hits") + v("svc.cache_misses");
    layers.set("svc.session_hit_ratio", lookups > 0 ? v("svc.cache_hits") / lookups : 0.0);
    const double store_lookups = v("store.hits") + v("store.misses");
    layers.set("store.hit_ratio", store_lookups > 0 ? v("store.hits") / store_lookups : 0.0);
    layers.set("store.writes", v("store.writes"));
    layers.set("store.decodes", v("svc.cache_misses") - v("svc.netlist_parses"));
    layers.set("store.corrupt", v("store.corrupt"));
    const double compiles = report_value(stats, "sim.graph_compile_ns", "calls");
    layers.set("sim.compiles", compiles);
    layers.set("sim.compile_ms",
               compiles > 0 ? report_value(stats, "sim.graph_compile_ns", "total_ns") / 1e6 / compiles
                            : 0.0);
    layers.set("sim.incremental_recompiles", v("sim.incremental_recompiles"));
    layers.set("exec.width", kWorkers);
    // The server keeps its own lv::obs on in every round (--stats-json
    // needs it), so here this is the cost of the client-side spans.
    const double p50_plain = percentile(plain_log.latency_ms, 50);
    layers.set("obs.overhead_pct",
               p50_plain > 0 ? (percentile(traced_log.latency_ms, 50) / p50_plain - 1.0) * 100.0
                             : 0.0);
    layers.put_all(result);
  }
  result.attempted = e2e.ops.attempted();
  result.failed = failed;
  result.check(failed == 0,
               std::to_string(failed) + " request(s) failed outside the known defect");
  fs::remove_all(root);
  return result;
}

}  // namespace perfbench
