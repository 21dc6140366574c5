// Session cache semantics: byte-budgeted LRU eviction (deterministic via
// kEntryOverhead accounting), racing-miss dedup, and the artifact-store
// memo bank, which survives a restart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sim/sim_graph.hpp"
#include "store/artifact_store.hpp"
#include "svc/session.hpp"

namespace fs = std::filesystem;
namespace st = lv::store;
namespace svc = lv::svc;

namespace {

// Counter-delta assertions need metrics collection on (off by default).
[[maybe_unused]] const bool kObsEnabled = [] {
  lv::obs::set_enabled(true);
  return true;
}();

std::uint64_t sched_counter(const std::string& name) {
  const auto report = lv::obs::Registry::global().report();
  const auto it = report.scheduling_counters.find(name);
  return it == report.scheduling_counters.end() ? 0 : it->second;
}

class StoreDir {
 public:
  StoreDir() {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("lvsim_session_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

const char* kNetA =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "net t0\n"
    "net y\n"
    "gate g0 AND2 t0 a b\n"
    "gate g1 INV y t0\n"
    "output y\n";

}  // namespace

TEST(SvcSession, EvictionOrderIsLeastRecentlyUsed) {
  const std::string t1 =
      "lvnet 1\ninput a\nnet y\ngate g0 INV y a\noutput y\n";
  const std::string t2 =
      "lvnet 1\ninput a\nnet y\ngate g0 BUF y a\noutput y\n";
  const std::string t3 =
      "lvnet 1\ninput b\nnet z\ngate g1 INV z b\noutput z\n";

  // Budget: all three entries minus one byte — inserting the third must
  // evict exactly one entry (the LRU), after which two fit again.
  const std::uint64_t e1 = t1.size() + svc::Session::kEntryOverhead;
  const std::uint64_t e2 = t2.size() + svc::Session::kEntryOverhead;
  const std::uint64_t e3 = t3.size() + svc::Session::kEntryOverhead;
  svc::Session session{1, svc::Session::Options{nullptr, e1 + e2 + e3 - 1}};

  session.netlist(t1, "");
  session.netlist(t2, "");
  session.netlist(t1, "");  // touch t1: t2 becomes the LRU entry
  EXPECT_EQ(session.cached_bytes(), e1 + e2);

  const std::uint64_t evictions0 = sched_counter("svc.cache_evictions");
  const std::uint64_t parses0 = sched_counter("svc.netlist_parses");
  session.netlist(t3, "");
  EXPECT_EQ(sched_counter("svc.cache_evictions"), evictions0 + 1);
  EXPECT_EQ(session.cached_designs(), 2u);
  EXPECT_EQ(session.cached_bytes(), e1 + e3);

  // t1 survived (recently used): served from memory, no parse.
  session.netlist(t1, "");
  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0 + 1);  // t3 only
  // t2 was the victim: requesting it again costs a parse.
  session.netlist(t2, "");
  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0 + 2);
}

TEST(SvcSession, ZeroBudgetMeansUnbounded) {
  svc::Session session{1, svc::Session::Options{nullptr, 0}};
  const std::uint64_t evictions0 = sched_counter("svc.cache_evictions");
  for (int i = 0; i < 8; ++i) {
    const std::string name = "n" + std::to_string(i);
    session.netlist("lvnet 1\ninput a\nnet " + name + "\ngate g0 INV " +
                        name + " a\noutput " + name + "\n",
                    "");
  }
  EXPECT_EQ(session.cached_designs(), 8u);
  EXPECT_EQ(sched_counter("svc.cache_evictions"), evictions0);
}

TEST(SvcSession, RacingMissesKeepExactlyOneEntry) {
  // Every thread races the same cold text; all must end up sharing one
  // Design (the insert re-checks the bucket under the lock). The dedup
  // counter itself is scheduling-dependent — whether any thread actually
  // loses the race is timing — so only the invariants are asserted.
  svc::Session session{1};
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const svc::Session::Design>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&, i] { results[i] = session.netlist(kNetA, ""); });
  for (auto& t : threads) t.join();

  ASSERT_NE(results[0], nullptr);
  for (std::size_t i = 1; i < kThreads; ++i)
    EXPECT_EQ(results[i], results[0]) << "thread " << i;
  EXPECT_EQ(session.cached_designs(), 1u);
}

TEST(SvcSession, MemoBlobMergeKeepsTheLargerAndSurvivesRestart) {
  StoreDir dir;
  const st::Key128 key = st::hash128("process identity");
  {
    st::ArtifactStore store{{dir.path()}};
    svc::Session session{1, svc::Session::Options{&store}};
    EXPECT_EQ(session.memo_blob(key), "");
    session.merge_memo_blob(key, "abc");
    EXPECT_EQ(session.memo_blob(key), "abc");
    session.merge_memo_blob(key, "abcdef");  // larger wins
    EXPECT_EQ(session.memo_blob(key), "abcdef");
    session.merge_memo_blob(key, "xy");  // smaller is ignored
    session.merge_memo_blob(key, "");    // empty is ignored
    EXPECT_EQ(session.memo_blob(key), "abcdef");
  }
  // A fresh session over the same directory starts from the published
  // blob.
  st::ArtifactStore store{{dir.path()}};
  svc::Session session{2, svc::Session::Options{&store}};
  EXPECT_EQ(session.memo_blob(key), "abcdef");
}

TEST(SvcSession, StorelessSessionStillWorks) {
  svc::Session session{1};
  EXPECT_EQ(session.store(), nullptr);
  const auto design = session.netlist(kNetA, "");
  ASSERT_NE(design, nullptr);
  EXPECT_NE(design->graph(), nullptr);
  EXPECT_EQ(session.memo_blob(st::hash128("p")), "");
  session.merge_memo_blob(st::hash128("p"), "blob");
  EXPECT_EQ(session.memo_blob(st::hash128("p")), "blob");
}
