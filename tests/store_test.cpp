// lv::store contract: the 128-bit content hash, the binio primitives it
// shares with every codec, and the on-disk artifact store — checked
// reads (corrupt/truncated entries are misses and get deleted, never
// trusted), atomic writes, stats/clear, and the deterministic LRU sweep.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "store/artifact_store.hpp"
#include "store/hash.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

namespace fs = std::filesystem;
namespace st = lv::store;
namespace u = lv::util;

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

// Unique per-test cache directory, removed on teardown.
class StoreDir {
 public:
  StoreDir() {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("lvsim_store_test_" + std::to_string(::getpid()) + "_" +
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

// The single .lvart file under <dir>/<kind>/ (entry paths are an
// implementation detail; tests locate them by walking).
fs::path only_entry_file(const fs::path& dir, const std::string& kind) {
  std::vector<fs::path> found;
  for (const auto& it : fs::directory_iterator(dir / kind))
    if (it.path().extension() == ".lvart") found.push_back(it.path());
  EXPECT_EQ(found.size(), 1u);
  return found.empty() ? fs::path{} : found.front();
}

}  // namespace

// ---- hash128 / FieldHasher / fnv1a64 ---------------------------------

TEST(Hash128, EmptyInputIsTheReferenceZeroVector) {
  // MurmurHash3 x64/128 of "" with seed 0 is {0, 0} — pins our
  // implementation to the reference algorithm's best-known vector.
  const st::Key128 k = st::hash128("");
  EXPECT_EQ(k.hi, 0u);
  EXPECT_EQ(k.lo, 0u);
}

TEST(Hash128, TailLengthsAllDistinct) {
  // One hash per length 0..40 exercises every tail-switch case and both
  // block/tail boundaries; all must differ.
  std::set<std::string> seen;
  std::string input;
  for (int len = 0; len <= 40; ++len) {
    seen.insert(st::to_hex(st::hash128(input)));
    input.push_back(static_cast<char>('a' + (len % 26)));
  }
  EXPECT_EQ(seen.size(), 41u);
}

TEST(Hash128, SingleBitFlipChangesBothWords) {
  const std::string a(64, 'x');
  std::string b = a;
  b[17] = 'y';
  const st::Key128 ka = st::hash128(a);
  const st::Key128 kb = st::hash128(b);
  EXPECT_NE(ka.hi, kb.hi);
  EXPECT_NE(ka.lo, kb.lo);
}

TEST(Hash128, ToHexIsHiThenLoFixedWidth) {
  const st::Key128 k{0x0123456789abcdefull, 0x00dcba9876543210ull};
  EXPECT_EQ(st::to_hex(k), "0123456789abcdef00dcba9876543210");
}

TEST(Hash128, FieldHasherFramesFields) {
  // Length-prefixed framing: moving a byte across a field boundary must
  // change the digest, and a composite never equals the flat hash.
  const st::Key128 ab_c = st::FieldHasher{}.field("ab").field("c").digest();
  const st::Key128 a_bc = st::FieldHasher{}.field("a").field("bc").digest();
  const st::Key128 flat = st::hash128("abc");
  EXPECT_FALSE(ab_c == a_bc);
  EXPECT_FALSE(ab_c == flat);
  // Deterministic: same fields, same digest.
  EXPECT_TRUE(ab_c == st::FieldHasher{}.field("ab").field("c").digest());
}

TEST(Hash128, Fnv1a64KnownVectors) {
  EXPECT_EQ(st::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(st::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

// ---- binio -----------------------------------------------------------

TEST(BinIo, RoundTripsEveryPrimitive) {
  u::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5e-6);
  w.str("hello");
  w.str("");  // empty strings are legal
  const std::string blob = w.take();

  u::ByteReader r{blob};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.5e-6);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, TruncatedReadThrows) {
  u::ByteWriter w;
  w.u32(7);
  const std::string blob = w.take();
  u::ByteReader r{blob};
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), u::Error);
  // A length prefix pointing past the end is also truncation.
  u::ByteReader r2{blob};  // says "7 bytes follow" but none do
  EXPECT_THROW(r2.str(), u::Error);
}

// ---- ArtifactStore ---------------------------------------------------

TEST(ArtifactStore, PutGetRoundTrip) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("some design text");
  EXPECT_FALSE(store.get("design", key).has_value());  // cold miss
  ASSERT_TRUE(store.put("design", key, "payload bytes"));
  const auto back = store.get("design", key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "payload bytes");
  // Kinds are separate namespaces.
  EXPECT_FALSE(store.get("memos", key).has_value());
}

TEST(ArtifactStore, CorruptEntryIsAMissAndGetsDeleted) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");
  ASSERT_TRUE(store.put("design", key, "the payload"));
  const fs::path file = only_entry_file(dir.path(), "design");

  // Flip one payload byte on disk: the checksum must catch it.
  std::string bytes;
  {
    std::ifstream in{file, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream{file, std::ios::binary} << bytes;

  const std::uint64_t corrupt_before = sched_counter("store.corrupt");
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_EQ(sched_counter("store.corrupt"), corrupt_before + 1);
  EXPECT_FALSE(fs::exists(file)) << "corrupt entry must be deleted";
  // And it stays a plain miss afterwards (no crash loop on re-read).
  EXPECT_FALSE(store.get("design", key).has_value());
}

TEST(ArtifactStore, TruncatedEntryIsAMissAndGetsDeleted) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k2");
  ASSERT_TRUE(store.put("design", key, std::string(256, 'p')));
  const fs::path file = only_entry_file(dir.path(), "design");
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_FALSE(fs::exists(file));
}

TEST(ArtifactStore, EntryUnderWrongKeyIsAMiss) {
  // Simulates a renamed/copied cache file (or a colliding key whose
  // payload embeds the other input): the key recorded *inside* the entry
  // disagrees with the file name it was read under.
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("original");
  ASSERT_TRUE(store.put("design", key, "payload"));
  const fs::path file = only_entry_file(dir.path(), "design");
  const st::Key128 other = st::hash128("imposter");
  const fs::path imposter =
      file.parent_path() / (st::to_hex(other) + ".lvart");
  fs::copy_file(file, imposter);
  EXPECT_FALSE(store.get("design", other).has_value());
  EXPECT_FALSE(fs::exists(imposter)) << "mismatched entry must be deleted";
  EXPECT_TRUE(store.get("design", key).has_value()) << "original untouched";
}

TEST(ArtifactStore, RemoveAndStatsAndClear) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 k1 = st::hash128("one");
  const st::Key128 k2 = st::hash128("two");
  ASSERT_TRUE(store.put("design", k1, "aaaa"));
  ASSERT_TRUE(store.put("design", k2, "bbbb"));
  ASSERT_TRUE(store.put("memos", k1, "cccc"));

  st::StoreStats s = store.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.entries_by_kind.at("design"), 2u);
  EXPECT_EQ(s.entries_by_kind.at("memos"), 1u);

  store.remove("design", k1);
  EXPECT_FALSE(store.get("design", k1).has_value());
  EXPECT_TRUE(store.get("design", k2).has_value());
  EXPECT_EQ(store.stats().entries, 2u);
  store.remove("design", k1);  // double remove is fine

  EXPECT_EQ(store.clear(), 2u);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_FALSE(store.get("design", k2).has_value());
  EXPECT_FALSE(store.get("memos", k1).has_value());
}

TEST(ArtifactStore, SweepEvictsOldestMtimeFirst) {
  StoreDir dir;
  // Unbounded writer first, so put() does not sweep while we arrange
  // mtimes; the budgeted instance over the same directory then sweeps.
  st::ArtifactStore writer{{dir.path(), 0}};
  const st::Key128 old_key = st::hash128("old");
  const st::Key128 mid_key = st::hash128("mid");
  const st::Key128 new_key = st::hash128("new");
  const std::string payload(600, 'x');
  ASSERT_TRUE(writer.put("design", old_key, payload));
  ASSERT_TRUE(writer.put("design", mid_key, payload));
  ASSERT_TRUE(writer.put("design", new_key, payload));

  // Pin recency explicitly (the sweep orders by mtime, tie-broken by
  // name) — no sleeps, no filesystem-timestamp-granularity flakes.
  const auto now = fs::file_time_type::clock::now();
  using std::chrono::hours;
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(old_key) + ".lvart"), now - hours(3));
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(mid_key) + ".lvart"), now - hours(2));
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(new_key) + ".lvart"), now - hours(1));

  const std::uint64_t total = writer.stats().bytes;
  // Budget for two entries: exactly the oldest must go.
  const std::uint64_t evictions_before = sched_counter("store.evictions");
  st::ArtifactStore budgeted{{dir.path(), total - 1}};
  budgeted.sweep();
  EXPECT_EQ(sched_counter("store.evictions"), evictions_before + 1);
  EXPECT_FALSE(budgeted.get("design", old_key).has_value());
  EXPECT_TRUE(budgeted.get("design", mid_key).has_value());
  EXPECT_TRUE(budgeted.get("design", new_key).has_value());
}

TEST(ArtifactStore, GetRefreshesRecencySoHotEntriesSurviveSweep) {
  StoreDir dir;
  st::ArtifactStore writer{{dir.path(), 0}};
  const st::Key128 hot = st::hash128("hot");
  const st::Key128 cold = st::hash128("cold");
  const std::string payload(600, 'x');
  ASSERT_TRUE(writer.put("design", hot, payload));
  ASSERT_TRUE(writer.put("design", cold, payload));
  const auto now = fs::file_time_type::clock::now();
  using std::chrono::hours;
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(hot) + ".lvart"), now - hours(4));
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(cold) + ".lvart"), now - hours(2));

  // The read touches `hot`, making `cold` the LRU victim even though it
  // was written later.
  ASSERT_TRUE(writer.get("design", hot).has_value());
  st::ArtifactStore budgeted{{dir.path(), writer.stats().bytes - 1}};
  budgeted.sweep();
  EXPECT_TRUE(budgeted.get("design", hot).has_value());
  EXPECT_FALSE(budgeted.get("design", cold).has_value());
}

TEST(ArtifactStore, SweepSkipsVictimsTouchedByConcurrentReaders) {
  StoreDir dir;
  st::ArtifactStore writer{{dir.path(), 0}};
  const st::Key128 old_key = st::hash128("old");
  const st::Key128 mid_key = st::hash128("mid");
  const st::Key128 new_key = st::hash128("new");
  const std::string payload(600, 'x');
  ASSERT_TRUE(writer.put("design", old_key, payload));
  ASSERT_TRUE(writer.put("design", mid_key, payload));
  ASSERT_TRUE(writer.put("design", new_key, payload));
  const auto now = fs::file_time_type::clock::now();
  using std::chrono::hours;
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(old_key) + ".lvart"), now - hours(3));
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(mid_key) + ".lvart"), now - hours(2));
  fs::last_write_time(
      dir.path() / "design" / (st::to_hex(new_key) + ".lvart"), now - hours(1));

  // Budget forcing one eviction; the chosen victim (oldest mtime) gets
  // read — i.e. recency-touched — in the window between the sweep's
  // victim scan and its first unlink. The open-then-stat guard must
  // notice and skip it rather than yank it out from under the reader,
  // and eviction progress must continue with the next victim.
  st::ArtifactStore budgeted{{dir.path(), writer.stats().bytes - 1}};
  const std::uint64_t skipped0 = sched_counter("store.sweep_skipped_busy");
  budgeted.sweep_with_pause(
      [&] { EXPECT_TRUE(writer.get("design", old_key).has_value()); });
  EXPECT_EQ(sched_counter("store.sweep_skipped_busy"), skipped0 + 1);
  EXPECT_TRUE(budgeted.get("design", old_key).has_value())
      << "a victim touched by a concurrent reader must survive the round";
  EXPECT_FALSE(budgeted.get("design", mid_key).has_value())
      << "the sweep still makes progress on the next-oldest victim";
  EXPECT_TRUE(budgeted.get("design", new_key).has_value());
}

TEST(ArtifactStore, HitAndMissCountersMove) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("counted");
  const std::uint64_t hits0 = sched_counter("store.hits");
  const std::uint64_t misses0 = sched_counter("store.misses");
  const std::uint64_t writes0 = sched_counter("store.writes");
  EXPECT_FALSE(store.get("design", key).has_value());
  ASSERT_TRUE(store.put("design", key, "p"));
  EXPECT_TRUE(store.get("design", key).has_value());
  EXPECT_EQ(sched_counter("store.hits"), hits0 + 1);
  EXPECT_EQ(sched_counter("store.misses"), misses0 + 1);
  EXPECT_EQ(sched_counter("store.writes"), writes0 + 1);
}

TEST(ArtifactStore, UnwritableDirectoryDegradesToMisses) {
  // A store pointed at an uncreatable path must never throw — every
  // operation degrades to a miss / no-op.
  st::ArtifactStore store{{"/proc/definitely/not/writable/lvsim"}};
  const st::Key128 key = st::hash128("x");
  EXPECT_FALSE(store.put("design", key, "p"));
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.clear(), 0u);
}
