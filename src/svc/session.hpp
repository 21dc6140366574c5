// Per-session cached parse/compile state.
//
// Power-exploration traffic is iterative: many requests against the same
// netlist/tech baseline, varying only operating points. A Session keys
// parsed netlists (plus their lazily compiled sim::SimGraph) and parsed
// processes by a 64-bit content hash, so the second request over the
// same bytes in one session skips ingest and graph compilation. Hash
// matches are verified against the stored text before reuse — a
// collision can cost a reparse, never a wrong answer. A request the
// session has not seen parses its netlist through check::require_netlist
// and compiles the graph only if it simulates.
//
// When constructed over an lv::store::ArtifactStore, the session also
// keeps the AnalysisContext memo bank there (one "memos" entry per
// process), so the next process starts from the device-model tables this
// one filled. Designs are not stored (see store/artifact_store.hpp).
//
// The in-memory side is byte-budgeted: inserts evict the least recently
// used entries (svc.cache_evictions) so a long-lived server accumulating
// distinct uploads stays bounded.
//
// One Session per protocol connection (the server), one per process (the
// CLI). Thread-safe: a session's requests may run on several svc workers
// concurrently; racing misses may both parse, but the insert re-checks
// the bucket under the lock and keeps exactly one entry (the loser
// adopts the winner's value).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"
#include "store/artifact_store.hpp"
#include "tech/techfile.hpp"

namespace lv::svc {

// FNV-1a, the cache key for inline payloads.
std::uint64_t content_hash(std::string_view text);

class Session {
 public:
  // A parsed netlist plus its compiled simulation graph. The graph is
  // built on first use and shared by every simulator the session runs
  // over this design afterwards.
  class Design {
   public:
    explicit Design(circuit::Netlist nl) : netlist_(std::move(nl)) {}
    const circuit::Netlist& netlist() const { return netlist_; }
    // Lazily compiles (once) and returns the shared SimGraph. The graph
    // references netlist(), which this Design keeps alive.
    std::shared_ptr<const sim::SimGraph> graph() const;

   private:
    circuit::Netlist netlist_;
    mutable std::mutex mu_;
    mutable std::shared_ptr<const sim::SimGraph> graph_;
  };

  struct Options {
    // Cross-session artifact store; nullptr = in-memory only.
    store::ArtifactStore* store = nullptr;
    // In-memory cache budget (accounted as text bytes + kEntryOverhead
    // per entry); 0 = unbounded.
    std::uint64_t max_cache_bytes = std::uint64_t{256} << 20;  // 256 MiB
  };

  // Flat per-entry overhead charged against max_cache_bytes on top of
  // the source text (parsed structures, compiled graph). A coarse model,
  // but a deterministic one — the eviction-order test depends on it.
  static constexpr std::uint64_t kEntryOverhead = 4096;

  // Two overloads instead of `Options options = {}`: GCC rejects a {}
  // default argument for a nested class with default member initializers
  // (PR 88165).
  explicit Session(std::uint64_t id) : Session(id, Options{}) {}
  Session(std::uint64_t id, Options options) : id_(id), options_(options) {}

  std::uint64_t id() const { return id_; }
  store::ArtifactStore* store() const { return options_.store; }

  // Parse-or-reuse. `origin` labels diagnostics (the user-visible file
  // name); parse errors throw InputError exactly like the direct
  // require_* boundary.
  std::shared_ptr<const Design> netlist(const std::string& text,
                                        const std::string& origin);
  std::shared_ptr<const tech::Process> tech(const std::string& text,
                                            const std::string& origin);

  // ---- AnalysisContext memo bank ------------------------------------
  // Serialized memo tables keyed by process identity (store::Key128),
  // shared across requests and (through the store) across sessions and
  // restarts. memo_blob returns the current blob ("" when none);
  // merge_memo_blob keeps the larger of current/offered and publishes
  // updates to the store.
  std::string memo_blob(const store::Key128& key);
  void merge_memo_blob(const store::Key128& key, std::string blob);

  // ---- introspection (cache stats op, tests) ------------------------
  std::size_t cached_designs() const;
  std::size_t cached_processes() const;
  std::uint64_t cached_bytes() const;
  std::uint64_t max_cache_bytes() const { return options_.max_cache_bytes; }

 private:
  template <typename T>
  struct Entry {
    std::string text;
    std::shared_ptr<const T> value;
    std::uint64_t bytes = 0;
    std::uint64_t last_use = 0;  // logical clock, for LRU eviction
  };

  // Insert-or-adopt under the lock (the racing-miss dedup), then evict
  // down to budget.
  std::shared_ptr<const Design> insert_design(
      std::uint64_t key, const std::string& text,
      std::shared_ptr<const Design> design);
  std::shared_ptr<const tech::Process> insert_process(
      std::uint64_t key, const std::string& text,
      std::shared_ptr<const tech::Process> process);
  void evict_locked();

  std::uint64_t id_;
  Options options_;
  mutable std::mutex mu_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t cached_bytes_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry<Design>>> designs_;
  std::unordered_map<std::uint64_t, std::vector<Entry<tech::Process>>>
      processes_;

  std::mutex memo_mu_;
  std::unordered_map<std::string, std::string> memo_blobs_;  // by key hex
};

}  // namespace lv::svc
