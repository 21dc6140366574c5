// Cross-session, on-disk content-addressed artifact cache.
//
// ArtifactStore maps (kind, 128-bit content key) to an opaque payload
// under a cache directory, one entry per file (the ccache pattern):
//
//   <dir>/<kind>/<32-hex-key>.lvart
//
// Its one client is the Session's AnalysisContext memo bank (kind
// "memos", keyed by process identity), which lets a restarted server or
// a repeat CLI run start from the device-model memo tables an earlier
// process filled. Netlists and compiled graphs are not stored: a parse
// costs what reading a stored netlist back would, and compiling a graph
// is cheaper than decoding one.
//
// Entries are self-verifying (magic, version, kind, key, length, FNV-1a
// trailer checksum): a reader that finds anything off treats the entry
// as a miss and deletes it — a corrupt cache can cost a recompute, never
// a wrong answer. Writes go to a temp file and rename into place, so
// concurrent writers and readers (including other processes) only ever
// observe complete entries. A size-budgeted LRU sweep (by mtime; get()
// touches) keeps the directory bounded.
//
// All methods are safe to call from multiple threads and multiple
// processes at once; failures of the underlying filesystem degrade to
// cache misses, never exceptions.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "store/hash.hpp"

namespace lv::store {

struct StoreOptions {
  std::filesystem::path dir;
  // LRU sweep target; 0 disables sweeping (unbounded).
  std::uint64_t max_bytes = std::uint64_t{1} << 30;  // 1 GiB
};

struct StoreStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, std::uint64_t> entries_by_kind;
};

class ArtifactStore {
 public:
  explicit ArtifactStore(StoreOptions options);

  const std::filesystem::path& dir() const { return options_.dir; }
  std::uint64_t max_bytes() const { return options_.max_bytes; }

  // Checked read: payload of the entry at (kind, key), or nullopt on
  // miss. A present-but-invalid entry (bad magic/version/kind/key/
  // checksum, truncation) is deleted and reported as a miss
  // (store.corrupt). Hits bump the entry's mtime (LRU recency).
  std::optional<std::string> get(std::string_view kind, const Key128& key);

  // Atomic write (temp file + rename). Sweeps afterwards if a budget is
  // set. Returns false if the filesystem refused (cache stays
  // best-effort).
  bool put(std::string_view kind, const Key128& key, std::string_view payload);

  // Delete one entry. Missing entry is not an error.
  void remove(std::string_view kind, const Key128& key);

  // Walks the directory. entries/bytes cover *.lvart files only.
  StoreStats stats() const;

  // Removes every entry. Returns entries removed.
  std::uint64_t clear();

  // LRU sweep down to max_bytes (oldest mtime evicted first; ties broken
  // by file name so the order is deterministic). Called by put();
  // exposed for tests. Before unlinking a victim the sweep re-stats it:
  // an mtime that moved since the candidate scan means a concurrent
  // reader touched the entry (get() bumps recency on every hit), so the
  // victim is skipped for this round (store.sweep_skipped_busy) instead
  // of being deleted out from under a checksum verification.
  void sweep();

  // Test seam for the busy-skip contract: `pause` runs after the victim
  // list is collected and before the first unlink, where a concurrent
  // reader's recency touch would land.
  void sweep_with_pause(const std::function<void()>& pause);

 private:
  std::filesystem::path entry_path(std::string_view kind,
                                   const Key128& key) const;

  StoreOptions options_;
  std::uint64_t temp_seq_ = 0;
  std::mutex temp_mu_;
};

// Process-global store used by the CLI and server. Unconfigured (the
// default, and the state unit tests run in) means "no store": callers
// get nullptr and skip the disk entirely.
ArtifactStore* global_store();
void configure_global_store(StoreOptions options);
void disable_global_store();

// $LVSIM_CACHE_DIR, else $XDG_CACHE_HOME/lvsim, else $HOME/.cache/lvsim;
// empty when none of the three is resolvable (store stays disabled).
std::filesystem::path default_cache_dir();

}  // namespace lv::store
