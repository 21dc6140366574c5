#include "svc/session.hpp"

#include <algorithm>

#include "check/ingest.hpp"
#include "obs/metrics.hpp"

namespace lv::svc {

namespace {

// Cache traffic depends on request interleaving across workers (a racing
// double-parse counts two misses), so these are scheduling counters.
lv::obs::Counter& cache_hits() {
  static auto& c = lv::obs::Registry::global().counter(
      "svc.cache_hits", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& cache_misses() {
  static auto& c = lv::obs::Registry::global().counter(
      "svc.cache_misses", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& cache_evictions() {
  static auto& c = lv::obs::Registry::global().counter(
      "svc.cache_evictions", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& cache_dedups() {
  static auto& c = lv::obs::Registry::global().counter(
      "svc.cache_dedups", lv::obs::Stability::scheduling);
  return c;
}
// Actual text-parser runs: every session-cache miss is one.
lv::obs::Counter& netlist_parses() {
  static auto& c = lv::obs::Registry::global().counter(
      "svc.netlist_parses", lv::obs::Stability::scheduling);
  return c;
}

constexpr char kMemosKind[] = "memos";

}  // namespace

std::uint64_t content_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::shared_ptr<const sim::SimGraph> Session::Design::graph() const {
  std::lock_guard<std::mutex> lock{mu_};
  if (graph_ == nullptr)
    graph_ = std::make_shared<const sim::SimGraph>(netlist_);
  return graph_;
}

std::shared_ptr<const Session::Design> Session::insert_design(
    const std::uint64_t key, const std::string& text,
    std::shared_ptr<const Design> design) {
  std::lock_guard<std::mutex> lock{mu_};
  auto& bucket = designs_[key];
  for (auto& entry : bucket)
    if (entry.text == text) {
      // A racing miss won the parse; adopt its value and drop ours so
      // the bucket holds exactly one entry per text.
      cache_dedups().add(1);
      entry.last_use = ++use_clock_;
      return entry.value;
    }
  bucket.push_back(
      {text, design, text.size() + kEntryOverhead, ++use_clock_});
  cached_bytes_ += bucket.back().bytes;
  evict_locked();
  return design;
}

std::shared_ptr<const tech::Process> Session::insert_process(
    const std::uint64_t key, const std::string& text,
    std::shared_ptr<const tech::Process> process) {
  std::lock_guard<std::mutex> lock{mu_};
  auto& bucket = processes_[key];
  for (auto& entry : bucket)
    if (entry.text == text) {
      cache_dedups().add(1);
      entry.last_use = ++use_clock_;
      return entry.value;
    }
  bucket.push_back(
      {text, process, text.size() + kEntryOverhead, ++use_clock_});
  cached_bytes_ += bucket.back().bytes;
  evict_locked();
  return process;
}

void Session::evict_locked() {
  if (options_.max_cache_bytes == 0) return;
  while (cached_bytes_ > options_.max_cache_bytes) {
    // Find the least recently used entry across both caches. Linear scan:
    // eviction only triggers past a multi-hundred-MiB budget, where the
    // scan is noise next to the parses that got us here.
    std::uint64_t oldest = ~std::uint64_t{0};
    const std::vector<Entry<Design>>* dbucket = nullptr;
    const std::vector<Entry<tech::Process>>* pbucket = nullptr;
    std::uint64_t dkey = 0;
    std::uint64_t pkey = 0;
    std::size_t victim_idx = 0;
    for (const auto& [key, bucket] : designs_)
      for (std::size_t i = 0; i < bucket.size(); ++i)
        if (bucket[i].last_use < oldest) {
          oldest = bucket[i].last_use;
          dbucket = &bucket;
          dkey = key;
          victim_idx = i;
          pbucket = nullptr;
        }
    for (const auto& [key, bucket] : processes_)
      for (std::size_t i = 0; i < bucket.size(); ++i)
        if (bucket[i].last_use < oldest) {
          oldest = bucket[i].last_use;
          pbucket = &bucket;
          pkey = key;
          victim_idx = i;
          dbucket = nullptr;
        }
    if (dbucket == nullptr && pbucket == nullptr) return;  // nothing left
    if (dbucket != nullptr) {
      auto& bucket = designs_[dkey];
      cached_bytes_ -= bucket[victim_idx].bytes;
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(victim_idx));
      if (bucket.empty()) designs_.erase(dkey);
    } else {
      auto& bucket = processes_[pkey];
      cached_bytes_ -= bucket[victim_idx].bytes;
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(victim_idx));
      if (bucket.empty()) processes_.erase(pkey);
    }
    cache_evictions().add(1);
  }
}

std::shared_ptr<const Session::Design> Session::netlist(
    const std::string& text, const std::string& origin) {
  const std::uint64_t key = content_hash(text);
  {
    std::lock_guard<std::mutex> lock{mu_};
    if (const auto it = designs_.find(key); it != designs_.end())
      for (auto& entry : it->second)
        if (entry.text == text) {
          cache_hits().add(1);
          entry.last_use = ++use_clock_;
          return entry.value;
        }
  }
  cache_misses().add(1);

  // Parse outside the lock: ingest is the expensive part, and holding the
  // session mutex across it would serialize every worker on one slow
  // upload.
  netlist_parses().add(1);
  auto design =
      std::make_shared<const Design>(check::require_netlist(text, origin));
  return insert_design(key, text, std::move(design));
}

std::shared_ptr<const tech::Process> Session::tech(
    const std::string& text, const std::string& origin) {
  const std::uint64_t key = content_hash(text);
  {
    std::lock_guard<std::mutex> lock{mu_};
    if (const auto it = processes_.find(key); it != processes_.end())
      for (auto& entry : it->second)
        if (entry.text == text) {
          cache_hits().add(1);
          entry.last_use = ++use_clock_;
          return entry.value;
        }
  }
  cache_misses().add(1);
  auto process = std::make_shared<const tech::Process>(
      check::require_techfile(text, origin));
  return insert_process(key, text, std::move(process));
}

std::string Session::memo_blob(const store::Key128& key) {
  const std::string hex = store::to_hex(key);
  {
    std::lock_guard<std::mutex> lock{memo_mu_};
    if (const auto it = memo_blobs_.find(hex); it != memo_blobs_.end())
      return it->second;
  }
  if (options_.store == nullptr) return {};
  auto payload = options_.store->get(kMemosKind, key);
  if (!payload) return {};
  std::lock_guard<std::mutex> lock{memo_mu_};
  auto& slot = memo_blobs_[hex];
  if (slot.size() < payload->size()) slot = std::move(*payload);
  return slot;
}

void Session::merge_memo_blob(const store::Key128& key, std::string blob) {
  if (blob.empty()) return;
  const std::string hex = store::to_hex(key);
  bool publish = false;
  {
    std::lock_guard<std::mutex> lock{memo_mu_};
    auto& slot = memo_blobs_[hex];
    // Size as a growth proxy: export is deterministic (ordered maps,
    // fixed-width fields), so a strictly larger blob has strictly more
    // entries.
    if (blob.size() > slot.size()) {
      slot = std::move(blob);
      publish = true;
    }
  }
  if (publish && options_.store != nullptr) {
    std::lock_guard<std::mutex> lock{memo_mu_};
    options_.store->put(kMemosKind, key, memo_blobs_[hex]);
  }
}

std::size_t Session::cached_designs() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::size_t n = 0;
  for (const auto& [key, bucket] : designs_) n += bucket.size();
  return n;
}

std::size_t Session::cached_processes() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::size_t n = 0;
  for (const auto& [key, bucket] : processes_) n += bucket.size();
  return n;
}

std::uint64_t Session::cached_bytes() const {
  std::lock_guard<std::mutex> lock{mu_};
  return cached_bytes_;
}

}  // namespace lv::svc
