// Query-result cache for the serving path.
//
// Search engines answer a heavily skewed query distribution; caching the
// (keywords, k, s) -> results mapping short-circuits repeated hot queries.
// Keywords key in request order (scores sum per-term contributions in that
// order, so a reordered query is a different query to the cache).
// An LRU policy bounds memory. Cache validity is tied to the index by the
// snapshot generation id: every Lookup/Insert names the generation the
// caller is serving, and an entry only hits for its own generation — the
// moment a new snapshot is published, all older entries are stale, with no
// manual invalidation call anywhere. Since generations are process-wide
// unique (core/index_snapshot.h), entries of unrelated engines can never
// collide either.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dash_engine.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dash::core {

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    // Entries dropped because their generation was superseded by a newer
    // published snapshot — lazily on Lookup plus eagerly by
    // PurgeSuperseded. Under sustained writes this, not capacity, is the
    // dominant eviction reason; /stats surfaces it so an operator can see
    // churn eating the hit rate.
    std::uint64_t evicted_superseded = 0;
    double HitRate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  // Returns the results cached for this query under snapshot `generation`,
  // or nullopt (an entry from another generation is stale and evicted).
  // Thread-safe. DASH_HOT_PATH: the /search fast path probes this on
  // every request — the one audited allowance is its own short
  // mutex-protected map/LRU critical section.
  std::optional<std::vector<SearchResult>> Lookup(
      const std::vector<std::string>& keywords, int k,
      std::uint64_t min_page_words, std::uint64_t generation) DASH_HOT_PATH;

  // Stores results computed against snapshot `generation` (evicting the
  // least recently used entry beyond capacity). Thread-safe.
  void Insert(const std::vector<std::string>& keywords, int k,
              std::uint64_t min_page_words, std::uint64_t generation,
              std::vector<SearchResult> results);

  // Eagerly drops every entry older than `current_generation`, returning
  // how many were dropped (also counted in stats().evicted_superseded).
  // Lazy Lookup eviction only reclaims entries whose exact query recurs;
  // under sustained writes the rest would sit as dead weight squeezing
  // live entries out of the LRU — the serving tier calls this once per
  // observed generation change, off the hot path. Thread-safe.
  std::size_t PurgeSuperseded(std::uint64_t current_generation);

  std::size_t size() const;
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::uint64_t generation;
    std::vector<SearchResult> results;
  };

  static std::string MakeKey(const std::vector<std::string>& keywords, int k,
                             std::uint64_t min_page_words);

  mutable util::Mutex mutex_;
  const std::size_t capacity_;  // immutable after construction: no lock
  // front = most recent
  std::list<Entry> lru_ DASH_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> map_
      DASH_GUARDED_BY(mutex_);
  Stats stats_ DASH_GUARDED_BY(mutex_);
};

// A serving engine paired with a ResultCache: the drop-in caching wrapper.
// Each Search acquires the live snapshot once, and the cache keys on its
// generation — after a republication (UpdatableIndex update, engine
// reassignment, reload) stale entries miss automatically.
class CachingEngine {
 public:
  // Serves the engine's snapshot (re-read per query, so reassigning the
  // engine to a new snapshot is picked up automatically).
  CachingEngine(const DashEngine& engine, std::size_t cache_capacity)
      : engine_(&engine), cache_(cache_capacity) {}

  // Follows a live publication point: every query serves whatever snapshot
  // is currently published (e.g. UpdatableIndex::publisher()).
  CachingEngine(const SnapshotPublisher& publisher,
                std::size_t cache_capacity)
      : publisher_(&publisher), cache_(cache_capacity) {}

  std::vector<SearchResult> Search(const std::vector<std::string>& keywords,
                                   int k, std::uint64_t min_page_words);

  const ResultCache& cache() const { return cache_; }

 private:
  // Exactly one of engine_/publisher_ is set.
  const DashEngine* engine_ = nullptr;
  const SnapshotPublisher* publisher_ = nullptr;
  ResultCache cache_;
};

}  // namespace dash::core
