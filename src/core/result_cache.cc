#include "core/result_cache.h"

#include <stdexcept>

#include "util/csv.h"

namespace dash::core {

std::string ResultCache::MakeKey(const std::vector<std::string>& keywords,
                                 int k, std::uint64_t min_page_words) {
  // Keywords in request order: the searcher sums per-term score
  // contributions in query order, so {"a","b","c"} and {"c","b","a"} can
  // render different scores — one order must never answer another.
  std::vector<std::string> fields = keywords;
  fields.push_back("k=" + std::to_string(k));
  fields.push_back("s=" + std::to_string(min_page_words));
  return util::EncodeFields(fields);
}

std::optional<std::vector<SearchResult>> ResultCache::Lookup(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, std::uint64_t generation) {
  std::string key = MakeKey(keywords, k, min_page_words);
  // The audited hot-path allowance: a cache *is* shared mutable state, so
  // the probe takes the cache mutex — the critical section is a hash
  // probe and a list splice, never a search.
  util::MutexLock lock(mutex_);  // dash-analyze: allow(hot-lock)
  auto it = map_.find(key);
  if (it == map_.end() || it->second->generation != generation) {
    ++stats_.misses;
    if (it != map_.end()) {  // stale entry from a previous generation
      ++stats_.evicted_superseded;
      lru_.erase(it->second);
      map_.erase(it);
    }
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->results;
}

void ResultCache::Insert(const std::vector<std::string>& keywords, int k,
                         std::uint64_t min_page_words,
                         std::uint64_t generation,
                         std::vector<SearchResult> results) {
  if (capacity_ == 0) return;
  std::string key = MakeKey(keywords, k, min_page_words);
  util::MutexLock lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.erase(it->second);
    map_.erase(it);
  }
  lru_.push_front(Entry{key, generation, std::move(results)});
  map_[std::move(key)] = lru_.begin();
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::size_t ResultCache::PurgeSuperseded(std::uint64_t current_generation) {
  util::MutexLock lock(mutex_);
  std::size_t purged = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    // Strictly-older only: an entry freshly inserted by a racing request
    // that already serves a generation newer than the caller's view must
    // survive.
    if (it->generation < current_generation) {
      map_.erase(it->key);
      it = lru_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  stats_.evicted_superseded += purged;
  return purged;
}

std::size_t ResultCache::size() const {
  util::MutexLock lock(mutex_);
  return lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::vector<SearchResult> CachingEngine::Search(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words) {
  // Acquire the live snapshot once; everything below — cache key and
  // search — is consistent with that one generation even if a writer
  // republishes mid-query.
  SnapshotPtr snapshot =
      publisher_ != nullptr ? publisher_->Current() : engine_->snapshot();
  if (snapshot == nullptr) {
    throw std::logic_error("CachingEngine: nothing published yet");
  }
  std::uint64_t generation = snapshot->generation();
  if (auto cached = cache_.Lookup(keywords, k, min_page_words, generation)) {
    return std::move(*cached);
  }
  std::vector<SearchResult> results =
      snapshot->Search(keywords, k, min_page_words);
  cache_.Insert(keywords, k, min_page_words, generation, results);
  return results;
}

}  // namespace dash::core
