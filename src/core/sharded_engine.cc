#include "core/sharded_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/tokenizer.h"

namespace dash::core {

namespace {

// Shard assignment: hash of the equality-value prefix, so whole equality
// groups stay together (with no equality attributes there is one group and
// sharding degenerates to a single non-empty shard, which is correct: the
// group cannot be split without breaking page assembly).
std::size_t ShardOf(const db::Row& id, std::size_t num_eq,
                    std::size_t num_shards) {
  std::size_t h = 1469598103934665603ULL;
  for (std::size_t d = 0; d < num_eq; ++d) {
    h ^= id[d].Hash();
    h *= 1099511628211ULL;
  }
  return h % num_shards;
}

}  // namespace

ShardedEngine::ShardedEngine(webapp::WebAppInfo app, FragmentIndexBuild build,
                             int num_shards, util::ThreadPool* pool)
    : ShardedEngine(IndexSnapshot::Create(std::move(app), std::move(build)),
                    num_shards, pool) {}

ShardedEngine::ShardedEngine(SnapshotPtr snapshot, int num_shards,
                             util::ThreadPool* pool)
    : snapshot_(std::move(snapshot)), pool_(pool) {
  if (num_shards < 1) {
    throw std::invalid_argument("need at least one shard");
  }
  if (snapshot_ == nullptr) {
    throw std::invalid_argument("ShardedEngine: snapshot must not be null");
  }
  shard_count_ = static_cast<std::size_t>(num_shards);

  // Route each fragment to its shard.
  const FragmentCatalog& catalog = snapshot_->catalog();
  const std::size_t num_eq = snapshot_->graph().num_eq_attributes();
  shard_of_.resize(catalog.size());
  shard_sizes_.assign(shard_count_, 0);
  for (std::size_t f = 0; f < catalog.size(); ++f) {
    auto handle = static_cast<FragmentHandle>(f);
    shard_of_[f] = static_cast<std::uint32_t>(
        ShardOf(catalog.id(handle), num_eq, shard_count_));
    ++shard_sizes_[shard_of_[f]];
  }

  // A multi-segment snapshot has no single posting pool to rearrange:
  // materialize its live state as one merged build (same catalog handles,
  // cold one-time cost — a ShardNode already rebuilds its view per
  // generation). Single-segment snapshots borrow their index directly.
  if (snapshot_->segment_count() > 1) {
    owned_build_ =
        std::make_unique<const FragmentIndexBuild>(snapshot_->MergedBuild());
    index_ = &owned_build_->index;
  } else {
    index_ = &snapshot_->index();
  }

  // Rearrange the index's by-fragment pool into per-(term, shard) groups:
  // a per-term stable counting sort on the shard key keeps each group
  // fragment-ascending. Terms are independent, so the sort scatters
  // across the pool; each task writes only its own term's pool slice and
  // offset row (disjoint slots, ParallelFor's join is the read barrier —
  // the same invariant the old per-shard build relied on).
  const InvertedFragmentIndex& index = *index_;
  const std::size_t terms = index.keyword_count();
  const std::size_t row = shard_count_ + 1;
  seed_offsets_.assign(terms * row, 0);
  std::vector<std::uint32_t> term_base(terms, 0);
  std::uint32_t base = 0;
  for (std::size_t t = 0; t < terms; ++t) {
    term_base[t] = base;
    base += static_cast<std::uint32_t>(
        index.PostingsByFragment(static_cast<util::TermId>(t)).size());
  }
  seed_pool_.resize(base);
  this->pool().ParallelFor(terms, [&](std::size_t t) {
    std::span<const Posting> span =
        index.PostingsByFragment(static_cast<util::TermId>(t));
    std::uint32_t* off = &seed_offsets_[t * row];
    for (const Posting& p : span) ++off[shard_of_[p.fragment] + 1];
    off[0] = term_base[t];
    for (std::size_t s = 1; s <= shard_count_; ++s) off[s] += off[s - 1];
    // Reused per worker thread so the placement pass allocates nothing in
    // steady state (the construction-cost test counts on this).
    static thread_local std::vector<std::uint32_t> cursor;
    cursor.assign(off, off + shard_count_);
    for (const Posting& p : span) {
      seed_pool_[cursor[shard_of_[p.fragment]]++] = p;
    }
  });
}

std::span<const Posting> ShardedEngine::SeedSpan(util::TermId term,
                                                 std::size_t shard) const {
  if (term == util::kInvalidTermId) return {};
  const std::uint32_t* off = &seed_offsets_[term * (shard_count_ + 1)];
  return {seed_pool_.data() + off[shard], off[shard + 1] - off[shard]};
}

std::vector<SearchResult> ShardedEngine::Search(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, SearchDeadline* deadline) const {
  // Scatter: every shard computes its local top-k against the shared
  // snapshot, restricted to its own fragments via the seed spans. IDF
  // needs no correction — the shared index's df IS the global df. Each
  // task writes only per_shard[s]; ParallelFor joins before the gather
  // reads, so the merge order is thread-count-free.
  std::vector<std::vector<SearchResult>> per_shard(shard_count_);
  pool().ParallelFor(shard_count_, [&](std::size_t s) {
    per_shard[s] = SearchShard(s, keywords, k, min_page_words, deadline);
  });
  return MergeShardResults(std::move(per_shard), k);
}

std::vector<SearchResult> ShardedEngine::SearchShard(
    std::size_t shard, const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, SearchDeadline* deadline) const {
  // IDF from the whole index — a restricted seed span must not shrink
  // document frequencies.
  std::vector<TermPlan> plans;
  for (const std::string& token : QueryTokens(keywords)) {
    util::TermId term = index_->FindTerm(token);
    plans.push_back({index_->IdfId(term), SeedSpan(term, shard)});
  }
  const IndexSnapshot& snap = *snapshot_;
  TopKSearcher searcher(snap.catalog(), snap.graph(), snap.selection(),
                        snap.has_app() ? &snap.app() : nullptr);
  return searcher.Search(plans, k, min_page_words, /*max_seeds=*/0, deadline);
}

std::uint32_t ShardedEngine::ShardMaxOccurrences(util::TermId term,
                                                 std::size_t shard) const {
  std::uint32_t max_occurrences = 0;
  for (const Posting& p : SeedSpan(term, shard)) {
    if (p.occurrences > max_occurrences) max_occurrences = p.occurrences;
  }
  return max_occurrences;
}

std::vector<SearchResult> ShardedEngine::MergeShardResults(
    std::vector<std::vector<SearchResult>> per_shard, int k) {
  // Merge by score and keep k. Every shard reports *global* fragment
  // handles, and ascending handles == ascending identifier rows in a
  // canonical catalog, so sorting on (score desc, fragments asc)
  // reproduces exactly what an unsharded searcher reports (its own output
  // order uses the same key). Member sets never repeat across shards —
  // shards partition the fragments — so the key is unique.
  std::vector<SearchResult> merged;
  for (std::vector<SearchResult>& shard_results : per_shard) {
    for (SearchResult& r : shard_results) merged.push_back(std::move(r));
  }
  std::sort(merged.begin(), merged.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.fragments < b.fragments;
            });
  if (k >= 0 && merged.size() > static_cast<std::size_t>(k)) {
    merged.resize(static_cast<std::size_t>(k));
  }
  return merged;
}

// ---- ShardNode -------------------------------------------------------

ShardNode::ShardNode(const SnapshotPublisher& publisher, int shard_index,
                     int shard_total)
    : publisher_(&publisher),
      shard_index_(shard_index),
      shard_total_(shard_total) {
  if (shard_total < 1 || shard_index < 0 || shard_index >= shard_total) {
    throw std::invalid_argument(
        "ShardNode: need 0 <= shard_index < shards, got shard_index " +
        std::to_string(shard_index) + " of shards " +
        std::to_string(shard_total));
  }
}

ShardReply ShardNode::Serve(const SnapshotPtr& snapshot,
                            const std::vector<std::string>& keywords, int k,
                            std::uint64_t min_page_words,
                            SearchDeadline* deadline) {
  ShardReply reply;
  if (snapshot == nullptr) return reply;  // pre-publication: not serving
  reply.results = ViewFor(snapshot)->SearchShard(
      static_cast<std::size_t>(shard_index_), keywords, k, min_page_words,
      deadline);
  reply.ok = true;
  reply.partial = deadline != nullptr &&
                  deadline->expired.load(std::memory_order_relaxed);
  reply.generation = snapshot->generation();
  return reply;
}

ShardStatsReply ShardNode::TermStats(const SnapshotPtr& snapshot,
                                     const std::vector<std::string>& keywords) {
  ShardStatsReply reply;
  if (snapshot == nullptr) return reply;
  std::shared_ptr<const ShardedEngine> view = ViewFor(snapshot);
  const auto shard = static_cast<std::size_t>(shard_index_);
  for (const std::string& keyword : keywords) {
    for (std::string& token : util::Tokenize(keyword)) {
      ShardTermStats stats;
      util::TermId term = view->FindTerm(token);
      if (term != util::kInvalidTermId) {
        stats.df = view->ShardDf(term, shard);
        stats.max_occurrences = view->ShardMaxOccurrences(term, shard);
      }
      stats.token = std::move(token);
      reply.terms.push_back(std::move(stats));
    }
  }
  reply.ok = true;
  reply.generation = snapshot->generation();
  return reply;
}

void ShardNode::WarmView(std::shared_ptr<const ShardedEngine> view) {
  util::MutexLock lock(view_mutex_);
  if (view_ == nullptr || view_->snapshot()->generation() <
                              view->snapshot()->generation()) {
    view_ = std::move(view);
  }
}

std::shared_ptr<const ShardedEngine> ShardNode::ViewFor(
    const SnapshotPtr& snapshot) {
  {
    util::MutexLock lock(view_mutex_);
    if (view_ != nullptr &&
        view_->snapshot()->generation() == snapshot->generation()) {
      return view_;
    }
  }
  // Several requests racing a republication may each build once; the
  // freshest build wins the cache slot and the rest are dropped when their
  // temporary refcount drains. The caller gets the view of ITS snapshot
  // even if the slot now holds a newer one.
  auto built = std::make_shared<const ShardedEngine>(snapshot, shard_total_);
  {
    util::MutexLock lock(view_mutex_);
    if (view_ == nullptr || view_->snapshot()->generation() <
                                built->snapshot()->generation()) {
      view_ = built;
    }
  }
  return built;
}

}  // namespace dash::core
