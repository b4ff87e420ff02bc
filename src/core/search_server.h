// The serving tier: keyword search over the snapshot core, spoken over
// HTTP (DESIGN.md §12).
//
// Splits into a transport-free front, the services built on it, and a thin
// server shell:
//
//   SearchFront — what every search endpoint shares: path dispatch, q/k/s
//     parsing with one set of bounds, per-status counters, Retry-After on
//     503, the /search latency histogram and the /stats JSON with its
//     transport-stats slot. SearchService (a node) and RouterService (the
//     router, core/search_router.h) are its two endpoints.
//
//   SearchService — answers /search against whatever IndexSnapshot is
//     currently published: the whole index, or one shard slice through a
//     ShardNode (shard-node mode). Adds the per-request deadline (504 with
//     the safe partial top-k) and the generation-keyed result cache. It
//     holds no sockets and no threads, so tests and oracles can call
//     Handle() directly.
//
//   SearchServer — SearchService behind a webapp::HttpServer (worker
//     pool + bounded admission queue with 503 shedding). One object is a
//     complete search node: point it at a SnapshotPublisher (live
//     updates) or a single snapshot, Start(), and query the port.
//
// Request grammar (all parameters URL-encoded):
//   GET /search?q=<kw>[&q=<kw>...]&k=<int>&s=<int>   top-k search
//   GET /stats                                        counters as JSON
//   GET /healthz                                      liveness probe
//
// Any other path answers 404.
//
// /search answers 200 with the canonical result rendering (one line per
// db-page; RenderResults — the byte-exact format the server≡engine oracle
// compares), 400 on a malformed query, 503 before the first snapshot is
// published, and 504 when the request's deadline expired mid-search (the
// body then carries the partial top-k found within budget, plus an
// X-Dash-Partial header). Every /search response names the snapshot
// generation it served from in X-Dash-Generation — generations a client
// observes are monotone because publication is (index_snapshot.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/index_snapshot.h"
#include "core/result_cache.h"
#include "core/sharded_engine.h"
#include "util/analysis_annotations.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "webapp/http_server.h"

namespace dash::core {

// What every search endpoint is configured with: its /search defaults and
// its HTTP transport.
struct FrontOptions {
  int num_workers = 4;              // HTTP worker threads
  std::size_t queue_capacity = 64;  // admission queue bound
  int retry_after_seconds = 1;      // Retry-After on 503
  int port = 0;                     // 0 = ephemeral
  int default_k = 10;               // k when the query omits it
  std::uint64_t default_s = 0;      // s (min page words) when omitted
};

struct ServeOptions : FrontOptions {
  int deadline_ms = 0;              // per-request budget; 0 = unlimited
  std::size_t cache_capacity = 0;   // result-cache entries; 0 = cache off
  // Shard-node mode (core/search_router.h): with 0 <= shard_index < shards
  // this node serves ONLY shard `shard_index` of `shards` — /search
  // answers the local top-k of that slice (one scatter leg). Both unset
  // (0 and -1) serve the whole index; any other combination is rejected
  // at construction.
  int shards = 0;
  int shard_index = -1;
  // Test hook: artificial delay (per /search request, before the engine
  // runs) so overload tests can hold workers busy deterministically.
  // Production configurations leave it 0.
  int debug_delay_ms = 0;
};

// Counters every front keeps, whichever endpoint it serves.
struct FrontCounters {
  std::uint64_t requests_total = 0;
  std::uint64_t ok = 0;               // 200
  std::uint64_t bad_request = 0;      // 400
  std::uint64_t not_found = 0;        // 404
  std::uint64_t unavailable = 0;      // 503
  std::uint64_t gateway_timeout = 0;  // 504 (deadline-truncated answer)
  // /search latency, admission to response, microseconds (400s are not
  // timed).
  std::uint64_t latency_count = 0;
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;
  std::uint64_t latency_p999_us = 0;
  std::uint64_t latency_max_us = 0;
};

// Point-in-time serving counters of one node (/stats renders these).
struct ServeCounters : FrontCounters {
  std::uint64_t generation = 0;  // currently served snapshot generation
  std::uint64_t searches = 0;    // engine searches actually executed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Cache entries dropped because a newer snapshot generation superseded
  // them (lazy Lookup evictions + eager PurgeSuperseded sweeps) — the
  // write-traffic pressure on the cache.
  std::uint64_t cache_evicted_superseded = 0;
};

// The parameters of one /search request.
struct SearchQuery {
  std::vector<std::string> keywords;  // q= values, verbatim, in order
  int k = 0;
  std::uint64_t min_page_words = 0;   // s
};

// Parses /search's parameters into `*query`: every q= value is one keyword
// string (the engine tokenizes it), 1 <= k <= 100000 and 0 <= s <= 2^62,
// with `options`' defaults for an omitted k or s; unknown fields are
// ignored. Returns null, or the 400 body naming what is malformed.
const char* ParseSearchQuery(const webapp::HttpRequest& request,
                             const FrontOptions& options, SearchQuery* query);

// A text/plain response.
webapp::HttpResponse TextResponse(int status, std::string body);

// The /stats body: a flat JSON object, one field per line, in call order.
class StatsJson {
 public:
  void Field(const char* name, std::uint64_t value) {
    Raw(name, std::to_string(value));
  }
  // A pre-rendered JSON value (signed numbers, booleans).
  void Raw(const char* name, const std::string& value);
  std::string Finish() const { return json_ + "\n}\n"; }

 private:
  std::string json_ = "{";
};

// The request front shared by SearchService and RouterService. Handle()
// dispatches /search to the endpoint and answers /stats, /healthz, / and
// every other path (404) itself. Counting is by response status on every
// path, every 503 gets Retry-After and every 504 X-Dash-Partial, and every
// /search not rejected with 400 is timed from admission.
class SearchFront {
 public:
  SearchFront(const SearchFront&) = delete;
  SearchFront& operator=(const SearchFront&) = delete;
  virtual ~SearchFront() = default;

  // Transport entry point; signature matches webapp::HttpServer::Handler.
  // `admitted` anchors the request's deadline (time queued counts).
  webapp::HttpResponse Handle(const webapp::HttpRequest& request,
                              std::chrono::steady_clock::time_point admitted);

  // Transport stats woven into /stats when set (ServeOverHttp wires this
  // to its HttpServer). The callable must be thread-safe; the slot itself
  // is guarded because a test may (re)wire it while workers serve /stats.
  void set_transport_stats(
      std::function<webapp::HttpServer::Stats()> provider)
      DASH_EXCLUDES(stats_mutex_) {
    util::MutexLock lock(stats_mutex_);
    transport_stats_ = std::move(provider);
  }

 protected:
  // `name` completes the "dash search <name>" banner that GET / answers.
  SearchFront(const char* name, int retry_after_seconds);

  // The endpoint's /search answer. Implementations are the DASH_HOT_PATH
  // roots of their endpoint.
  virtual webapp::HttpResponse HandleSearch(
      const webapp::HttpRequest& request,
      std::chrono::steady_clock::time_point admitted) = 0;
  // The endpoint's own /stats fields, written after the front's.
  virtual void WriteStats(StatsJson& json) = 0;

  FrontCounters front_counters() const;

  mutable util::Mutex stats_mutex_;

 private:
  webapp::HttpResponse HandleStats() DASH_EXCLUDES(stats_mutex_);

  const std::string banner_;
  const int retry_after_seconds_;
  std::function<webapp::HttpServer::Stats()> transport_stats_
      DASH_GUARDED_BY(stats_mutex_);

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> bad_request_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> gateway_timeout_{0};
  util::LatencyHistogram latency_;
};

// Puts `front` (which must outlive the server) behind a webapp::HttpServer
// configured from `options`, and wires the server's stats into /stats.
std::unique_ptr<webapp::HttpServer> ServeOverHttp(SearchFront& front,
                                                  const FrontOptions& options);

class SearchService : public SearchFront {
 public:
  // Serves whatever `publisher` currently publishes; the publisher must
  // outlive the service. Publications are picked up per request — no
  // restart, no invalidation call (the cache keys on generation). Throws
  // std::invalid_argument when `options` names a shard slice that does
  // not exist (see ServeOptions::shards).
  SearchService(const SnapshotPublisher& publisher,
                const ServeOptions& options);

  ServeCounters counters() const;
  const ServeOptions& options() const { return options_; }

  // Canonical, locale-free rendering of a result list — one "R" line per
  // db-page: score (%.17g, round-trip exact), word count, URL, member
  // fragment handles, and parameters. This is the /search response body
  // format AND the comparison key of the server≡engine oracle: a server
  // answer must equal RenderResults of the direct engine answer, byte for
  // byte.
  static std::string RenderResults(const std::vector<SearchResult>& results);

  // Exact inverse of RenderResults: the wire decode a router uses to merge
  // loopback-HTTP shard replies. Because scores render as %.17g (round-trip
  // exact) and the remaining fields are integers/verbatim strings,
  // RenderResults(ParseRenderedResults(body)) == body for every body
  // RenderResults can produce. Returns nullopt on any malformed line.
  static std::optional<std::vector<SearchResult>> ParseRenderedResults(
      const std::string& body);

  // Wired by the owner of an UpdatableIndex (or any compacting builder) so
  // /stats can surface the compaction count next to the snapshot's segment
  // count. The callable must be thread-safe.
  void set_compactions_provider(std::function<std::uint64_t()> provider)
      DASH_EXCLUDES(stats_mutex_) {
    util::MutexLock lock(stats_mutex_);
    compactions_ = std::move(provider);
  }

 private:
  // The /search fast path: snapshot pin, parse, cache probe, render.
  // DASH_HOT_PATH — dash_analyze proves it never allocates via new/
  // make_*, locks, logs, or blocks outside the two audited allowances
  // (the cache probe's own mutex, the top-k payload arena).
  webapp::HttpResponse HandleSearch(
      const webapp::HttpRequest& request,
      std::chrono::steady_clock::time_point admitted) override DASH_HOT_PATH;
  void WriteStats(StatsJson& json) override DASH_EXCLUDES(stats_mutex_);

  // The sanctioned slow path: everything a cache miss is allowed to do —
  // the debug delay, the engine search (possibly building a shard view)
  // and the cache fill. DASH_COLD_PATH stops the hot-path purity walk
  // here; dash_analyze lists the boundary in its audit summary.
  std::vector<SearchResult> ExecuteSearch(const SnapshotPtr& snapshot,
                                          const SearchQuery& query,
                                          SearchDeadline* deadline)
      DASH_COLD_PATH;

  const SnapshotPublisher* const publisher_;
  const ServeOptions options_;
  const std::unique_ptr<ShardNode> shard_node_;  // null: whole index
  const std::unique_ptr<ResultCache> cache_;     // null when cache off

  std::function<std::uint64_t()> compactions_ DASH_GUARDED_BY(stats_mutex_);

  // Highest generation the cache has been purged for (ExecuteSearch
  // sweeps superseded entries once per observed generation change, on the
  // cold path). Atomic CAS so concurrent misses purge exactly once.
  std::atomic<std::uint64_t> purged_generation_{0};
  std::atomic<std::uint64_t> searches_{0};
};

// A complete search node: service + HTTP transport.
class SearchServer {
 public:
  // Follows a live publication point (e.g. UpdatableIndex::publisher()).
  SearchServer(const SnapshotPublisher& publisher, ServeOptions options);

  // Serves one fixed snapshot (owns an internal publisher for it).
  SearchServer(SnapshotPtr snapshot, ServeOptions options);

  ~SearchServer();

  void Start();  // throws std::runtime_error when the port cannot be bound
  void Stop();
  int port() const { return http_->port(); }
  bool running() const { return http_->running(); }

  SearchService& service() { return *service_; }
  webapp::HttpServer::Stats transport_stats() const { return http_->stats(); }

 private:
  std::unique_ptr<SnapshotPublisher> owned_publisher_;  // fixed-snapshot form
  std::unique_ptr<SearchService> service_;
  std::unique_ptr<webapp::HttpServer> http_;
};

}  // namespace dash::core
