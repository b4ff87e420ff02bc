// Replicated-shard serving: the router tier (DESIGN.md §15).
//
// The paper's MapReduce formulation assumes the index lives on many
// nodes; this module lifts the single-process scatter-gather of
// core/sharded_engine.h into a three-role cluster:
//
//   shard node — a ShardNode (core/sharded_engine.h), reached in process
//     or through a SearchService in shard-node mode (ServeOptions::
//     shard_index >= 0) over HTTP: it owns its own SnapshotPublisher,
//     answers /search with the local top-k of ONE fragment slice, and
//     advances its generation independently of every other node.
//
//   router — SearchRouter scatter-gathers one query across all shards.
//     Per shard it picks ONE replica by a health/latency score (EWMA
//     latency × an exponential consecutive-failure penalty), sends it one
//     /search, fails over to the next replica on transport failure,
//     enforces a per-shard deadline, and merges whatever answered with
//     MergePartials — the tolerant generalization of
//     ShardedEngine::MergeShardResults. RouterService/RouterServer put the
//     router behind the same request front (SearchFront) a single node's
//     SearchService uses.
//
//   chaos — testing/chaos.h wraps ShardTransports to inject crashes,
//     stragglers, and stale-generation replicas deterministically from a
//     seed; the router must degrade exactly as this header specifies.
//
// Degradation contract: a query over t shards with a answering returns
// precisely MergePartials of the answering shards' local top-k lists. A
// shard with no posting for any query token answers too, with an empty
// list. With a == t that is byte-identical to ShardedEngine::Search (the
// cluster≡engine oracle); with a < t it is the best possible answer from
// the surviving shards (the bounded-degradation oracle), never an error.
// Every router response carries coverage and skew headers:
//
//   X-Dash-Shards-Answered: <a>/<t>     always
//   X-Dash-Degraded: 1                  when a < t
//   X-Dash-Generation-Min / -Max        over the answering replicas —
//     replicas advance independently, so one response may mix
//     generations; min==max certifies a consistent snapshot view.
//
// Status mapping: 200 answered (degraded or not), 503 + Retry-After when
// NO shard answered, 504 + X-Dash-Partial when an answering replica's
// own deadline truncated its list (the merge is then a valid prefix,
// exactly like single-node 504).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "util/analysis_annotations.h"
#include "util/histogram.h"
#include "util/thread_pool.h"
#include "webapp/http_server.h"

namespace dash::core {

// The reply of ShardTransport::RouteStats, kept with it for the
// benchmark's tracing decorator (dashbench/src/stack.cc), which reads
// `ok`, `terms` and `df`; nothing in src/ produces one.
struct ShardTermStats {
  std::uint64_t df = 0;
};
struct ShardStatsReply {
  bool ok = false;
  std::vector<ShardTermStats> terms;
};

// Transport to ONE replica of ONE shard. Implementations block (sockets,
// injected straggler sleeps), so the router only ever calls them from its
// own scatter pool — never from the shared process pool and never under a
// lock. Chaos wrappers (testing/chaos.h) implement this interface too.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  // One scatter leg: the replica's local top-k for `keywords`.
  virtual ShardReply Route(const std::vector<std::string>& keywords, int k,
                           std::uint64_t min_page_words) DASH_BLOCKING = 0;

  // Nothing in src/ calls or overrides this. It stays only because the
  // benchmark's tracing decorator (dashbench/src/stack.cc) overrides it.
  virtual ShardStatsReply RouteStats(const std::vector<std::string>&) {
    return {};
  }

  // Diagnostic label ("shard2/replica0", "127.0.0.1:8431").
  virtual std::string description() const = 0;
};

// Transport to an in-process ShardNode (not owned; must outlive): each
// call pins the node's currently published snapshot.
class InProcessShardTransport : public ShardTransport {
 public:
  explicit InProcessShardTransport(ShardNode* node) : node_(node) {}

  ShardReply Route(const std::vector<std::string>& keywords, int k,
                   std::uint64_t min_page_words) override {
    return node_->Serve(node_->publisher().Current(), keywords, k,
                        min_page_words);
  }
  std::string description() const override;

 private:
  ShardNode* const node_;
};

// Transport to a loopback-HTTP shard node (a SearchServer running with
// ServeOptions::shard_index >= 0). Each leg is one /search request; the
// result body decodes through ParseRenderedResults, whose %.17g
// round-trip keeps the cluster≡engine oracle byte-exact across the HTTP
// hop.
class HttpShardTransport : public ShardTransport {
 public:
  explicit HttpShardTransport(int port) : port_(port) {}

  ShardReply Route(const std::vector<std::string>& keywords, int k,
                   std::uint64_t min_page_words) override DASH_BLOCKING;
  std::string description() const override;

 private:
  const int port_;
};

struct RouterOptions : FrontOptions {
  // Gather budget per shard: a leg that has not answered this long after
  // scatter start is abandoned (the shard counts as unanswered; its
  // transport call finishes on the scatter pool in the background).
  // 0 = wait for every leg.
  int shard_deadline_ms = 0;
};

// What one routed query produced (RouterService turns this into the HTTP
// response; tests and the oracle consume it directly).
struct RoutedResult {
  std::vector<SearchResult> results;
  int shards_total = 0;
  int shards_answered = 0;
  bool partial = false;     // any answering leg was deadline-truncated
  std::uint64_t generation_min = 0;  // over answering replicas; 0 when none
  std::uint64_t generation_max = 0;
};

// Per-replica health as sampled by replica selection.
struct ReplicaHealth {
  std::uint64_t ewma_us = 0;  // EWMA of successful-leg latency
  std::uint32_t consecutive_failures = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
};

class SearchRouter {
 public:
  // transports[shard][replica]; every shard needs >= 1 replica. The
  // router owns the transports and its scatter pool.
  SearchRouter(
      std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports,
      const RouterOptions& options);

  // Scatter-gather one query. Blocks up to shard_deadline_ms (unbounded
  // when 0) while legs run on the owned scatter pool.
  RoutedResult RouteQuery(const std::vector<std::string>& keywords, int k,
                          std::uint64_t min_page_words) DASH_BLOCKING;

  // The gather half, tolerant of missing shards: merges the ANSWERING
  // shards' local top-k lists by (score desc, fragments asc) and keeps k.
  // With every shard present this is exactly ShardedEngine's gather — the
  // identity the cluster≡engine oracle checks; with shards missing it is
  // the exact merge of the survivors — the bounded-degradation oracle.
  // Pure compute on materialized lists (DASH_HOT_PATH, like the engine
  // merge it generalizes).
  static std::vector<SearchResult> MergePartials(
      std::vector<std::vector<SearchResult>> answered, int k) DASH_HOT_PATH;

  std::size_t shard_count() const { return replicas_.size(); }
  std::size_t replica_count(std::size_t shard) const {
    return replicas_[shard].size();
  }
  ReplicaHealth replica_health(std::size_t shard, std::size_t replica) const;
  // Latency histogram of successful legs to `shard` (all replicas).
  const util::LatencyHistogram& shard_latency(std::size_t shard) const {
    return *shard_latency_[shard];
  }
  const RouterOptions& options() const { return options_; }

 private:
  struct Replica {
    std::unique_ptr<ShardTransport> transport;
    std::atomic<std::uint64_t> ewma_us{0};
    std::atomic<std::uint32_t> consecutive_failures{0};
    std::atomic<std::uint64_t> successes{0};
    std::atomic<std::uint64_t> failures{0};
  };

  // What one leg (one shard's attempt chain) reports to the gather.
  struct LegOutcome {
    bool answered = false;
    bool partial = false;
    std::uint64_t generation = 0;
    std::vector<SearchResult> results;
  };

  // Runs one shard's attempt chain on the scatter pool: replicas in
  // health-score order, failing over until one answers.
  LegOutcome RunLeg(std::size_t shard,
                    const std::vector<std::string>& keywords, int k,
                    std::uint64_t min_page_words) DASH_BLOCKING;

  // Replica indices of `shard` ordered by selection score (ascending
  // ewma_us << min(failures, 6); index breaks ties, so a cold start scans
  // replica 0 first and the order is deterministic).
  std::vector<std::size_t> ReplicaOrder(std::size_t shard) const;

  void RecordLegSuccess(Replica& replica, std::size_t shard,
                        std::uint64_t elapsed_us);
  void RecordLegFailure(Replica& replica);

  const RouterOptions options_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;
  // Histogram is atomic-array (non-movable), hence the indirection.
  std::vector<std::unique_ptr<util::LatencyHistogram>> shard_latency_;
  // Owned, one thread per shard: every leg blocks in its transport, so the
  // pool must hold every concurrent leg — and the shared process pool
  // forbids blocking (util::ThreadPool::Shared contract).
  std::unique_ptr<util::ThreadPool> scatter_pool_;
};

// Router-level serving counters (/stats).
struct RouterCounters : FrontCounters {
  std::uint64_t degraded = 0;  // 200 with answered < total
  std::uint64_t routed = 0;    // RouteQuery calls executed
};

// The router behind the shared request front: /search with the same
// grammar and byte-identical body rendering as a single node (plus the
// coverage/skew headers above), /stats, /healthz. Transport-free like
// SearchService — tests call Handle() directly, RouterServer adds HTTP.
class RouterService : public SearchFront {
 public:
  // `router` must outlive the service.
  RouterService(SearchRouter& router, const RouterOptions& options);

  RouterCounters counters() const;
  SearchRouter& router() { return *router_; }

 private:
  // The routed /search fast path: parse, route (via the cold boundary),
  // render, stamp coverage headers. DASH_HOT_PATH like the single node's
  // HandleSearch — everything slow lives behind ExecuteRouted.
  webapp::HttpResponse HandleSearch(
      const webapp::HttpRequest& request,
      std::chrono::steady_clock::time_point admitted) override DASH_HOT_PATH;
  void WriteStats(StatsJson& json) override;

  // The sanctioned slow path: the scatter-gather itself (legs block on
  // transports). DASH_COLD_PATH stops the hot-path purity walk here,
  // exactly like SearchService::ExecuteSearch.
  RoutedResult ExecuteRouted(const SearchQuery& query) DASH_COLD_PATH;

  SearchRouter* const router_;
  const RouterOptions options_;
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> routed_{0};
};

// A complete router node: SearchRouter + RouterService + HTTP transport.
class RouterServer {
 public:
  RouterServer(
      std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports,
      const RouterOptions& options);
  ~RouterServer();

  void Start();
  void Stop();
  int port() const { return http_->port(); }
  bool running() const { return http_->running(); }

  SearchRouter& router() { return *router_; }
  RouterService& service() { return *service_; }

 private:
  std::unique_ptr<SearchRouter> router_;
  std::unique_ptr<RouterService> service_;
  std::unique_ptr<webapp::HttpServer> http_;
};

}  // namespace dash::core
