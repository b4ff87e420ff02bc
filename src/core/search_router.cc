#include "core/search_router.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/string_util.h"
#include "webapp/http.h"

namespace dash::core {

namespace {

// The /search target of one scatter leg.
std::string SearchTarget(const std::vector<std::string>& keywords, int k,
                         std::uint64_t min_page_words) {
  std::string target = "/search";
  char sep = '?';
  for (const std::string& kw : keywords) {
    target += sep;
    sep = '&';
    target += "q=";
    target += util::UrlEncode(kw);
  }
  target += "&k=" + std::to_string(k);
  target += "&s=" + std::to_string(min_page_words);
  return target;
}

std::uint64_t HeaderGeneration(const webapp::HttpResponse& response) {
  auto it = response.headers.find("X-Dash-Generation");
  if (it == response.headers.end()) return 0;
  std::int64_t value = 0;
  if (!util::ParseInt64(it->second, &value) || value < 0) return 0;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

// ---- Transports ------------------------------------------------------

std::string InProcessShardTransport::description() const {
  return "in-process shard " + std::to_string(node_->shard_index()) + "/" +
         std::to_string(node_->shard_total());
}

std::string HttpShardTransport::description() const {
  return "127.0.0.1:" + std::to_string(port_);
}

ShardReply HttpShardTransport::Route(const std::vector<std::string>& keywords,
                                     int k, std::uint64_t min_page_words) {
  ShardReply reply;
  std::optional<webapp::HttpResponse> response = webapp::FetchOverLoopback(
      port_, SearchTarget(keywords, k, min_page_words));
  if (!response.has_value()) return reply;
  const bool partial =
      response->status == 504 && response->headers.contains("X-Dash-Partial");
  if (response->status != 200 && !partial) return reply;
  std::optional<std::vector<SearchResult>> results =
      SearchService::ParseRenderedResults(response->body);
  if (!results.has_value()) return reply;
  reply.results = std::move(*results);
  reply.ok = true;
  reply.partial = partial;
  reply.generation = HeaderGeneration(*response);
  return reply;
}

// ---- SearchRouter ----------------------------------------------------

SearchRouter::SearchRouter(
    std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports,
    const RouterOptions& options)
    : options_(options) {
  if (transports.empty()) {
    throw std::invalid_argument("SearchRouter: need at least one shard");
  }
  replicas_.reserve(transports.size());
  for (auto& shard : transports) {
    if (shard.empty()) {
      throw std::invalid_argument(
          "SearchRouter: every shard needs at least one replica");
    }
    std::vector<std::unique_ptr<Replica>> row;
    row.reserve(shard.size());
    for (auto& transport : shard) {
      auto replica = std::make_unique<Replica>();
      replica->transport = std::move(transport);
      row.push_back(std::move(replica));
    }
    replicas_.push_back(std::move(row));
    shard_latency_.push_back(std::make_unique<util::LatencyHistogram>());
  }
  scatter_pool_ = std::make_unique<util::ThreadPool>(replicas_.size());
}

std::vector<std::size_t> SearchRouter::ReplicaOrder(std::size_t shard) const {
  const auto& row = replicas_[shard];
  std::vector<std::size_t> order(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) order[i] = i;
  // Selection score: EWMA latency scaled up exponentially per consecutive
  // failure (+1 keeps a never-sampled replica's failures visible). Lower
  // is better; the index tie-break makes a cold start deterministic.
  auto score = [&row](std::size_t i) {
    std::uint32_t failures =
        row[i]->consecutive_failures.load(std::memory_order_relaxed);
    if (failures > 6) failures = 6;
    return (row[i]->ewma_us.load(std::memory_order_relaxed) + 1) << failures;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&score](std::size_t a, std::size_t b) {
                     return score(a) < score(b);
                   });
  return order;
}

void SearchRouter::RecordLegSuccess(Replica& replica, std::size_t shard,
                                    std::uint64_t elapsed_us) {
  std::uint64_t old = replica.ewma_us.load(std::memory_order_relaxed);
  std::uint64_t next = old == 0 ? elapsed_us : (3 * old + elapsed_us) / 4;
  replica.ewma_us.store(next, std::memory_order_relaxed);
  replica.consecutive_failures.store(0, std::memory_order_relaxed);
  replica.successes.fetch_add(1, std::memory_order_relaxed);
  shard_latency_[shard]->Record(elapsed_us);
}

void SearchRouter::RecordLegFailure(Replica& replica) {
  replica.failures.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t seen =
      replica.consecutive_failures.load(std::memory_order_relaxed);
  // Saturate: the score shift caps at 6 and saturation keeps the counter
  // meaningful in /stats after long outages.
  while (seen < 1000 && !replica.consecutive_failures.compare_exchange_weak(
                            seen, seen + 1, std::memory_order_relaxed)) {
  }
}

ReplicaHealth SearchRouter::replica_health(std::size_t shard,
                                           std::size_t replica) const {
  const Replica& r = *replicas_[shard][replica];
  ReplicaHealth health;
  health.ewma_us = r.ewma_us.load(std::memory_order_relaxed);
  health.consecutive_failures =
      r.consecutive_failures.load(std::memory_order_relaxed);
  health.successes = r.successes.load(std::memory_order_relaxed);
  health.failures = r.failures.load(std::memory_order_relaxed);
  return health;
}

SearchRouter::LegOutcome SearchRouter::RunLeg(
    std::size_t shard, const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words) {
  for (std::size_t index : ReplicaOrder(shard)) {
    Replica& replica = *replicas_[shard][index];
    const auto started = std::chrono::steady_clock::now();
    ShardReply reply;
    try {
      reply = replica.transport->Route(keywords, k, min_page_words);
    } catch (...) {
      reply.ok = false;
    }
    if (reply.ok) {
      RecordLegSuccess(
          replica, shard,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - started)
                  .count()));
      LegOutcome outcome;
      outcome.answered = true;
      outcome.partial = reply.partial;
      outcome.generation = reply.generation;
      outcome.results = std::move(reply.results);
      return outcome;
    }
    RecordLegFailure(replica);
  }
  return LegOutcome{};  // every replica of this shard failed
}

RoutedResult SearchRouter::RouteQuery(const std::vector<std::string>& keywords,
                                      int k, std::uint64_t min_page_words) {
  RoutedResult routed;
  routed.shards_total = static_cast<int>(replicas_.size());

  // Legs capture the query by shared value: an abandoned leg (deadline
  // miss) keeps running on the scatter pool after this frame returns.
  auto shared_keywords =
      std::make_shared<const std::vector<std::string>>(keywords);
  const auto scattered = std::chrono::steady_clock::now();
  std::vector<std::future<LegOutcome>> legs;
  legs.reserve(replicas_.size());
  for (std::size_t shard = 0; shard < replicas_.size(); ++shard) {
    legs.push_back(scatter_pool_->Submit(
        [this, shard, shared_keywords, k, min_page_words] {
          return RunLeg(shard, *shared_keywords, k, min_page_words);
        }));
  }

  const auto deadline =
      scattered + std::chrono::milliseconds(options_.shard_deadline_ms);
  std::vector<std::vector<SearchResult>> answered;
  bool first_generation = true;
  for (std::size_t shard = 0; shard < legs.size(); ++shard) {
    if (options_.shard_deadline_ms > 0 &&
        legs[shard].wait_until(deadline) != std::future_status::ready) {
      continue;  // straggler: abandoned, shard counts as unanswered
    }
    LegOutcome leg = legs[shard].get();
    if (!leg.answered) continue;
    ++routed.shards_answered;
    routed.partial = routed.partial || leg.partial;
    if (first_generation) {
      routed.generation_min = leg.generation;
      routed.generation_max = leg.generation;
      first_generation = false;
    } else {
      routed.generation_min = std::min(routed.generation_min, leg.generation);
      routed.generation_max = std::max(routed.generation_max, leg.generation);
    }
    if (!leg.results.empty()) answered.push_back(std::move(leg.results));
  }
  routed.results = MergePartials(std::move(answered), k);
  return routed;
}

std::vector<SearchResult> SearchRouter::MergePartials(
    std::vector<std::vector<SearchResult>> answered, int k) {
  // The engine's gather, generalized: MergeShardResults never assumed all
  // shards are present (the key is unique and order-insensitive), so the
  // merge of any subset of per-shard lists is exactly the best answer the
  // answering shards can give.
  return ShardedEngine::MergeShardResults(std::move(answered), k);
}

// ---- RouterService ---------------------------------------------------

RouterService::RouterService(SearchRouter& router,
                             const RouterOptions& options)
    : SearchFront("router", options.retry_after_seconds),
      router_(&router),
      options_(options) {}

webapp::HttpResponse RouterService::HandleSearch(
    const webapp::HttpRequest& request,
    std::chrono::steady_clock::time_point /*admitted*/) {
  SearchQuery query;
  if (const char* error = ParseSearchQuery(request, options_, &query)) {
    return TextResponse(400, error);
  }
  RoutedResult routed = ExecuteRouted(query);

  webapp::HttpResponse response;
  if (routed.shards_answered == 0) {
    response = TextResponse(503, "no shard answered\n");
  } else {
    response = TextResponse(routed.partial ? 504 : 200,
                            SearchService::RenderResults(routed.results));
    response.headers["X-Dash-Generation-Min"] =
        std::to_string(routed.generation_min);
    response.headers["X-Dash-Generation-Max"] =
        std::to_string(routed.generation_max);
    if (!routed.partial && routed.shards_answered < routed.shards_total) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  response.headers["X-Dash-Shards-Answered"] =
      std::to_string(routed.shards_answered) + "/" +
      std::to_string(routed.shards_total);
  if (routed.shards_answered < routed.shards_total) {
    response.headers["X-Dash-Degraded"] = "1";
  }
  return response;
}

// The routed slow path: the scatter-gather itself. DASH_COLD_PATH —
// HandleSearch (hot) stops the purity walk here; everything below blocks
// on the router's own scatter pool by design.
RoutedResult RouterService::ExecuteRouted(const SearchQuery& query) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  return router_->RouteQuery(query.keywords, query.k, query.min_page_words);
}

void RouterService::WriteStats(StatsJson& json) {
  RouterCounters c = counters();
  // Merge-then-quantile over the per-shard leg histograms: exact bucket
  // sums, so the cluster-wide leg percentiles carry the same ~6% bound as
  // any single histogram (quantile-of-per-shard-quantiles would not).
  util::LatencyHistogram legs;
  std::uint64_t replicas_total = 0;
  for (std::size_t shard = 0; shard < router_->shard_count(); ++shard) {
    legs.Merge(router_->shard_latency(shard));
    replicas_total += router_->replica_count(shard);
  }
  json.Field("degraded", c.degraded);
  json.Field("routed", c.routed);
  json.Field("shards", router_->shard_count());
  json.Field("replicas_total", replicas_total);
  json.Field("leg_latency_count", legs.count());
  json.Field("leg_latency_p50_us", legs.Percentile(0.50));
  json.Field("leg_latency_p99_us", legs.Percentile(0.99));
  json.Field("leg_latency_max_us", legs.max());
  json.Field("shard_deadline_ms",
             static_cast<std::uint64_t>(options_.shard_deadline_ms));
}

RouterCounters RouterService::counters() const {
  RouterCounters c;
  static_cast<FrontCounters&>(c) = front_counters();
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.routed = routed_.load(std::memory_order_relaxed);
  return c;
}

// ---- RouterServer ----------------------------------------------------

RouterServer::RouterServer(
    std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports,
    const RouterOptions& options)
    : router_(std::make_unique<SearchRouter>(std::move(transports), options)),
      service_(std::make_unique<RouterService>(*router_, options)),
      http_(ServeOverHttp(*service_, options)) {}

RouterServer::~RouterServer() { Stop(); }

void RouterServer::Start() { http_->Start(); }

void RouterServer::Stop() { http_->Stop(); }

}  // namespace dash::core
