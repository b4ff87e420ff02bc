#include "core/search_server.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "util/string_util.h"

namespace dash::core {

namespace {

// %.17g round-trips every double exactly and is locale-free, so the
// rendering is byte-stable across runs, shards, and cache hits — the
// property the server≡engine oracle depends on.
std::string FormatScore(double score) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}

// The node's shard slice, if `options` names one. Whole-index serving
// leaves shards and shard_index unset; anything in between is a slice that
// does not exist (ShardNode throws std::invalid_argument).
std::unique_ptr<ShardNode> MakeShardNode(const SnapshotPublisher& publisher,
                                         const ServeOptions& options) {
  if (options.shards <= 0 && options.shard_index < 0) return nullptr;
  return std::make_unique<ShardNode>(publisher, options.shard_index,
                                     options.shards);
}

}  // namespace

webapp::HttpResponse TextResponse(int status, std::string body) {
  webapp::HttpResponse response;
  response.status = status;
  response.headers["Content-Type"] = "text/plain; charset=utf-8";
  response.body = std::move(body);
  return response;
}

const char* ParseSearchQuery(const webapp::HttpRequest& request,
                             const FrontOptions& options, SearchQuery* query) {
  std::int64_t k = options.default_k;
  auto s = static_cast<std::int64_t>(options.default_s);
  for (auto& [field, value] :
       webapp::ParseQueryParams(request.EffectiveQueryString())) {
    if (field == "q") {
      query->keywords.push_back(std::move(value));
    } else if (field == "k") {
      if (!util::ParseInt64(value, &k) || k < 1 || k > 100000) {
        return "bad k parameter\n";
      }
    } else if (field == "s") {
      if (!util::ParseInt64(value, &s) || s < 0 || s > std::int64_t{1} << 62) {
        return "bad s parameter\n";
      }
    }
  }
  if (query->keywords.empty()) return "missing q parameter\n";
  query->k = static_cast<int>(k);
  query->min_page_words = static_cast<std::uint64_t>(s);
  return nullptr;
}

void StatsJson::Raw(const char* name, const std::string& value) {
  json_ += json_.size() > 1 ? ",\n  \"" : "\n  \"";
  json_ += name;
  json_ += "\": ";
  json_ += value;
}

// ---- SearchFront -----------------------------------------------------

SearchFront::SearchFront(const char* name, int retry_after_seconds)
    : banner_(std::string("dash search ") + name +
              ": /search?q=<kw>&k=<n>&s=<n>, /stats\n"),
      retry_after_seconds_(retry_after_seconds) {}

webapp::HttpResponse SearchFront::Handle(
    const webapp::HttpRequest& request,
    std::chrono::steady_clock::time_point admitted) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  webapp::HttpResponse response;
  if (request.path == "/search") {
    response = HandleSearch(request, admitted);
    if (response.status != 400) {
      latency_.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - admitted)
              .count()));
    }
  } else if (request.path == "/stats") {
    response = HandleStats();
  } else if (request.path == "/healthz") {
    response = TextResponse(200, "ok\n");
  } else if (request.path.empty() || request.path == "/") {
    response = TextResponse(200, banner_);
  } else {
    response = TextResponse(404, "unknown path\n");
  }
  switch (response.status) {
    case 200:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case 400:
      bad_request_.fetch_add(1, std::memory_order_relaxed);
      break;
    case 404:
      not_found_.fetch_add(1, std::memory_order_relaxed);
      break;
    case 503:
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      response.headers["Retry-After"] = std::to_string(retry_after_seconds_);
      break;
    case 504:
      gateway_timeout_.fetch_add(1, std::memory_order_relaxed);
      response.headers["X-Dash-Partial"] = "1";
      break;
    default:
      break;
  }
  return response;
}

webapp::HttpResponse SearchFront::HandleStats() {
  std::function<webapp::HttpServer::Stats()> transport;
  {
    util::MutexLock lock(stats_mutex_);
    transport = transport_stats_;
  }
  StatsJson json;
  if (transport != nullptr) {
    // Called outside stats_mutex_: the provider reaches into HttpServer
    // (which takes its own locks) and must not nest under ours.
    webapp::HttpServer::Stats t = transport();
    json.Field("queue_depth", t.queue_depth);
    json.Field("queue_capacity", t.queue_capacity);
    json.Field("accepted", t.accepted);
    json.Field("shed", t.shed);
    json.Field("handled", t.handled);
    json.Field("parse_errors", t.parse_errors);
  }
  FrontCounters c = front_counters();
  json.Field("requests_total", c.requests_total);
  json.Field("ok", c.ok);
  json.Field("bad_request", c.bad_request);
  json.Field("not_found", c.not_found);
  json.Field("unavailable", c.unavailable);
  json.Field("gateway_timeout", c.gateway_timeout);
  json.Field("latency_count", c.latency_count);
  json.Field("latency_p50_us", c.latency_p50_us);
  json.Field("latency_p99_us", c.latency_p99_us);
  json.Field("latency_p999_us", c.latency_p999_us);
  json.Field("latency_max_us", c.latency_max_us);
  WriteStats(json);
  webapp::HttpResponse response = TextResponse(200, json.Finish());
  response.headers["Content-Type"] = "application/json";
  return response;
}

FrontCounters SearchFront::front_counters() const {
  FrontCounters c;
  c.requests_total = requests_total_.load(std::memory_order_relaxed);
  c.ok = ok_.load(std::memory_order_relaxed);
  c.bad_request = bad_request_.load(std::memory_order_relaxed);
  c.not_found = not_found_.load(std::memory_order_relaxed);
  c.unavailable = unavailable_.load(std::memory_order_relaxed);
  c.gateway_timeout = gateway_timeout_.load(std::memory_order_relaxed);
  c.latency_count = latency_.count();
  c.latency_p50_us = latency_.Percentile(0.50);
  c.latency_p99_us = latency_.Percentile(0.99);
  c.latency_p999_us = latency_.Percentile(0.999);
  c.latency_max_us = latency_.max();
  return c;
}

std::unique_ptr<webapp::HttpServer> ServeOverHttp(SearchFront& front,
                                                  const FrontOptions& options) {
  webapp::HttpServer::Options http_options;
  http_options.port = options.port;
  http_options.num_workers = options.num_workers;
  http_options.queue_capacity = options.queue_capacity;
  http_options.retry_after_seconds = options.retry_after_seconds;
  auto http = std::make_unique<webapp::HttpServer>(
      [&front](const webapp::HttpRequest& request,
               std::chrono::steady_clock::time_point admitted) {
        return front.Handle(request, admitted);
      },
      http_options);
  front.set_transport_stats([server = http.get()] { return server->stats(); });
  return http;
}

// ---- SearchService ---------------------------------------------------

SearchService::SearchService(const SnapshotPublisher& publisher,
                             const ServeOptions& options)
    : SearchFront("server", options.retry_after_seconds),
      publisher_(&publisher),
      options_(options),
      shard_node_(MakeShardNode(publisher, options)),
      cache_(options.cache_capacity > 0
                 ? std::make_unique<ResultCache>(options.cache_capacity)
                 : nullptr) {}

std::string SearchService::RenderResults(
    const std::vector<SearchResult>& results) {
  std::string out = "results " + std::to_string(results.size()) + "\n";
  for (const SearchResult& r : results) {
    out += "R\t";
    out += FormatScore(r.score);
    out += '\t';
    out += std::to_string(r.size_words);
    out += '\t';
    out += r.url;
    out += '\t';
    for (std::size_t i = 0; i < r.fragments.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(r.fragments[i]);
    }
    out += '\t';
    bool first = true;
    for (const auto& [name, value] : r.params) {
      if (!first) out += ';';
      first = false;
      out += name;
      out += '=';
      out += value;
    }
    out += '\n';
  }
  return out;
}

std::optional<std::vector<SearchResult>> SearchService::ParseRenderedResults(
    const std::string& body) {
  std::size_t pos = body.find('\n');
  if (pos == std::string::npos) return std::nullopt;
  std::string_view header(body.data(), pos);
  constexpr std::string_view kPrefix = "results ";
  if (header.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  std::int64_t count = 0;
  if (!util::ParseInt64(header.substr(kPrefix.size()), &count) || count < 0) {
    return std::nullopt;
  }
  std::vector<SearchResult> results;
  results.reserve(static_cast<std::size_t>(count));
  std::size_t cursor = pos + 1;
  for (std::int64_t i = 0; i < count; ++i) {
    std::size_t eol = body.find('\n', cursor);
    if (eol == std::string::npos) return std::nullopt;
    std::string_view line(body.data() + cursor, eol - cursor);
    cursor = eol + 1;
    // Exactly six tab-separated fields: tag, score, words, url, fragment
    // handles, parameters. URLs and parameter values never contain tabs
    // (RenderResults would be ambiguous otherwise), so a flat split is the
    // exact inverse.
    std::array<std::string_view, 6> f;
    std::size_t field = 0;
    std::size_t start = 0;
    for (std::size_t j = 0; j <= line.size(); ++j) {
      if (j == line.size() || line[j] == '\t') {
        if (field >= f.size()) return std::nullopt;
        f[field++] = line.substr(start, j - start);
        start = j + 1;
      }
    }
    if (field != f.size() || f[0] != "R") return std::nullopt;
    SearchResult r;
    if (!util::ParseDouble(f[1], &r.score)) return std::nullopt;
    std::int64_t words = 0;
    if (!util::ParseInt64(f[2], &words) || words < 0) return std::nullopt;
    r.size_words = static_cast<std::uint64_t>(words);
    r.url = std::string(f[3]);
    if (!f[4].empty()) {
      std::string_view frags = f[4];
      std::size_t s0 = 0;
      for (std::size_t j = 0; j <= frags.size(); ++j) {
        if (j == frags.size() || frags[j] == ',') {
          std::int64_t handle = 0;
          if (!util::ParseInt64(frags.substr(s0, j - s0), &handle) ||
              handle < 0 || handle > std::int64_t{0xFFFFFFFF}) {
            return std::nullopt;
          }
          r.fragments.push_back(static_cast<FragmentHandle>(handle));
          s0 = j + 1;
        }
      }
    }
    if (!f[5].empty()) {
      std::string_view params = f[5];
      std::size_t s0 = 0;
      for (std::size_t j = 0; j <= params.size(); ++j) {
        if (j == params.size() || params[j] == ';') {
          std::string_view pair = params.substr(s0, j - s0);
          std::size_t eq = pair.find('=');
          if (eq == std::string_view::npos) return std::nullopt;
          r.params.emplace(std::string(pair.substr(0, eq)),
                           std::string(pair.substr(eq + 1)));
          s0 = j + 1;
        }
      }
    }
    results.push_back(std::move(r));
  }
  if (cursor != body.size()) return std::nullopt;
  return results;
}

webapp::HttpResponse SearchService::HandleSearch(
    const webapp::HttpRequest& request,
    std::chrono::steady_clock::time_point admitted) {
  // The one pin of this request: the generation header, the cache key and
  // the body all come from this snapshot.
  SnapshotPtr snapshot = publisher_->Current();
  if (snapshot == nullptr) return TextResponse(503, "no snapshot published\n");
  SearchQuery query;
  if (const char* error = ParseSearchQuery(request, options_, &query)) {
    return TextResponse(400, error);
  }

  SearchDeadline deadline_storage;
  SearchDeadline* deadline = nullptr;
  if (options_.deadline_ms > 0) {
    deadline_storage.at =
        admitted + std::chrono::milliseconds(options_.deadline_ms);
    deadline = &deadline_storage;
  }

  std::vector<SearchResult> results;
  bool from_cache = false;
  if (cache_ != nullptr) {
    if (auto hit = cache_->Lookup(query.keywords, query.k,
                                  query.min_page_words,
                                  snapshot->generation())) {
      results = std::move(*hit);
      from_cache = true;
    }
  }
  if (!from_cache) results = ExecuteSearch(snapshot, query, deadline);

  bool expired = deadline != nullptr &&
                 deadline->expired.load(std::memory_order_relaxed);
  webapp::HttpResponse response =
      TextResponse(expired ? 504 : 200, RenderResults(results));
  response.headers["X-Dash-Generation"] =
      std::to_string(snapshot->generation());
  return response;
}

// The cache-miss slow path. DASH_COLD_PATH: HandleSearch (hot) may call
// this, and everything here — the debug delay, a shard-view rebuild, the
// engine walk, the cache fill — is sanctioned slow-path work that
// dash_analyze's purity walk deliberately does not descend into.
std::vector<SearchResult> SearchService::ExecuteSearch(
    const SnapshotPtr& snapshot, const SearchQuery& query,
    SearchDeadline* deadline) {
  if (options_.debug_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.debug_delay_ms));
  }
  searches_.fetch_add(1, std::memory_order_relaxed);
  // First miss after a republication: sweep the cache of entries the new
  // generation superseded (lazy Lookup eviction only reclaims repeated
  // queries; under write traffic the rest would crowd out live entries).
  // CAS on the high-water generation so exactly one racing miss sweeps.
  if (cache_ != nullptr) {
    std::uint64_t generation = snapshot->generation();
    std::uint64_t seen = purged_generation_.load(std::memory_order_relaxed);
    while (generation > seen) {
      if (purged_generation_.compare_exchange_weak(
              seen, generation, std::memory_order_relaxed)) {
        cache_->PurgeSuperseded(generation);
        break;
      }
    }
  }
  // A shard node answers only its slice — one scatter leg of the router's
  // fan-out, on the calling thread (the router owns the cross-shard
  // parallelism). The cache stays correct because a node's shard index is
  // fixed for its lifetime.
  std::vector<SearchResult> results =
      shard_node_ != nullptr
          ? shard_node_
                ->Serve(snapshot, query.keywords, query.k,
                        query.min_page_words, deadline)
                .results
          : snapshot->Search(query.keywords, query.k, query.min_page_words,
                             /*max_seeds=*/0, deadline);
  // Never cache a deadline-truncated list: it is valid for this request
  // but not the query's answer.
  bool partial = deadline != nullptr &&
                 deadline->expired.load(std::memory_order_relaxed);
  if (cache_ != nullptr && !partial) {
    cache_->Insert(query.keywords, query.k, query.min_page_words,
                   snapshot->generation(), results);
  }
  return results;
}

void SearchService::WriteStats(StatsJson& json) {
  ServeCounters c = counters();
  std::function<std::uint64_t()> compactions;
  {
    util::MutexLock lock(stats_mutex_);
    compactions = compactions_;
  }
  json.Field("generation", c.generation);
  json.Field("searches", c.searches);
  json.Raw("cache_enabled", cache_ != nullptr ? "true" : "false");
  json.Field("cache_capacity", options_.cache_capacity);
  json.Field("cache_hits", c.cache_hits);
  json.Field("cache_misses", c.cache_misses);
  json.Field("cache_evicted_superseded", c.cache_evicted_superseded);
  // Index-shape counters: live segments in the served snapshot and, when
  // an UpdatableIndex (or any compacting builder) wired its provider, how
  // many compactions produced them.
  SnapshotPtr snapshot = publisher_->Current();
  json.Field("segments", snapshot != nullptr
                             ? static_cast<std::uint64_t>(
                                   snapshot->segment_count())
                             : 0);
  json.Field("compactions", compactions != nullptr ? compactions() : 0);
  json.Field("workers", static_cast<std::uint64_t>(options_.num_workers));
  json.Field("shards", static_cast<std::uint64_t>(options_.shards));
  json.Raw("shard_index", std::to_string(options_.shard_index));
  json.Field("deadline_ms", static_cast<std::uint64_t>(options_.deadline_ms));
}

ServeCounters SearchService::counters() const {
  ServeCounters c;
  static_cast<FrontCounters&>(c) = front_counters();
  c.generation = publisher_->CurrentGeneration();
  c.searches = searches_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    ResultCache::Stats s = cache_->stats();
    c.cache_hits = s.hits;
    c.cache_misses = s.misses;
    c.cache_evicted_superseded = s.evicted_superseded;
  }
  return c;
}

// ---- SearchServer ----------------------------------------------------

SearchServer::SearchServer(const SnapshotPublisher& publisher,
                           ServeOptions options)
    : service_(std::make_unique<SearchService>(publisher, options)),
      http_(ServeOverHttp(*service_, options)) {}

SearchServer::SearchServer(SnapshotPtr snapshot, ServeOptions options)
    : owned_publisher_(
          std::make_unique<SnapshotPublisher>(std::move(snapshot))),
      service_(std::make_unique<SearchService>(*owned_publisher_, options)),
      http_(ServeOverHttp(*service_, options)) {}

SearchServer::~SearchServer() { Stop(); }

void SearchServer::Start() { http_->Start(); }

void SearchServer::Stop() { http_->Stop(); }

}  // namespace dash::core
