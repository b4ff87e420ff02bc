#include "stack.h"

#include <optional>
#include <stdexcept>

#include "measure.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "webapp/http.h"

namespace dashbench {

namespace {

using dash::core::SnapshotPtr;
using dash::webapp::HttpRequest;
using dash::webapp::HttpResponse;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Table III as the repository's benches adapt it to the generator's schema
// (same join shapes, same selection parameters $r / $min / $max).
const char* QuerySql(int q) {
  switch (q) {
    case 1:
      return "SELECT * FROM (region JOIN nation) JOIN customer "
             "WHERE region.rid = $r AND acctbal BETWEEN $min AND $max";
    case 2:
      return "SELECT * FROM (customer JOIN orders) JOIN lineitem "
             "WHERE customer.cid = $r AND qty BETWEEN $min AND $max";
    case 3:
      return "SELECT * FROM (customer JOIN orders) JOIN (lineitem JOIN part) "
             "WHERE customer.cid = $r AND qty BETWEEN $min AND $max";
  }
  throw std::invalid_argument("no Table III query " + std::to_string(q));
}

// Router legs recorded on their way into a replica's transport (the
// decorator shape of testing/chaos.h's ChaosTransport).
class TracingTransport : public dash::core::ShardTransport {
 public:
  TracingTransport(std::unique_ptr<dash::core::ShardTransport> inner,
                   Tracer* tracer, int shard, int replica)
      : inner_(std::move(inner)), tracer_(tracer), shard_(shard), replica_(replica) {}

  dash::core::ShardReply Route(const std::vector<std::string>& keywords, int k,
                               std::uint64_t min_page_words) override {
    LegRecord record = Begin(/*probe=*/false);
    dash::core::ShardReply reply = inner_->Route(keywords, k, min_page_words);
    record.end = Clock::now();
    record.keywords = JoinKeywords(keywords);
    tracer_->RecordLeg(std::move(record));
    return reply;
  }

  dash::core::ShardStatsReply RouteStats(
      const std::vector<std::string>& keywords) override {
    LegRecord record = Begin(/*probe=*/true);
    dash::core::ShardStatsReply reply = inner_->RouteStats(keywords);
    record.end = Clock::now();
    // The router skips the shard exactly when no token has a posting in it.
    record.skipped = reply.ok;
    for (const dash::core::ShardTermStats& term : reply.terms) {
      if (term.df > 0) record.skipped = false;
    }
    record.keywords = JoinKeywords(keywords);
    tracer_->RecordLeg(std::move(record));
    return reply;
  }

  std::string description() const override {
    return "traced " + inner_->description();
  }

 private:
  LegRecord Begin(bool probe) const {
    LegRecord record;
    record.shard = shard_;
    record.replica = replica_;
    record.probe = probe;
    record.start = Clock::now();
    return record;
  }

  const std::unique_ptr<dash::core::ShardTransport> inner_;
  Tracer* const tracer_;
  const int shard_;
  const int replica_;
};

dash::webapp::HttpServer::Handler ServiceHandler(dash::core::SearchService* service) {
  return [service](const HttpRequest& request, Clock::time_point admitted) {
    return service->Handle(request, admitted);
  };
}

}  // namespace

dash::webapp::WebAppInfo MakeApp(int q) {
  dash::webapp::WebAppInfo app;
  app.name = "Q" + std::to_string(q);
  app.uri = "warehouse.example/q" + std::to_string(q);
  app.query = dash::sql::Parse(QuerySql(q));
  app.codec = dash::webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
  return app;
}

std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string joined;
  for (const std::string& keyword : keywords) {
    joined += keyword;
    joined += '\x1f';
  }
  return joined;
}

// ---- Tracer ----------------------------------------------------------

Tracer::Tracer(std::uint64_t sample_stride, std::size_t max_pinned)
    : sample_stride_(sample_stride == 0 ? 1 : sample_stride), max_pinned_(max_pinned) {}

dash::webapp::HttpServer::Handler Tracer::Wrap(
    Role role, int shard, const dash::core::SnapshotPublisher* publisher,
    dash::webapp::HttpServer::Handler inner) {
  return [this, role, shard, publisher, inner = std::move(inner)](
             const HttpRequest& request, Clock::time_point admitted) {
    SnapshotPtr current = publisher != nullptr ? publisher->Current() : nullptr;
    HandleRecord record;
    record.entry = Clock::now();
    HttpResponse response = inner(request, admitted);
    record.exit = Clock::now();
    // Everything below runs after the handler's span has closed.
    record.role = role;
    record.shard = shard;
    record.admitted = admitted;
    record.search = request.path == "/search";
    std::vector<std::string> keywords;
    for (auto& [field, value] :
         dash::webapp::ParseQueryParams(request.EffectiveQueryString())) {
      if (field == "q") {
        keywords.push_back(std::move(value));
      } else if (field == "trace") {
        std::int64_t rid = 0;
        if (dash::util::ParseInt64(value, &rid) && rid > 0) {
          record.rid = static_cast<std::uint64_t>(rid);
        }
      }
    }
    if (role != Role::kFront) record.keywords = JoinKeywords(keywords);
    if (current != nullptr) {
      record.segments = current->segment_count();
      auto served = response.headers.find("X-Dash-Generation");
      const bool same_snapshot =
          served != response.headers.end() &&
          served->second == std::to_string(current->generation());
      if (record.search && record.rid != 0 && record.rid % sample_stride_ == 0 &&
          same_snapshot && MayPin(current->generation())) {
        record.snapshot = std::move(current);
      }
    }
    RecordHandle(std::move(record));
    return response;
  };
}

std::unique_ptr<dash::core::ShardTransport> Tracer::Decorate(
    std::unique_ptr<dash::core::ShardTransport> inner, int shard, int replica) {
  return std::make_unique<TracingTransport>(std::move(inner), this, shard, replica);
}

bool Tracer::MayPin(std::uint64_t generation) {
  dash::util::MutexLock lock(mutex_);
  if (pinned_.contains(generation)) return true;
  if (pinned_.size() >= max_pinned_) return false;
  pinned_.insert(generation);
  return true;
}

void Tracer::RecordHandle(HandleRecord record) {
  dash::util::MutexLock lock(mutex_);
  handles_.push_back(std::move(record));
}

void Tracer::RecordLeg(LegRecord record) {
  dash::util::MutexLock lock(mutex_);
  legs_.push_back(std::move(record));
}

std::vector<HandleRecord> Tracer::TakeHandles() {
  dash::util::MutexLock lock(mutex_);
  return std::move(handles_);
}

std::vector<LegRecord> Tracer::TakeLegs() {
  dash::util::MutexLock lock(mutex_);
  return std::move(legs_);
}

// ---- ServingNode -----------------------------------------------------

ServingNode::ServingNode(const dash::core::SnapshotPublisher& publisher,
                         const dash::core::ServeOptions& options, Tracer* tracer,
                         Role role, int shard) {
  if (tracer == nullptr) {
    shipped_ = std::make_unique<dash::core::SearchServer>(publisher, options);
    shipped_->Start();
    return;
  }
  // Composed exactly as SearchServer::Init composes it.
  service_ = std::make_unique<dash::core::SearchService>(publisher, options);
  dash::webapp::HttpServer::Options http_options;
  http_options.port = options.port;
  http_options.num_workers = options.num_workers;
  http_options.queue_capacity = options.queue_capacity;
  http_options.retry_after_seconds = options.retry_after_seconds;
  http_ = std::make_unique<dash::webapp::HttpServer>(
      tracer->Wrap(role, shard, &publisher, ServiceHandler(service_.get())),
      http_options);
  service_->set_transport_stats([http = http_.get()] { return http->stats(); });
  http_->Start();
}

ServingNode::~ServingNode() { Stop(); }

int ServingNode::port() const {
  return shipped_ != nullptr ? shipped_->port() : http_->port();
}

dash::webapp::HttpServer::Stats ServingNode::stats() const {
  return shipped_ != nullptr ? shipped_->transport_stats() : http_->stats();
}

dash::core::ServeCounters ServingNode::counters() const {
  return shipped_ != nullptr ? shipped_->service().counters() : service_->counters();
}

void ServingNode::Stop() {
  if (shipped_ != nullptr) shipped_->Stop();
  if (http_ != nullptr) http_->Stop();
}

// ---- Deployment ------------------------------------------------------

Deployment::Deployment(const WorkloadSpec& spec, std::uint64_t seed,
                       Tracer* tracer, Clock::time_point start)
    : spec_(spec), app_(MakeApp(spec.query)) {
  SnapshotPtr initial;
  {
    Clock::time_point t = Clock::now();
    dash::db::Database db = dash::tpch::Generate(spec.scale, seed);
    times_.generate_s = SecondsSince(t);
    t = Clock::now();
    if (spec.writes) {
      updatable_ = std::make_unique<dash::core::UpdatableIndex>(std::move(db), app_);
      times_.init_s = SecondsSince(t);
      initial = updatable_->snapshot();
    } else {
      dash::core::DashEngine engine = dash::core::DashEngine::Build(db, app_);
      times_.build_s = SecondsSince(t);
      times_.phases = engine.crawl_phases();
      initial = engine.snapshot();
    }
  }  // the dataset is released here; the updater keeps its own copy
  keywords_ = initial->index().KeywordsByDf();
  catalog_size_ = initial->catalog().size();
  if (keywords_.empty()) throw std::runtime_error("index has no keywords");

  first_answer_.keywords = {keywords_.front().first};
  const std::string probe = "/search?q=" +
                            dash::util::UrlEncode(first_answer_.keywords[0]) +
                            "&k=10&s=0";
  const Clock::time_point serving = Clock::now();
  dash::core::ServeOptions options;
  options.cache_capacity = kCacheEntries;
  if (spec.routed) {
    options.shards = kShards;
    for (int shard = 0; shard < kShards; ++shard) {
      options.shard_index = shard;
      for (int replica = 0; replica < kReplicas; ++replica) {
        publishers_.push_back(std::make_unique<dash::core::SnapshotPublisher>(initial));
        nodes_.push_back(std::make_unique<ServingNode>(
            *publishers_.back(), options, tracer, Role::kShard, shard));
      }
    }
    // Every node builds its shard view lazily, on its first request. Build
    // them all here, as set-up, so that no view build lands in a timed phase.
    for (const auto& node : nodes_) LoopbackClient(node->port()).Get(probe);
    StartRouter(tracer);
  } else {
    const dash::core::SnapshotPublisher* publisher = nullptr;
    if (spec.writes) {
      publisher = &updatable_->publisher();
    } else {
      publishers_.push_back(std::make_unique<dash::core::SnapshotPublisher>(initial));
      publisher = publishers_.back().get();
    }
    nodes_.push_back(std::make_unique<ServingNode>(*publisher, options, tracer,
                                                   Role::kFront, -1));
  }
  initial.reset();

  std::optional<HttpResponse> response = LoopbackClient(port()).Get(probe);
  if (response.has_value()) {
    first_answer_.status = response->status;
    first_answer_.body_hash = BodyHash(response->body);
  }
  times_.first_answer_s = SecondsSince(serving);
  times_.total_s = SecondsSince(start);
}

Deployment::~Deployment() { Stop(); }

void Deployment::StartRouter(Tracer* tracer) {
  std::vector<std::vector<std::unique_ptr<dash::core::ShardTransport>>> transports(kShards);
  for (int shard = 0; shard < kShards; ++shard) {
    for (int replica = 0; replica < kReplicas; ++replica) {
      std::unique_ptr<dash::core::ShardTransport> transport =
          std::make_unique<dash::core::HttpShardTransport>(
              nodes_[static_cast<std::size_t>(shard * kReplicas + replica)]->port());
      if (tracer != nullptr) {
        transport = tracer->Decorate(std::move(transport), shard, replica);
      }
      transports[static_cast<std::size_t>(shard)].push_back(std::move(transport));
    }
  }
  const dash::core::RouterOptions options;
  if (tracer == nullptr) {
    router_server_ = std::make_unique<dash::core::RouterServer>(std::move(transports), options);
    router_server_->Start();
    return;
  }
  // Composed exactly as RouterServer's constructor composes it.
  router_ = std::make_unique<dash::core::SearchRouter>(std::move(transports), options);
  router_service_ = std::make_unique<dash::core::RouterService>(*router_, options);
  dash::webapp::HttpServer::Options http_options;
  http_options.port = options.port;
  http_options.num_workers = options.num_workers;
  http_options.queue_capacity = options.queue_capacity;
  http_options.retry_after_seconds = options.retry_after_seconds;
  router_http_ = std::make_unique<dash::webapp::HttpServer>(
      tracer->Wrap(Role::kRouter, -1, nullptr,
                   [service = router_service_.get()](const HttpRequest& request,
                                                     Clock::time_point admitted) {
                     return service->Handle(request, admitted);
                   }),
      http_options);
  router_service_->set_transport_stats([http = router_http_.get()] { return http->stats(); });
  router_http_->Start();
}

int Deployment::port() const {
  if (router_server_ != nullptr) return router_server_->port();
  if (router_http_ != nullptr) return router_http_->port();
  return nodes_.front()->port();
}

SnapshotPtr Deployment::snapshot() const {
  return updatable_ != nullptr ? updatable_->snapshot() : publishers_.front()->Current();
}

dash::webapp::HttpServer::Stats Deployment::front_stats() const {
  if (router_http_ != nullptr) return router_http_->stats();
  if (spec_.routed) return {};  // the shipped RouterServer keeps its server private
  return nodes_.front()->stats();
}

dash::core::ServeCounters Deployment::search_counters() const {
  dash::core::ServeCounters sum;
  for (const auto& node : nodes_) {
    const dash::core::ServeCounters c = node->counters();
    sum.searches += c.searches;
    sum.cache_hits += c.cache_hits;
    sum.cache_misses += c.cache_misses;
    sum.cache_evicted_superseded += c.cache_evicted_superseded;
  }
  return sum;
}

std::uint64_t Deployment::shard_connections() const {
  if (!spec_.routed) return 0;
  std::uint64_t accepted = 0;
  for (const auto& node : nodes_) accepted += node->stats().accepted;
  return accepted;
}

std::uint64_t Deployment::leg_failures() const {
  const dash::core::SearchRouter* router =
      router_server_ != nullptr ? &router_server_->router() : router_.get();
  if (router == nullptr) return 0;
  std::uint64_t failures = 0;
  for (std::size_t shard = 0; shard < router->shard_count(); ++shard) {
    for (std::size_t replica = 0; replica < router->replica_count(shard); ++replica) {
      failures += router->replica_health(shard, replica).failures;
    }
  }
  return failures;
}

void Deployment::Stop() {
  if (router_http_ != nullptr) router_http_->Stop();
  if (router_server_ != nullptr) router_server_->Stop();
  for (const auto& node : nodes_) node->Stop();
}

}  // namespace dashbench
