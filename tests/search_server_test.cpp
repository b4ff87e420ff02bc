// End-to-end serving tests: core::SearchService routing and parameter
// handling (no sockets), the request front a node shares with the router,
// core::SearchServer over a real loopback socket (responses byte-identical
// to direct engine calls), the cache, and — the designated race test for
// the serving tier —
// concurrent HTTP readers racing UpdatableIndex publications: generations
// observed over the wire must be monotone per client, every body must
// byte-match a quiescent re-render of the exact snapshot generation the
// response names, and the whole test must be clean under tsan.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/crawler.h"
#include "core/index_update.h"
#include "core/search_router.h"
#include "core/search_server.h"
#include "testing/chaos.h"
#include "testing/fooddb.h"
#include "util/string_util.h"
#include "webapp/http_server.h"

namespace dash::core {
namespace {

DashEngine MakeEngine() {
  db::Database db = dash::testing::MakeFoodDb();
  webapp::WebAppInfo app = dash::testing::MakeSearchApp();
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  return DashEngine::Build(db, app, options);
}

webapp::HttpRequest Get(const std::string& target) {
  return webapp::ParseUrl(target);
}

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

// ---- SearchService: transport-free routing and parameters. ----

TEST(SearchService, RoutesAndParameterValidation) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  SearchService service(publisher, ServeOptions{});

  EXPECT_EQ(service.Handle(Get("/healthz"), Now()).status, 200);
  EXPECT_EQ(service.Handle(Get("/nope"), Now()).status, 404);
  EXPECT_EQ(service.Handle(Get("/search"), Now()).status, 400);  // no q
  EXPECT_EQ(service.Handle(Get("/search?k=3"), Now()).status, 400);
  EXPECT_EQ(service.Handle(Get("/search?q=burger&k=zero"), Now()).status, 400);
  EXPECT_EQ(service.Handle(Get("/search?q=burger&k=0"), Now()).status, 400);
  EXPECT_EQ(service.Handle(Get("/search?q=burger&s=-4"), Now()).status, 400);

  ServeCounters counters = service.counters();
  EXPECT_EQ(counters.requests_total, 7u);
  EXPECT_EQ(counters.bad_request, 5u);
  EXPECT_EQ(counters.not_found, 1u);

  // A node serves the whole index or one existing slice: shards without a
  // valid index, and an index without shards, name no slice and throw.
  ServeOptions scatter;
  scatter.shards = 4;
  EXPECT_THROW(SearchService(publisher, scatter), std::invalid_argument);
  scatter.shard_index = 4;
  EXPECT_THROW(SearchService(publisher, scatter), std::invalid_argument);
  ServeOptions orphan;
  orphan.shard_index = 1;
  EXPECT_THROW(SearchService(publisher, orphan), std::invalid_argument);
}

// One front, one grammar: a node and a router reject the same malformed
// requests with the same status and the same body.
TEST(SearchFront, NodeAndRouterRejectMalformedRequestsAlike) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  SearchService node(publisher, ServeOptions{});
  dash::testing::ClusterOptions cluster_options;
  cluster_options.shards = 2;
  dash::testing::TestCluster cluster(engine.snapshot(), cluster_options);

  for (const char* target :
       {"/search", "/search?k=3", "/search?q=burger&k=0",
        "/search?q=burger&k=100001", "/search?q=burger&k=abc",
        "/search?q=burger&s=-1", "/search?q=burger&s=4611686018427387905",
        "/no/such/path"}) {
    webapp::HttpResponse from_node = node.Handle(Get(target), Now());
    webapp::HttpResponse from_router =
        cluster.service().Handle(Get(target), Now());
    EXPECT_GE(from_node.status, 400) << target;
    EXPECT_EQ(from_node.status, from_router.status) << target;
    EXPECT_EQ(from_node.body, from_router.body) << target;
  }
  EXPECT_EQ(node.counters().bad_request, 7u);
  EXPECT_EQ(cluster.service().counters().bad_request, 7u);
  EXPECT_EQ(node.counters().not_found, 1u);
  EXPECT_EQ(cluster.service().counters().not_found, 1u);
  // The bounds are inclusive: k=100000 and s=2^62 parse.
  EXPECT_EQ(node.Handle(Get("/search?q=burger&k=100000&s=4611686018427387904"),
                        Now())
                .status,
            200);
}

// The /stats key list of each front, in order: the front's transport and
// status fields first, then the endpoint's own.
std::vector<std::string> StatsKeys(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t at = json.find("\n  \""); at != std::string::npos;
       at = json.find("\n  \"", at + 1)) {
    std::size_t start = at + 4;
    keys.push_back(json.substr(start, json.find('"', start) - start));
  }
  return keys;
}

TEST(SearchFront, StatsKeyListsArePinned) {
  const std::vector<std::string> front = {
      "queue_depth",    "queue_capacity",  "accepted",       "shed",
      "handled",        "parse_errors",    "requests_total", "ok",
      "bad_request",    "not_found",       "unavailable",    "gateway_timeout",
      "latency_count",  "latency_p50_us",  "latency_p99_us", "latency_p999_us",
      "latency_max_us"};
  auto transport = [] { return webapp::HttpServer::Stats{}; };

  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  SearchService node(publisher, ServeOptions{});
  node.set_transport_stats(transport);
  std::vector<std::string> node_keys = front;
  for (const char* key :
       {"generation", "searches", "cache_enabled", "cache_capacity",
        "cache_hits", "cache_misses", "cache_evicted_superseded", "segments",
        "compactions", "workers", "shards", "shard_index", "deadline_ms"}) {
    node_keys.push_back(key);
  }
  EXPECT_EQ(StatsKeys(node.Handle(Get("/stats"), Now()).body), node_keys);

  dash::testing::ClusterOptions cluster_options;
  cluster_options.shards = 2;
  dash::testing::TestCluster cluster(engine.snapshot(), cluster_options);
  cluster.service().set_transport_stats(transport);
  std::vector<std::string> router_keys = front;
  for (const char* key :
       {"degraded", "routed", "shards", "replicas_total", "leg_latency_count",
        "leg_latency_p50_us", "leg_latency_p99_us", "leg_latency_max_us",
        "shard_deadline_ms"}) {
    router_keys.push_back(key);
  }
  EXPECT_EQ(StatsKeys(cluster.service().Handle(Get("/stats"), Now()).body),
            router_keys);
}

TEST(SearchService, SearchBodyMatchesEngineByteForByte) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  SearchService service(publisher, ServeOptions{});

  // Repeated q= parameters are additional keywords; percent-encoding is
  // decoded before the engine sees them.
  webapp::HttpResponse response =
      service.Handle(Get("/search?q=burger&q=coffee&k=5&s=20"), Now());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, SearchService::RenderResults(
                               engine.Search({"burger", "coffee"}, 5, 20)));
  EXPECT_EQ(response.headers.at("X-Dash-Generation"),
            std::to_string(engine.snapshot()->generation()));

  webapp::HttpResponse encoded =
      service.Handle(Get("/search?q=Burger%20Experts&k=3&s=0"), Now());
  EXPECT_EQ(encoded.body, SearchService::RenderResults(
                              engine.Search({"Burger Experts"}, 3, 0)));

  // POST carries the same query string in the body (paper footnote 1).
  webapp::HttpRequest post = webapp::AsPost(Get("/search?q=burger&k=5&s=20"));
  EXPECT_EQ(service.Handle(post, Now()).body,
            SearchService::RenderResults(engine.Search({"burger"}, 5, 20)));
}

TEST(SearchService, Returns503BeforeFirstPublication) {
  SnapshotPublisher empty;
  ServeOptions options;
  options.retry_after_seconds = 7;
  SearchService service(empty, options);
  webapp::HttpResponse response = service.Handle(Get("/search?q=x"), Now());
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.headers.at("Retry-After"), "7");
}

TEST(SearchService, StatsReportsCountersAsJson) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  ServeOptions options;
  options.cache_capacity = 8;
  SearchService service(publisher, options);

  service.Handle(Get("/search?q=burger"), Now());
  service.Handle(Get("/search?q=burger"), Now());  // cache hit
  webapp::HttpResponse response = service.Handle(Get("/stats"), Now());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.at("Content-Type"), "application/json");
  EXPECT_NE(response.body.find("\"generation\": " +
                               std::to_string(engine.snapshot()->generation())),
            std::string::npos);
  EXPECT_NE(response.body.find("\"searches\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"cache_hits\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"cache_misses\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"latency_count\": 2"), std::string::npos);
}

TEST(SearchService, StatsReportsIndexShapeAndCompactions) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  ServeOptions options;
  options.cache_capacity = 4;
  SearchService service(publisher, options);

  // Schema: the index-shape counters are always present — a fresh build
  // serves one segment, zero compactions (no provider wired), and the
  // cache has evicted nothing yet. shard_index is -1 outside shard-node
  // mode (signed, unlike every other counter).
  std::string body = service.Handle(Get("/stats"), Now()).body;
  EXPECT_NE(body.find("\"segments\": " + std::to_string(
                          engine.snapshot()->segment_count())),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"compactions\": 0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"cache_evicted_superseded\": 0"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"shard_index\": -1"), std::string::npos) << body;

  // A compacting builder wires its counter through the provider.
  service.set_compactions_provider([] { return std::uint64_t{7}; });
  body = service.Handle(Get("/stats"), Now()).body;
  EXPECT_NE(body.find("\"compactions\": 7"), std::string::npos) << body;

  // Superseding the served snapshot surfaces cache churn: the stale entry
  // is evicted (lazily, on re-lookup) and counted.
  service.Handle(Get("/search?q=burger"), Now());
  DashEngine rebuilt = MakeEngine();  // same corpus, later generation
  publisher.Publish(rebuilt.snapshot());
  service.Handle(Get("/search?q=burger"), Now());
  body = service.Handle(Get("/stats"), Now()).body;
  EXPECT_NE(body.find("\"cache_evicted_superseded\": 1"), std::string::npos)
      << body;
}

TEST(SearchService, CacheAndShardsServeIdenticalBytes) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  SearchService plain(publisher, ServeOptions{});
  ServeOptions cached_options;
  cached_options.cache_capacity = 16;
  SearchService cached(publisher, cached_options);
  // Sharded serving is a router over shard nodes.
  dash::testing::ClusterOptions cluster_options;
  cluster_options.shards = 8;
  dash::testing::TestCluster sharded(engine.snapshot(), cluster_options);

  for (const char* target :
       {"/search?q=burger&k=5&s=0", "/search?q=burger&k=5&s=0",
        "/search?q=fries&q=coffee&k=3&s=15", "/search?q=nosuchword&k=2&s=0",
        "/search?q=burger&k=25&s=100000"}) {
    webapp::HttpResponse expect = plain.Handle(Get(target), Now());
    EXPECT_EQ(cached.Handle(Get(target), Now()).body, expect.body) << target;
    EXPECT_EQ(sharded.service().Handle(Get(target), Now()).body, expect.body)
        << target;
  }
  EXPECT_GT(cached.counters().cache_hits, 0u);
}

// ---- SearchServer: the full stack over a real loopback socket. ----

TEST(SearchServer, EndToEndOverLoopback) {
  DashEngine engine = MakeEngine();
  SearchServer server(engine.snapshot(), ServeOptions{});
  try {
    server.Start();
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no loopback networking: " << e.what();
  }
  ASSERT_GT(server.port(), 0);

  auto response =
      webapp::FetchOverLoopback(server.port(), "/search?q=burger&k=5&s=20");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, SearchService::RenderResults(
                                engine.Search({"burger"}, 5, 20)));
  EXPECT_EQ(response->headers.at("X-Dash-Generation"),
            std::to_string(engine.snapshot()->generation()));

  auto health = webapp::FetchOverLoopback(server.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  auto missing = webapp::FetchOverLoopback(server.port(), "/no/such");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  auto stats = webapp::FetchOverLoopback(server.port(), "/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"accepted\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"queue_capacity\": 64"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

// The serving tier's concurrency contract, over the wire: HTTP readers
// race a writer that publishes through UpdatableIndex, alternating between
// a whole-index node and a shard node. Every response must name a
// generation that was actually published, generations must be monotone per
// sequential client and server, and each body must byte-match re-running
// the same query against the exact snapshot of that generation — i.e. no
// torn responses, ever.
TEST(SearchServer, ConcurrentReadersSeeMonotoneUntornGenerations) {
  webapp::WebAppInfo app = dash::testing::MakeSearchApp();
  UpdatableIndex updatable(dash::testing::MakeFoodDb(), app);

  ServeOptions options;
  options.num_workers = 3;
  SearchServer server(updatable.publisher(), options);
  // One more input: a shard node over the same publisher, whose slice
  // answers must match the sharded view of the generation they name.
  constexpr int kShards = 2;
  constexpr int kShardIndex = 1;
  ServeOptions shard_options = options;
  shard_options.shards = kShards;
  shard_options.shard_index = kShardIndex;
  SearchServer shard_server(updatable.publisher(), shard_options);
  try {
    server.Start();
    shard_server.Start();
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no loopback networking: " << e.what();
  }

  const std::vector<std::pair<std::string, std::vector<std::string>>> probes =
      {{"/search?q=burger&k=3&s=0", {"burger"}},
       {"/search?q=fries&k=3&s=0", {"fries"}},
       {"/search?q=burger&q=coffee&k=3&s=0", {"burger", "coffee"}}};

  struct Observation {
    std::uint64_t generation = 0;
    std::size_t probe = 0;
    bool shard = false;  // answered by the shard node
    std::string body;
  };
  constexpr int kReaders = 3;
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::string> reader_errors(kReaders);
  std::array<std::atomic<std::size_t>, kReaders> progress{};
  std::array<std::atomic<bool>, kReaders> failed{};
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::size_t iteration = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::size_t probe = iteration % probes.size();
        bool shard = (iteration++ / probes.size()) % 2 == 1;
        auto response = webapp::FetchOverLoopback(
            shard ? shard_server.port() : server.port(), probes[probe].first);
        if (!response.has_value() || response->status != 200) {
          reader_errors[t] = "fetch failed at iteration " +
                             std::to_string(iteration);
          failed[t].store(true, std::memory_order_release);
          return;
        }
        std::int64_t generation = 0;
        if (!util::ParseInt64(response->headers.at("X-Dash-Generation"),
                              &generation)) {
          reader_errors[t] = "unparseable generation header";
          failed[t].store(true, std::memory_order_release);
          return;
        }
        observed[t].push_back({static_cast<std::uint64_t>(generation), probe,
                               shard, std::move(response->body)});
        progress[t].fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Writer: every op publishes one new snapshot; record them all so racy
  // observations can be replayed against the exact snapshot they name.
  std::map<std::uint64_t, SnapshotPtr> published;
  SnapshotPtr initial = updatable.snapshot();
  published[initial->generation()] = initial;
  constexpr int kOps = 25;
  std::vector<db::Row> live;
  for (int op = 0; op < kOps; ++op) {
    if (op % 3 == 2 && !live.empty()) {
      updatable.Delete("comment", live.back());
      live.pop_back();
    } else {
      db::Row row{db::Value(400 + op), db::Value(1 + op % 7), db::Value(109),
                  db::Value(op % 2 == 0 ? "burger rush" : "late coffee"),
                  db::Value("07/11")};
      updatable.Insert("comment", row);
      live.push_back(std::move(row));
    }
    SnapshotPtr snapshot = updatable.snapshot();
    published[snapshot->generation()] = snapshot;
  }
  // Starvation guard: on a loaded single-core box the writer can finish
  // all ops before a reader completes a single fetch. The assertions
  // below need at least one observation per reader, so keep serving
  // until each has one (or has failed — the error is asserted below).
  for (int t = 0; t < kReaders; ++t) {
    while (progress[t].load(std::memory_order_acquire) == 0 &&
           !failed[t].load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  server.Stop();
  shard_server.Stop();

  // Sharded views of the published snapshots, built once per generation.
  std::map<std::uint64_t, std::unique_ptr<ShardedEngine>> sharded;
  auto shard_view = [&](std::uint64_t generation) -> const ShardedEngine& {
    std::unique_ptr<ShardedEngine>& view = sharded[generation];
    if (view == nullptr) {
      view = std::make_unique<ShardedEngine>(published[generation], kShards);
    }
    return *view;
  };

  for (int t = 0; t < kReaders; ++t) {
    SCOPED_TRACE("reader " + std::to_string(t));
    ASSERT_EQ(reader_errors[t], "");
    ASSERT_FALSE(observed[t].empty());
    std::uint64_t last_generation = 0;
    for (const Observation& obs : observed[t]) {
      // Only published generations, in publication order per client.
      ASSERT_EQ(published.count(obs.generation), 1u)
          << "generation " << obs.generation << " was never published";
      ASSERT_GE(obs.generation, last_generation);
      last_generation = obs.generation;
      // No torn responses: the body byte-matches a quiescent re-render of
      // the very snapshot the response claims to have served from.
      const std::vector<std::string>& keywords = probes[obs.probe].second;
      std::string replay = SearchService::RenderResults(
          obs.shard ? shard_view(obs.generation)
                          .SearchShard(kShardIndex, keywords, 3, 0)
                    : published[obs.generation]->Search(keywords, 3, 0));
      ASSERT_EQ(obs.body, replay) << (obs.shard ? "shard node" : "node");
    }
  }
}

}  // namespace
}  // namespace dash::core
