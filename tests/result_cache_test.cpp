// Result cache tests: hit/miss accounting, request-order keys, LRU
// eviction, generation invalidation, thread safety, and the seed-cap
// search option.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/index_update.h"
#include "core/result_cache.h"
#include "core/search_server.h"
#include "testing/fooddb.h"
#include "tpch/tpch.h"
#include "sql/parser.h"

namespace dash::core {
namespace {

DashEngine BuildFoodDbEngine() {
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  return DashEngine::Build(dash::testing::MakeFoodDb(),
                           dash::testing::MakeSearchApp(), options);
}

TEST(ResultCache, MissThenHit) {
  DashEngine engine = BuildFoodDbEngine();
  CachingEngine caching(engine, 16);
  auto first = caching.Search({"burger"}, 2, 20);
  auto second = caching.Search({"burger"}, 2, 20);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].url, second[i].url);
  }
  EXPECT_EQ(caching.cache().stats().hits, 1u);
  EXPECT_EQ(caching.cache().stats().misses, 1u);
  EXPECT_DOUBLE_EQ(caching.cache().stats().HitRate(), 0.5);
}

TEST(ResultCache, KeyCoversAllQueryDimensions) {
  DashEngine engine = BuildFoodDbEngine();
  CachingEngine caching(engine, 16);
  (void)caching.Search({"burger"}, 2, 20);
  (void)caching.Search({"burger"}, 3, 20);   // different k
  (void)caching.Search({"burger"}, 2, 50);   // different s
  (void)caching.Search({"fries"}, 2, 20);    // different keyword
  EXPECT_EQ(caching.cache().stats().misses, 4u);
  EXPECT_EQ(caching.cache().stats().hits, 0u);
}

// The searcher sums per-term score contributions in query order, so with
// three or more terms a reordered query can render different bytes. The
// cache therefore keys on request order: once the sorted order is cached,
// every other order must still be answered with its own bytes.
TEST(ResultCache, KeywordOrderIsPartOfTheKey) {
  webapp::WebAppInfo app;
  app.name = "Q1";
  app.uri = "example.com/q1";
  app.query = sql::Parse(
      "SELECT * FROM (region JOIN nation) JOIN customer "
      "WHERE region.rid = $r AND acctbal BETWEEN $min AND $max");
  app.codec =
      webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
  DashEngine engine =
      DashEngine::Build(tpch::Generate(tpch::Scale::kSmall), app);
  SnapshotPublisher publisher(engine.snapshot());
  ServeOptions options;
  options.cache_capacity = 16;
  SearchService service(publisher, options);
  auto target = [](const std::vector<std::string>& keywords) {
    std::string t = "/search?k=10&s=0";
    for (const std::string& keyword : keywords) t += "&q=" + keyword;
    return webapp::ParseUrl(t);
  };

  std::vector<std::string> keywords = {"even", "express", "furiously"};
  const std::string sorted_body =
      SearchService::RenderResults(engine.Search(keywords, 10, 0));
  ASSERT_EQ(service.Handle(target(keywords), std::chrono::steady_clock::now())
                .body,
            sorted_body);
  bool some_order_differs = false;
  while (std::next_permutation(keywords.begin(), keywords.end())) {
    const std::string want =
        SearchService::RenderResults(engine.Search(keywords, 10, 0));
    some_order_differs = some_order_differs || want != sorted_body;
    EXPECT_EQ(
        service.Handle(target(keywords), std::chrono::steady_clock::now())
            .body,
        want);
  }
  // The query is only a witness if the orders really render differently.
  EXPECT_TRUE(some_order_differs);
  EXPECT_EQ(service.counters().cache_hits, 0u);

  // The same order again is a hit.
  CachingEngine caching(engine, 16);
  (void)caching.Search({"burger", "fries"}, 2, 20);
  (void)caching.Search({"fries", "burger"}, 2, 20);
  (void)caching.Search({"fries", "burger"}, 2, 20);
  EXPECT_EQ(caching.cache().stats().hits, 1u);
  EXPECT_EQ(caching.cache().stats().misses, 2u);
}

TEST(ResultCache, LruEvicts) {
  ResultCache cache(2);
  cache.Insert({"a"}, 1, 1, 1, {});
  cache.Insert({"b"}, 1, 1, 1, {});
  ASSERT_TRUE(cache.Lookup({"a"}, 1, 1, 1).has_value());  // touch a
  cache.Insert({"c"}, 1, 1, 1, {});                       // evicts b
  EXPECT_TRUE(cache.Lookup({"a"}, 1, 1, 1).has_value());
  EXPECT_FALSE(cache.Lookup({"b"}, 1, 1, 1).has_value());
  EXPECT_TRUE(cache.Lookup({"c"}, 1, 1, 1).has_value());
  EXPECT_LE(cache.size(), 2u);
}

TEST(ResultCache, GenerationMismatchIsAMiss) {
  ResultCache cache(8);
  cache.Insert({"a"}, 1, 1, /*generation=*/7, {});
  ASSERT_TRUE(cache.Lookup({"a"}, 1, 1, 7).has_value());
  // A new snapshot generation makes the entry stale (and evicts it).
  EXPECT_FALSE(cache.Lookup({"a"}, 1, 1, 8).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Re-inserting under the new generation works.
  cache.Insert({"a"}, 1, 1, 8, {});
  EXPECT_TRUE(cache.Lookup({"a"}, 1, 1, 8).has_value());
}

// The serving-path hazard the generation keying exists for: after an
// incremental index update republishes the snapshot, cached entries miss
// automatically — no manual invalidation call anywhere.
TEST(ResultCache, AutomaticInvalidationAfterIndexUpdate) {
  webapp::WebAppInfo app = dash::testing::MakeSearchApp();
  UpdatableIndex updatable(dash::testing::MakeFoodDb(), app);
  CachingEngine caching(updatable.publisher(), 16);

  auto before = caching.Search({"burger"}, 3, 0);
  ASSERT_FALSE(before.empty());
  double stale_top_score = before[0].score;
  ASSERT_TRUE(caching.Search({"burger"}, 3, 0).size() == before.size());
  EXPECT_EQ(caching.cache().stats().hits, 1u);  // same generation: a hit

  // A new glowing burger review for Bond's Cafe changes the (American, 9)
  // fragment's statistics and the global df of "burger". The updater
  // publishes a new snapshot, so the cached entry is stale immediately.
  updatable.Insert("comment",
                   {db::Value(207), db::Value(7), db::Value(109),
                    db::Value("burger burger burger"), db::Value("07/11")});

  auto fresh = caching.Search({"burger"}, 3, 0);
  EXPECT_EQ(caching.cache().stats().misses, 2u);
  auto expected = updatable.snapshot()->Search({"burger"}, 3, 0);
  ASSERT_EQ(fresh.size(), expected.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i].url, expected[i].url);
    EXPECT_DOUBLE_EQ(fresh[i].score, expected[i].score);
  }
  // And the update genuinely moved the needle (a stale hit would have
  // answered wrongly).
  EXPECT_NE(fresh[0].score, stale_top_score);
}

TEST(ResultCache, ZeroCapacityNeverStores) {
  ResultCache cache(0);
  cache.Insert({"a"}, 1, 1, 1, {});
  EXPECT_FALSE(cache.Lookup({"a"}, 1, 1, 1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ConcurrentAccessIsSafe) {
  DashEngine engine = BuildFoodDbEngine();
  CachingEngine caching(engine, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&caching, t] {
      const char* keyword = (t % 2 == 0) ? "burger" : "fries";
      for (int i = 0; i < 50; ++i) {
        auto results = caching.Search({keyword}, 2, 20);
        ASSERT_FALSE(results.empty());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(caching.cache().stats().hits + caching.cache().stats().misses,
            200u);
  EXPECT_GT(caching.cache().stats().HitRate(), 0.9);
}

TEST(ResultCache, PurgeSupersededRacesConcurrentPublishes) {
  // The serving tier calls PurgeSuperseded once per observed generation
  // change while request threads keep inserting and looking up at
  // whatever generation they admitted with. The cache must stay
  // internally consistent under that race (run under tsan), and after
  // quiescence one final purge must leave nothing stale behind.
  ResultCache cache(64);
  constexpr std::uint64_t kGenerations = 40;
  std::atomic<std::uint64_t> published{1};
  std::atomic<bool> done{false};

  std::thread publisher([&cache, &published, &done] {
    for (std::uint64_t g = 2; g <= kGenerations; ++g) {
      published.store(g, std::memory_order_release);
      cache.PurgeSuperseded(g);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, &published, t] {
      for (int i = 0; i < 400; ++i) {
        // A worker may admit at generation g and insert after the purge
        // for g+1 already ran — exactly the race PurgeSuperseded must
        // tolerate (the entry is stale on arrival; a later purge or a
        // lazy lookup eviction reclaims it).
        std::uint64_t g = published.load(std::memory_order_acquire);
        std::vector<std::string> keywords = {
            "w" + std::to_string(t) + "_" + std::to_string(i % 8)};
        cache.Insert(keywords, 3, 0, g, {});
        cache.Lookup(keywords, 3, 0, g);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  publisher.join();
  ASSERT_TRUE(done.load());

  // Quiescent: one purge at the final generation reclaims every stale
  // entry; a second purge finds nothing — no entry escapes with a
  // superseded generation, and none is double-counted.
  cache.PurgeSuperseded(kGenerations);
  EXPECT_EQ(cache.PurgeSuperseded(kGenerations), 0u);
  EXPECT_LE(cache.size(), 64u);
  // Whatever survived answers only at the final generation.
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 8; ++i) {
      std::vector<std::string> keywords = {
          "w" + std::to_string(t) + "_" + std::to_string(i)};
      EXPECT_FALSE(cache.Lookup(keywords, 3, 0, kGenerations - 1).has_value());
    }
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evicted_superseded, 0u);
}

// ---------- Seed-cap search option ----------

TEST(SeedCap, LargeCapIsExact) {
  db::Database db = tpch::Generate(tpch::Scale::kTiny);
  webapp::WebAppInfo app;
  app.name = "Q2";
  app.uri = "example.com/q2";
  app.query = sql::Parse(
      "SELECT * FROM (customer JOIN orders) JOIN lineitem "
      "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
  app.codec =
      webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  DashEngine engine = DashEngine::Build(db, app, options);

  auto by_df = engine.index().KeywordsByDf();
  const std::string hot = by_df.front().first;
  auto uncapped = engine.Search({hot}, 5, 100);
  auto capped = engine.Search({hot}, 5, 100, engine.catalog().size());
  ASSERT_EQ(uncapped.size(), capped.size());
  for (std::size_t i = 0; i < uncapped.size(); ++i) {
    EXPECT_EQ(uncapped[i].url, capped[i].url);
  }
}

TEST(SeedCap, TightCapStillReturnsTopPages) {
  db::Database db = dash::testing::MakeFoodDb();
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  DashEngine engine =
      DashEngine::Build(db, dash::testing::MakeSearchApp(), options);
  // Cap to 1 seed: only the best-scored relevant fragment is explored.
  auto results = engine.Search({"burger"}, 5, 1, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].url, "www.example.com/Search?c=American&l=10&u=10");
}

}  // namespace
}  // namespace dash::core
