// The central correctness property of Section V: the stepwise and
// integrated MapReduce algorithms build exactly the same fragment index as
// the single-node reference crawler — same fragments, same keyword
// postings, same occurrence counts — across application queries, datasets,
// cluster sizes and reduce-task counts.
#include <gtest/gtest.h>

#include "core/mr_crawl.h"
#include "sql/parser.h"
#include "testing/fooddb.h"
#include "testing/instance_gen.h"
#include "tpch/tpch.h"

namespace dash::core {
namespace {

struct Workload {
  std::string name;
  std::string sql;
};

// The paper's Table III queries (Q1-Q3) against the TPC-H schema, plus the
// fooddb Search query (outer join) as Q0.
const Workload kFoodDb = {
    "fooddb",
    "SELECT name, budget, rate, comment, uname, date "
    "FROM restaurant LEFT JOIN (comment JOIN customer) "
    "WHERE cuisine = $cuisine AND budget BETWEEN $min AND $max"};

const Workload kQ1 = {
    "Q1",
    "SELECT * FROM (region JOIN nation) JOIN customer "
    "WHERE region.rid = $r AND acctbal BETWEEN $min AND $max"};

const Workload kQ2 = {
    "Q2",
    "SELECT * FROM (customer JOIN orders) JOIN lineitem "
    "WHERE customer.cid = $r AND qty BETWEEN $min AND $max"};

const Workload kQ3 = {
    "Q3",
    "SELECT * FROM (customer JOIN orders) JOIN (lineitem JOIN part) "
    "WHERE customer.cid = $r AND qty BETWEEN $min AND $max"};

// Edge shapes: a single-relation query (no join jobs at all), an
// equality-only query (no range attribute), and a two-range-attribute
// query (generic fragment-graph path).
const Workload kSingleRelation = {
    "fooddb_single",
    "SELECT name, rate FROM restaurant "
    "WHERE cuisine = $c AND budget BETWEEN $min AND $max"};

const Workload kEqualityOnly = {
    "fooddb_eqonly",
    "SELECT name, budget, rate FROM restaurant WHERE cuisine = $c"};

const Workload kTwoRanges = {
    "fooddb_2range",
    "SELECT name, cuisine FROM restaurant "
    "WHERE budget BETWEEN $bl AND $bu AND rate BETWEEN $rl AND $ru"};

std::string IndexFingerprint(const FragmentIndexBuild& build) {
  return build.index.ToDebugString(build.catalog);
}

std::string CatalogFingerprint(const FragmentIndexBuild& build) {
  std::string out;
  for (std::size_t f = 0; f < build.catalog.size(); ++f) {
    out += FragmentIdToString(build.catalog.id(static_cast<FragmentHandle>(f)));
    out += "=";
    out +=
        std::to_string(build.catalog.keyword_total(static_cast<FragmentHandle>(f)));
    out += "\n";
  }
  return out;
}

class CrawlEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Workload, int>> {};

TEST_P(CrawlEquivalenceTest, StepwiseAndIntegratedMatchReference) {
  const auto& [workload, reduce_tasks] = GetParam();
  db::Database db = workload.name.rfind("fooddb", 0) == 0
                        ? dash::testing::MakeFoodDb()
                        : tpch::Generate(tpch::Scale::kTiny);
  sql::PsjQuery query = sql::Parse(workload.sql);

  FragmentIndexBuild reference = Crawler(db, query).BuildIndex();

  mr::ClusterConfig config;
  config.block_size_bytes = 4 << 10;  // several map tasks even at tiny scale
  CrawlOptions options;
  options.num_reduce_tasks = reduce_tasks;

  mr::Cluster sw_cluster(config);
  CrawlResult sw = StepwiseCrawl(sw_cluster, db, query, options);
  mr::Cluster int_cluster(config);
  CrawlResult integrated = IntegratedCrawl(int_cluster, db, query, options);

  EXPECT_EQ(CatalogFingerprint(sw.build), CatalogFingerprint(reference));
  EXPECT_EQ(CatalogFingerprint(integrated.build),
            CatalogFingerprint(reference));
  EXPECT_EQ(IndexFingerprint(sw.build), IndexFingerprint(reference));
  EXPECT_EQ(IndexFingerprint(integrated.build), IndexFingerprint(reference));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrawlEquivalenceTest,
    ::testing::Combine(::testing::Values(kFoodDb, kQ1, kQ2, kQ3,
                                         kSingleRelation, kEqualityOnly,
                                         kTwoRanges),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<Workload, int>>& info) {
      return std::get<0>(info.param).name + "_r" +
             std::to_string(std::get<1>(info.param));
    });

// The same equivalence on generator-produced instances (the fuzzing
// harness's instance space), pinning shapes the fixed workloads above
// don't cover by construction: a four-relation FK chain, range-only
// selection, and an empty root relation (every fragment comes from
// nothing — both pipelines must agree on the empty index too).
class GeneratedCrawlEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, dash::testing::GenOptions, std::uint64_t>> {
};

TEST_P(GeneratedCrawlEquivalenceTest, StepwiseAndIntegratedMatchReference) {
  const auto& [name, options, seed] = GetParam();
  dash::testing::RandomInstance inst =
      dash::testing::GenerateInstance(seed, options);
  SCOPED_TRACE(inst.summary);

  FragmentIndexBuild reference = Crawler(inst.db, inst.app.query).BuildIndex();

  mr::ClusterConfig config;
  config.block_size_bytes = 4 << 10;
  for (int reduce_tasks : {1, 3}) {
    CrawlOptions crawl_options;
    crawl_options.num_reduce_tasks = reduce_tasks;
    mr::Cluster sw_cluster(config);
    CrawlResult sw =
        StepwiseCrawl(sw_cluster, inst.db, inst.app.query, crawl_options);
    mr::Cluster int_cluster(config);
    CrawlResult integrated =
        IntegratedCrawl(int_cluster, inst.db, inst.app.query, crawl_options);

    EXPECT_EQ(CatalogFingerprint(sw.build), CatalogFingerprint(reference));
    EXPECT_EQ(CatalogFingerprint(integrated.build),
              CatalogFingerprint(reference));
    EXPECT_EQ(IndexFingerprint(sw.build), IndexFingerprint(reference));
    EXPECT_EQ(IndexFingerprint(integrated.build),
              IndexFingerprint(reference));
  }
}

dash::testing::GenOptions ChainOptions() {
  dash::testing::GenOptions options;
  options.force_tables = 4;
  return options;
}

dash::testing::GenOptions RangeOnlyOptions() {
  dash::testing::GenOptions options;
  options.force_eq = 0;
  options.force_range = 2;
  return options;
}

dash::testing::GenOptions EmptyRootOptions() {
  dash::testing::GenOptions options;
  options.empty_root = true;
  return options;
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedInstances, GeneratedCrawlEquivalenceTest,
    ::testing::Values(
        std::make_tuple(std::string("chain4"), ChainOptions(), 11ull),
        std::make_tuple(std::string("range_only"), RangeOnlyOptions(), 12ull),
        std::make_tuple(std::string("empty_root"), EmptyRootOptions(), 13ull)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, dash::testing::GenOptions, std::uint64_t>>&
           info) { return std::get<0>(info.param); });

TEST(CrawlPhases, StepwiseReportsThreePhases) {
  db::Database db = dash::testing::MakeFoodDb();
  sql::PsjQuery query = sql::Parse(kFoodDb.sql);
  mr::Cluster cluster;
  CrawlResult result = StepwiseCrawl(cluster, db, query);
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_EQ(result.phases[0].name, "SW-Jn");
  EXPECT_EQ(result.phases[1].name, "SW-Grp");
  EXPECT_EQ(result.phases[2].name, "SW-Idx");
  // Two join jobs for three relations.
  EXPECT_EQ(result.phases[0].metrics.jobs, 2u);
  EXPECT_GT(result.TotalWallSec(), 0.0);
}

TEST(CrawlPhases, IntegratedReportsThreePhases) {
  db::Database db = dash::testing::MakeFoodDb();
  sql::PsjQuery query = sql::Parse(kFoodDb.sql);
  mr::Cluster cluster;
  CrawlResult result = IntegratedCrawl(cluster, db, query);
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_EQ(result.phases[0].name, "INT-Jn");
  EXPECT_EQ(result.phases[1].name, "INT-Ext");
  EXPECT_EQ(result.phases[2].name, "INT-Cnsd");
  // 3 aggregate jobs + 2 join jobs.
  EXPECT_EQ(result.phases[0].metrics.jobs, 5u);
  // One extract job per relation with projected attributes.
  EXPECT_EQ(result.phases[1].metrics.jobs, 3u);
}

// Every job's record and byte counters, pinned. They are Figure 10's
// currency: a change that moves one shuffle byte shifts the modeled seconds
// of bench_crawl_index's Q2/small row (150.6 s SW, 155.8 s INT), even when
// the index it builds is unchanged.
struct JobCounters {
  const char* job_name;
  std::uint64_t map_tasks;
  std::uint64_t reduce_tasks;
  std::uint64_t map_input_records;
  std::uint64_t map_input_bytes;
  std::uint64_t map_output_records;
  std::uint64_t map_output_bytes;
  std::uint64_t reduce_output_records;
  std::uint64_t reduce_output_bytes;
};

void ExpectJobCounters(const mr::Cluster& cluster,
                       const std::vector<JobCounters>& expected) {
  std::vector<mr::JobMetrics> history = cluster.history();
  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const mr::JobMetrics& got = history[i];
    const JobCounters& want = expected[i];
    SCOPED_TRACE(want.job_name);
    EXPECT_EQ(got.job_name, want.job_name);
    EXPECT_EQ(got.map_tasks, want.map_tasks);
    EXPECT_EQ(got.reduce_tasks, want.reduce_tasks);
    EXPECT_EQ(got.map_input_records, want.map_input_records);
    EXPECT_EQ(got.map_input_bytes, want.map_input_bytes);
    EXPECT_EQ(got.map_output_records, want.map_output_records);
    EXPECT_EQ(got.map_output_bytes, want.map_output_bytes);
    EXPECT_EQ(got.reduce_output_records, want.reduce_output_records);
    EXPECT_EQ(got.reduce_output_bytes, want.reduce_output_bytes);
  }
}

TEST(CrawlPhases, JobCountersMatchTheParent) {
  db::Database db = tpch::Generate(tpch::Scale::kSmall);
  sql::PsjQuery query = sql::Parse(kQ2.sql);

  mr::Cluster sw_cluster;
  StepwiseCrawl(sw_cluster, db, query);
  ExpectJobCounters(
      sw_cluster,
      {
          {"SW-join(customer.cid=orders.cid)", 1, 4, 2165, 294028, 2165,
           301484, 1965, 563817},
          {"SW-join(orders.oid=lineitem.oid)", 2, 4, 9841, 1517774, 9841,
           1561378, 7876, 3210308},
          {"SW-group", 4, 4, 7876, 3210308, 7876, 3251768, 7876, 3251768},
          {"SW-index", 4, 4, 7876, 3251768, 283338, 4289744, 25288, 2774889},
      });

  mr::Cluster int_cluster;
  IntegratedCrawl(int_cluster, db, query);
  ExpectJobCounters(
      int_cluster,
      {
          {"INT-aggregate(customer)", 1, 4, 200, 30871, 200, 690, 200, 890},
          {"INT-aggregate(orders)", 1, 4, 1965, 260992, 1965, 15481, 1965,
           17446},
          {"INT-aggregate(lineitem)", 1, 4, 7876, 944116, 7581, 54992, 7581,
           62573},
          {"INT-join(customer.cid=orders.cid)", 1, 4, 2165, 20501, 2165, 27957,
           1965, 28142},
          {"INT-join(orders.oid=lineitem.oid)", 1, 4, 9546, 100261, 9546,
           142553, 7581, 178606},
          {"INT-extract(customer)", 1, 4, 7781, 217258, 7781, 128051, 85322,
           1326903},
          {"INT-extract(orders)", 1, 4, 9546, 449144, 9546, 408305, 123241,
           1842026},
          {"INT-extract(lineitem)", 2, 4, 15457, 1138179, 15457, 1134348,
           123419, 1793415},
          {"INT-consolidate", 5, 4, 331982, 4962344, 322728, 4839356, 25288,
           2774889},
      });
}

// The paper's efficiency claim in miniature: the integrated algorithm
// shuffles fewer bytes than the stepwise one once operands carry text
// (Q2 joins the text-heavy orders/lineitem relations).
TEST(CrawlShuffleVolume, IntegratedShufflesLessOnTextHeavyJoins) {
  db::Database db = tpch::Generate(tpch::Scale::kTiny);
  sql::PsjQuery query = sql::Parse(kQ2.sql);
  mr::Cluster sw_cluster, int_cluster;
  StepwiseCrawl(sw_cluster, db, query);
  IntegratedCrawl(int_cluster, db, query);
  std::uint64_t sw_shuffle = sw_cluster.Totals().map_output_bytes;
  std::uint64_t int_shuffle = int_cluster.Totals().map_output_bytes;
  EXPECT_LT(int_shuffle, sw_shuffle);
}

// Join-phase shuffle in particular collapses: compact tuples only.
TEST(CrawlShuffleVolume, IntegratedJoinPhaseIsSkinny) {
  db::Database db = tpch::Generate(tpch::Scale::kTiny);
  sql::PsjQuery query = sql::Parse(kQ3.sql);
  mr::Cluster sw_cluster, int_cluster;
  CrawlResult sw = StepwiseCrawl(sw_cluster, db, query);
  CrawlResult integrated = IntegratedCrawl(int_cluster, db, query);
  EXPECT_LT(integrated.phases[0].metrics.map_output_bytes,
            sw.phases[0].metrics.map_output_bytes / 2);
}

}  // namespace
}  // namespace dash::core
