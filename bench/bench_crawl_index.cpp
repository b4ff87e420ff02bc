// Figure 10 + Table II: database crawling and fragment indexing elapsed
// time — stepwise (SW) vs integrated (INT) — for application queries
// Q1/Q2/Q3 over the small/medium/large datasets, with the per-phase
// breakdown the paper's stacked bars show (SW-Jn/Grp/Idx,
// INT-Jn/Ext/Cnsd).
//
// Counters reported per run:
//   wall_s      real elapsed seconds on this machine (all phases)
//   modeled_s   elapsed seconds under the paper's 4-node-cluster cost
//               model with data_scale_factor=1000 (our datasets are
//               Table II divided by ~1000, so modeled time charges each
//               byte a thousandfold to recover the paper-scale regime)
//   shuffle_MB  bytes crossing the (simulated) network
//   peak_rss_MB the process's resident high-water (VmHWM) during the crawl:
//               reset by writing 5 to /proc/self/clear_refs before it, so it
//               counts the datasets already generated plus the crawl's own
//               growth; 0 where that file cannot be written. Memory freed
//               by an earlier crawl in the same process hides a later
//               crawl's growth, so read it from a run filtered to one crawl:
//                 bench_crawl_index --benchmark_filter='crawl_index/INT/Q2/medium/'
//   <phase>_s   wall seconds per pipeline phase
//
// After the sweep a Figure-10-style table of modeled times is printed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "core/mr_crawl.h"
#include "util/string_util.h"
#include "workloads.h"

namespace {

using namespace dash;

const tpch::Scale kScales[] = {tpch::Scale::kSmall, tpch::Scale::kMedium,
                               tpch::Scale::kLarge};

mr::CostModel PaperCostModel() {
  mr::CostModel cost;  // 4 nodes, gigabit, commodity disks (Section VII)
  cost.data_scale_factor = 1000.0;
  return cost;
}

struct RunSummary {
  double wall_s = 0;
  double modeled_s = 0;
  double peak_rss_mb = 0;
  std::vector<std::pair<std::string, double>> phase_modeled_s;
};

// Resets the process's resident high-water mark (VmHWM) to its current
// resident size. False where /proc/self/clear_refs cannot be written.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// VmHWM in MB; 0 where /proc/self/status does not report it.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr &&
         std::sscanf(line, "VmHWM: %lld", &kb) != 1) {
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}
// (integrated, query, scale) -> summary, filled as benchmarks run.
std::map<std::tuple<bool, int, int>, RunSummary> g_summaries;

void PrintTableII() {
  std::printf("Table II — experimented datasets (payload bytes; Table II "
              "of the paper divided by ~1000)\n");
  std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "", "R", "N", "C", "O",
              "L", "P");
  for (tpch::Scale scale : kScales) {
    const db::Database& db = bench::Dataset(scale);
    std::printf("%-8s %10s %10s %10s %10s %10s %10s\n",
                std::string(tpch::ScaleName(scale)).c_str(),
                util::HumanBytes(db.table("region").PayloadBytes()).c_str(),
                util::HumanBytes(db.table("nation").PayloadBytes()).c_str(),
                util::HumanBytes(db.table("customer").PayloadBytes()).c_str(),
                util::HumanBytes(db.table("orders").PayloadBytes()).c_str(),
                util::HumanBytes(db.table("lineitem").PayloadBytes()).c_str(),
                util::HumanBytes(db.table("part").PayloadBytes()).c_str());
  }
  std::printf("\n");
}

void PrintFigure10() {
  std::printf(
      "\nFigure 10 — modeled crawling+indexing elapsed time, seconds "
      "(paper cost model, data x1000)\n%-8s %-4s %12s %12s %12s %12s %14s | "
      "phase breakdown\n",
      "dataset", "Q", "SW", "INT", "saving", "wall SW/INT",
      "peak MB SW/INT");
  for (tpch::Scale scale : kScales) {
    for (int q : {1, 2, 3}) {
      auto sw = g_summaries.find({false, q, static_cast<int>(scale)});
      auto in = g_summaries.find({true, q, static_cast<int>(scale)});
      if (sw == g_summaries.end() || in == g_summaries.end()) continue;
      std::printf("%-8s Q%-3d %11.1fs %11.1fs %11.1f%% %6.2f/%.2fs %7.0f/%-6.0f | ",
                  std::string(tpch::ScaleName(scale)).c_str(), q,
                  sw->second.modeled_s, in->second.modeled_s,
                  100.0 * (1.0 - in->second.modeled_s / sw->second.modeled_s),
                  sw->second.wall_s, in->second.wall_s,
                  sw->second.peak_rss_mb, in->second.peak_rss_mb);
      for (const auto& [name, secs] : sw->second.phase_modeled_s) {
        std::printf("%s=%.1fs ", name.c_str(), secs);
      }
      for (const auto& [name, secs] : in->second.phase_modeled_s) {
        std::printf("%s=%.1fs ", name.c_str(), secs);
      }
      std::printf("\n");
    }
  }
}

void BM_CrawlIndex(benchmark::State& state) {
  const bool integrated = state.range(0) != 0;
  const int query = static_cast<int>(state.range(1));
  const tpch::Scale scale = static_cast<tpch::Scale>(state.range(2));

  const db::Database& db = bench::Dataset(scale);
  sql::PsjQuery psj = sql::Parse(bench::QuerySql(query));
  const mr::CostModel cost = PaperCostModel();

  RunSummary summary;
  double shuffle_bytes = 0;
  std::map<std::string, double> phase_wall;
  std::size_t fragments = 0;
  for (auto _ : state) {
    const bool peak_reset = ResetPeakRss();
    mr::Cluster cluster;
    core::CrawlResult result = integrated
                                   ? core::IntegratedCrawl(cluster, db, psj)
                                   : core::StepwiseCrawl(cluster, db, psj);
    summary.peak_rss_mb = peak_reset ? PeakRssMb() : 0;
    summary.wall_s = result.TotalWallSec();
    summary.modeled_s = result.ModeledSec(cost);
    summary.phase_modeled_s.clear();
    for (const core::CrawlPhase& p : result.phases) {
      summary.phase_modeled_s.emplace_back(p.name, p.metrics.ModeledSec(cost));
      phase_wall[p.name] += p.metrics.TotalWallSec();
    }
    shuffle_bytes += static_cast<double>(cluster.Totals().map_output_bytes);
    fragments = result.build.catalog.size();
    benchmark::DoNotOptimize(result.build.index.keyword_count());
  }
  g_summaries[{integrated, query, static_cast<int>(scale)}] = summary;

  const double n = static_cast<double>(state.iterations());
  state.counters["wall_s"] = summary.wall_s;
  state.counters["modeled_s"] = summary.modeled_s;
  state.counters["shuffle_MB"] = shuffle_bytes / n / (1024.0 * 1024.0);
  state.counters["peak_rss_MB"] = summary.peak_rss_mb;
  state.counters["fragments"] = static_cast<double>(fragments);
  for (const auto& [name, secs] : phase_wall) {
    state.counters[name + "_s"] = secs / n;
  }
}

void RegisterAll() {
  for (tpch::Scale scale : kScales) {
    for (int query : {1, 2, 3}) {
      for (bool integrated : {false, true}) {
        std::string name = std::string("crawl_index/") +
                           (integrated ? "INT" : "SW") + "/Q" +
                           std::to_string(query) + "/" +
                           std::string(tpch::ScaleName(scale));
        benchmark::RegisterBenchmark(
            name.c_str(),
            [](benchmark::State& state) { BM_CrawlIndex(state); })
            ->Args({integrated ? 1 : 0, query, static_cast<int>(scale)})
            ->Unit(benchmark::kSecond)
            ->Iterations(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintTableII();
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintFigure10();
  benchmark::Shutdown();
  return 0;
}
