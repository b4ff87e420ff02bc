// dash_loadgen: traffic-replay load generator for the serving tier.
//
// Simulates N users issuing Zipf-skewed keyword queries (hot keywords
// dominate, as real search traffic does) against a Dash search server and
// reports throughput and tail latency. Two pacing models:
//
//   * closed loop (default): each user sends its next request as soon as
//     the previous response arrives — throughput-limited by the server;
//   * open loop (--rate R): requests are scheduled at R per second
//     regardless of completions, and latency is measured from the
//     *scheduled* send time, so queueing delay is charged to the server
//     (no coordinated omission).
//
// Without --port it benchmarks the full serving matrix in-process: a
// core::SearchServer per cell over one shared snapshot, cells =
// {1,4,8} worker threads x {cache off/on}, and writes
// BENCH_serving.json with QPS and exact p50/p99/p999 latency per cell
// (percentiles come from the raw sample vector, not the server's
// histogram). With --port it drives an already-running external server
// (e.g. tools/dash_serve) as a single cell.
//
// Closed-loop users honor Retry-After on 503 before re-sending (an
// overloaded queue is not helped by a hammering client); open-loop users
// keep their schedule, as coordinated-omission-free measurement demands.
// Shed responses are reported both as a count and as shed_ratio.
//
// With --cluster it benchmarks the replicated-shard serving tier instead:
// a testing/chaos.h TestCluster (4 shards) per cell, cells =
// {1,2} replicas x {0,1,2} killed replicas, measuring recall@k against
// the single-process reference engine plus tail latency, written to
// BENCH_cluster.json. Kills spread across distinct shards first
// (testing/chaos.h), so the r2 rows show replication holding recall at
// 1.0 where the r1 rows lose shards.
//
//   dash_loadgen --users 4 --requests 200          # full 6-cell matrix
//   dash_loadgen --smoke                           # ~2s CI version
//   dash_loadgen --check BENCH_serving.json        # schema gate (CI)
//   dash_loadgen --port 8080 --users 8 --rate 500  # external, open loop
//   dash_loadgen --cluster --smoke                 # cluster recall bench
//   dash_loadgen --cluster --check BENCH_cluster.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "core/search_router.h"
#include "core/search_server.h"
#include "testing/chaos.h"
#include "tpch/tpch.h"
#include "webapp/http.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "webapp/http_server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Flags {
  bool smoke = false;
  bool cluster = false;  // replicated-shard recall/latency bench
  std::string check;  // path to validate instead of benchmarking
  int users = 4;
  int requests = 200;  // per user
  double rate = 0;     // open-loop total req/s; 0 = closed loop
  int external_port = 0;
  int query = 1;
  dash::tpch::Scale scale = dash::tpch::Scale::kTiny;
  std::uint64_t seed = 1;
  int k = 10;
  std::uint64_t s = 0;
  int deadline_ms = 0;
};

struct CellSpec {
  int threads;
  bool cache;
  std::string name;
};

std::vector<CellSpec> MatrixCells() {
  std::vector<CellSpec> cells;
  for (int t : {1, 4, 8}) {
    for (int c : {0, 1}) {
      cells.push_back(
          {t, c != 0, "t" + std::to_string(t) + "/cache" + std::to_string(c)});
    }
  }
  return cells;
}

struct UserStats {
  std::vector<std::uint64_t> samples_us;  // completed searches (200/504)
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;  // 504 (partial top-k served)
  std::uint64_t shed = 0;      // 503
  std::uint64_t errors = 0;    // connect/parse failures, other statuses
};

struct CellResult {
  double qps = 0;  // completed searches per wall-clock second
  std::uint64_t p50_us = 0, p99_us = 0, p999_us = 0, max_us = 0;
  std::uint64_t requests = 0, ok = 0, timeouts = 0, shed = 0, errors = 0;
  double shed_ratio = 0;  // shed / requests — overload visibility
  double seconds = 0;
};

// Exact percentile over sorted samples: smallest value with at least
// ceil(q*n) samples <= it.
std::uint64_t ExactPercentile(const std::vector<std::uint64_t>& sorted,
                              double q) {
  if (sorted.empty()) return 0;
  auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

// The request-target pool: keyword ranks are drawn Zipf(1.0) over the
// DF-descending keyword list, so users hammer hot keywords the way real
// traffic does, while the tail still gets coverage.
class TargetPool {
 public:
  TargetPool(const dash::core::DashEngine& engine, const Flags& flags)
      : zipf_(std::max<std::size_t>(engine.index().KeywordsByDf().size(), 1),
              1.0) {
    for (const auto& [keyword, df] : engine.index().KeywordsByDf()) {
      keywords_.push_back(keyword);
    }
    suffix_ = "&k=" + std::to_string(flags.k) + "&s=" + std::to_string(flags.s);
  }

  std::string Pick(dash::util::SplitMix64& rng) const {
    if (keywords_.empty()) return "/search?q=nothing" + suffix_;
    std::size_t rank = zipf_.Sample(rng);
    return "/search?q=" + dash::util::UrlEncode(keywords_[rank]) + suffix_;
  }

  // The raw keyword (same Zipf draw), for callers that need the query
  // itself — the cluster bench computes recall against the reference
  // engine, which takes keywords, not targets.
  std::string PickKeyword(dash::util::SplitMix64& rng) const {
    if (keywords_.empty()) return "nothing";
    return keywords_[zipf_.Sample(rng)];
  }

 private:
  std::vector<std::string> keywords_;  // DF-descending; rank 0 hottest
  dash::util::ZipfSampler zipf_;
  std::string suffix_;
};

CellResult RunCell(int port, const TargetPool& targets, const Flags& flags) {
  dash::util::ThreadPool pool(static_cast<std::size_t>(flags.users));
  std::vector<std::future<UserStats>> futures;
  const Clock::time_point start = Clock::now();
  for (int u = 0; u < flags.users; ++u) {
    futures.push_back(pool.Submit([&, u]() -> UserStats {
      dash::util::SplitMix64 rng(flags.seed ^
                                 (0x9E3779B97F4A7C15ULL * (u + 1)));
      UserStats st;
      for (int i = 0; i < flags.requests; ++i) {
        std::string target = targets.Pick(rng);
        Clock::time_point sent = Clock::now();
        if (flags.rate > 0) {
          // Open loop: request g of the global schedule fires at
          // start + g/rate; latency counts from the *scheduled* instant.
          std::size_t g = static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(flags.users) +
                          static_cast<std::size_t>(u);
          Clock::time_point scheduled =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(g) / flags.rate));
          std::this_thread::sleep_until(scheduled);
          sent = scheduled;
        }
        std::optional<dash::webapp::HttpResponse> response =
            dash::webapp::FetchOverLoopback(port, target);
        auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - sent)
                .count());
        if (!response.has_value()) {
          ++st.errors;
        } else if (response->status == 200) {
          ++st.ok;
          st.samples_us.push_back(us);
        } else if (response->status == 504) {
          ++st.timeouts;
          st.samples_us.push_back(us);
        } else if (response->status == 503) {
          ++st.shed;
          // Closed loop: honor the server's Retry-After before re-sending
          // instead of immediately hammering an already-full queue. Open
          // loop keeps its schedule — backing off there would hide the
          // overload the measurement exists to expose.
          if (flags.rate <= 0) {
            std::int64_t retry_s = 0;
            auto it = response->headers.find("Retry-After");
            if (it != response->headers.end() &&
                dash::util::ParseInt64(it->second, &retry_s)) {
              retry_s = std::min<std::int64_t>(std::max<std::int64_t>(
                                                   retry_s, 0),
                                               5);
              if (retry_s > 0) {
                std::this_thread::sleep_for(std::chrono::seconds(retry_s));
              }
            }
          }
        } else {
          ++st.errors;
        }
      }
      return st;
    }));
  }

  CellResult r;
  std::vector<std::uint64_t> all;
  for (auto& f : futures) {
    UserStats st = f.get();
    r.ok += st.ok;
    r.timeouts += st.timeouts;
    r.shed += st.shed;
    r.errors += st.errors;
    all.insert(all.end(), st.samples_us.begin(), st.samples_us.end());
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.requests = static_cast<std::uint64_t>(flags.users) *
               static_cast<std::uint64_t>(flags.requests);
  r.qps = r.seconds > 0
              ? static_cast<double>(r.ok + r.timeouts) / r.seconds
              : 0;
  r.shed_ratio = r.requests > 0
                     ? static_cast<double>(r.shed) /
                           static_cast<double>(r.requests)
                     : 0;
  std::sort(all.begin(), all.end());
  r.p50_us = ExactPercentile(all, 0.50);
  r.p99_us = ExactPercentile(all, 0.99);
  r.p999_us = ExactPercentile(all, 0.999);
  r.max_us = all.empty() ? 0 : all.back();
  return r;
}

void WriteServingJson(const Flags& flags,
                      const std::vector<std::pair<std::string, CellResult>>&
                          results) {
  const char* dir = std::getenv("DASH_BENCH_JSON_DIR");
  std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_serving.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serving\",\n  \"unit\": \"us\",\n"
               "  \"config\": {\"users\": %d, \"requests_per_user\": %d, "
               "\"rate\": %.1f, \"query\": %d, \"scale\": \"%s\", "
               "\"k\": %d, \"s\": %llu},\n  \"cells\": {\n",
               flags.users, flags.requests, flags.rate, flags.query,
               std::string(dash::tpch::ScaleName(flags.scale)).c_str(),
               flags.k, static_cast<unsigned long long>(flags.s));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [name, r] = results[i];
    std::fprintf(
        f,
        "    \"%s\": {\"qps\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
        "\"p999_us\": %llu, \"max_us\": %llu, \"requests\": %llu, "
        "\"ok\": %llu, \"timeouts\": %llu, \"shed\": %llu, "
        "\"shed_ratio\": %.4f, \"errors\": %llu}%s\n",
        name.c_str(), r.qps, static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p99_us),
        static_cast<unsigned long long>(r.p999_us),
        static_cast<unsigned long long>(r.max_us),
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.shed), r.shed_ratio,
        static_cast<unsigned long long>(r.errors),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Schema gate for CI: the file must name every matrix cell and give each
// one numeric qps/p50_us/p99_us/p999_us. Returns the process exit code.
int CheckServingJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "check: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  int failures = 0;
  auto complain = [&](const std::string& what) {
    std::fprintf(stderr, "check: %s: %s\n", path.c_str(), what.c_str());
    ++failures;
  };
  if (text.find("\"bench\": \"serving\"") == std::string::npos) {
    complain("missing \"bench\": \"serving\"");
  }
  for (const CellSpec& cell : MatrixCells()) {
    std::size_t at = text.find("\"" + cell.name + "\"");
    if (at == std::string::npos) {
      complain("missing cell " + cell.name);
      continue;
    }
    std::size_t end = text.find('}', at);
    std::string object = text.substr(at, end == std::string::npos
                                             ? std::string::npos
                                             : end - at);
    for (const char* key : {"qps", "p50_us", "p99_us", "p999_us",
                            "shed_ratio"}) {
      std::size_t kpos = object.find("\"" + std::string(key) + "\":");
      if (kpos == std::string::npos) {
        complain("cell " + cell.name + " missing " + key);
        continue;
      }
      std::size_t vpos = object.find_first_not_of(" ", kpos + strlen(key) + 3);
      if (vpos == std::string::npos ||
          !(object[vpos] >= '0' && object[vpos] <= '9')) {
        complain("cell " + cell.name + " has non-numeric " + key);
      }
    }
  }
  if (failures == 0) {
    std::printf("check: %s OK (%zu cells)\n", path.c_str(),
                MatrixCells().size());
  }
  return failures == 0 ? 0 : 1;
}

// ---- Cluster bench (--cluster): recall/latency vs replica failures ----

struct ClusterCellSpec {
  int replicas;
  int failures;  // replicas killed by the chaos plan
  std::string name;
};

std::vector<ClusterCellSpec> ClusterCells() {
  std::vector<ClusterCellSpec> cells;
  for (int r : {1, 2}) {
    for (int f : {0, 1, 2}) {
      cells.push_back(
          {r, f, "r" + std::to_string(r) + "/f" + std::to_string(f)});
    }
  }
  return cells;
}

struct ClusterCellResult {
  double recall_at_k = 0;  // mean |answer ∩ reference top-k| / |reference|
  std::uint64_t p50_us = 0, p99_us = 0, max_us = 0;
  std::uint64_t requests = 0, ok = 0, degraded = 0, unavailable = 0;
  int dead_shards = 0;  // shards with no live replica under the plan
};

ClusterCellResult RunClusterCell(const dash::core::DashEngine& engine,
                                 const TargetPool& targets, int replicas,
                                 int failures, const Flags& flags) {
  dash::testing::ClusterOptions options;
  options.shards = 4;
  options.replicas = replicas;
  options.default_k = flags.k;
  options.default_s = flags.s;
  options.chaos.dead_replicas = failures;
  options.chaos_seed = flags.seed;
  dash::testing::TestCluster cluster(engine.snapshot(), options);

  ClusterCellResult r;
  r.dead_shards = cluster.plan().DeadShardCount();
  dash::util::SplitMix64 rng(flags.seed);
  std::vector<std::uint64_t> samples;
  double recall_sum = 0;
  std::uint64_t scored = 0;
  const int total = flags.users * flags.requests;
  for (int i = 0; i < total; ++i) {
    const std::vector<std::string> keywords = {targets.PickKeyword(rng)};
    const std::string target =
        "/search?q=" + dash::util::UrlEncode(keywords[0]) +
        "&k=" + std::to_string(flags.k) + "&s=" + std::to_string(flags.s);
    Clock::time_point sent = Clock::now();
    dash::webapp::HttpResponse response =
        cluster.service().Handle(dash::webapp::ParseUrl(target), sent);
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              sent)
            .count()));
    ++r.requests;
    if (response.status != 200 && response.status != 504) {
      ++r.unavailable;
      continue;
    }
    ++r.ok;
    if (response.headers.contains("X-Dash-Degraded")) ++r.degraded;
    // Recall@k: which of the single-process reference's top-k URLs the
    // (possibly degraded) cluster answer still surfaced.
    std::vector<dash::core::SearchResult> truth =
        cluster.reference().Search(keywords, flags.k, flags.s);
    ++scored;
    if (truth.empty()) {
      recall_sum += 1.0;
      continue;
    }
    std::optional<std::vector<dash::core::SearchResult>> got =
        dash::core::SearchService::ParseRenderedResults(response.body);
    if (!got.has_value()) continue;  // malformed body counts as recall 0
    std::size_t hits = 0;
    for (const auto& t : truth) {
      for (const auto& g : *got) {
        if (g.url == t.url) {
          ++hits;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(truth.size());
  }
  r.recall_at_k = scored > 0 ? recall_sum / static_cast<double>(scored) : 0;
  std::sort(samples.begin(), samples.end());
  r.p50_us = ExactPercentile(samples, 0.50);
  r.p99_us = ExactPercentile(samples, 0.99);
  r.max_us = samples.empty() ? 0 : samples.back();
  return r;
}

void WriteClusterJson(
    const Flags& flags,
    const std::vector<std::pair<std::string, ClusterCellResult>>& results) {
  const char* dir = std::getenv("DASH_BENCH_JSON_DIR");
  std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_cluster.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"cluster\",\n  \"unit\": \"us\",\n"
               "  \"config\": {\"shards\": 4, \"requests\": %d, "
               "\"query\": %d, \"scale\": \"%s\", \"seed\": %llu, "
               "\"k\": %d, \"s\": %llu},\n  \"cells\": {\n",
               flags.users * flags.requests, flags.query,
               std::string(dash::tpch::ScaleName(flags.scale)).c_str(),
               static_cast<unsigned long long>(flags.seed), flags.k,
               static_cast<unsigned long long>(flags.s));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [name, r] = results[i];
    std::fprintf(
        f,
        "    \"%s\": {\"recall_at_10\": %.4f, \"p50_us\": %llu, "
        "\"p99_us\": %llu, \"max_us\": %llu, \"requests\": %llu, "
        "\"ok\": %llu, \"degraded\": %llu, \"unavailable\": %llu, "
        "\"dead_shards\": %d}%s\n",
        name.c_str(), r.recall_at_k,
        static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p99_us),
        static_cast<unsigned long long>(r.max_us),
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.degraded),
        static_cast<unsigned long long>(r.unavailable), r.dead_shards,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Schema gate for CI: every replicas x failures cell present, each with
// numeric recall_at_10 / p50_us / p99_us. Returns the process exit code.
int CheckClusterJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "check: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  int failures = 0;
  auto complain = [&](const std::string& what) {
    std::fprintf(stderr, "check: %s: %s\n", path.c_str(), what.c_str());
    ++failures;
  };
  if (text.find("\"bench\": \"cluster\"") == std::string::npos) {
    complain("missing \"bench\": \"cluster\"");
  }
  for (const ClusterCellSpec& cell : ClusterCells()) {
    std::size_t at = text.find("\"" + cell.name + "\"");
    if (at == std::string::npos) {
      complain("missing cell " + cell.name);
      continue;
    }
    std::size_t end = text.find('}', at);
    std::string object = text.substr(
        at, end == std::string::npos ? std::string::npos : end - at);
    for (const char* key : {"recall_at_10", "p50_us", "p99_us"}) {
      std::size_t kpos = object.find("\"" + std::string(key) + "\":");
      if (kpos == std::string::npos) {
        complain("cell " + cell.name + " missing " + key);
        continue;
      }
      std::size_t vpos =
          object.find_first_not_of(" ", kpos + strlen(key) + 3);
      if (vpos == std::string::npos ||
          !(object[vpos] >= '0' && object[vpos] <= '9')) {
        complain("cell " + cell.name + " has non-numeric " + key);
      }
    }
  }
  if (failures == 0) {
    std::printf("check: %s OK (%zu cells)\n", path.c_str(),
                ClusterCells().size());
  }
  return failures == 0 ? 0 : 1;
}

dash::tpch::Scale ParseScale(const std::string& name) {
  if (name == "tiny") return dash::tpch::Scale::kTiny;
  if (name == "small") return dash::tpch::Scale::kSmall;
  if (name == "medium") return dash::tpch::Scale::kMedium;
  if (name == "large") return dash::tpch::Scale::kLarge;
  std::fprintf(stderr, "unknown --scale '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--cluster") {
      flags.cluster = true;
    } else if (arg == "--check") {
      flags.check = next();
    } else if (arg == "--users") {
      flags.users = std::atoi(next());
    } else if (arg == "--requests") {
      flags.requests = std::atoi(next());
    } else if (arg == "--rate") {
      flags.rate = std::atof(next());
    } else if (arg == "--port") {
      flags.external_port = std::atoi(next());
    } else if (arg == "--query") {
      flags.query = std::atoi(next());
    } else if (arg == "--scale") {
      flags.scale = ParseScale(next());
    } else if (arg == "--seed") {
      flags.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--k") {
      flags.k = std::atoi(next());
    } else if (arg == "--s") {
      flags.s = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--deadline-ms") {
      flags.deadline_ms = std::atoi(next());
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--smoke] [--cluster] [--check FILE] [--users N]\n"
          "          [--requests N] [--rate R] [--port N] [--query 1|2|3]\n"
          "          [--scale S] [--seed N] [--k N] [--s N]\n"
          "          [--deadline-ms N]\n",
          argv[0]);
      return 2;
    }
  }
  if (!flags.check.empty()) {
    return flags.cluster ? CheckClusterJson(flags.check)
                         : CheckServingJson(flags.check);
  }
  if (flags.smoke) {
    // CI budget: all 6 cells in roughly a second total.
    flags.users = 2;
    flags.requests = 6;
    flags.scale = dash::tpch::Scale::kTiny;
  }
  if (flags.users < 1 || flags.requests < 1) {
    std::fprintf(stderr, "--users and --requests must be >= 1\n");
    return 2;
  }

  const dash::core::DashEngine& engine =
      dash::bench::Engine(flags.query, flags.scale);
  TargetPool targets(engine, flags);

  if (flags.cluster) {
    std::vector<std::pair<std::string, ClusterCellResult>> cluster_results;
    for (const ClusterCellSpec& cell : ClusterCells()) {
      ClusterCellResult r = RunClusterCell(engine, targets, cell.replicas,
                                           cell.failures, flags);
      std::printf("%-8s recall@%d=%.4f p50=%6lluus p99=%6lluus "
                  "(n=%llu degraded=%llu unavailable=%llu dead_shards=%d)\n",
                  cell.name.c_str(), flags.k, r.recall_at_k,
                  static_cast<unsigned long long>(r.p50_us),
                  static_cast<unsigned long long>(r.p99_us),
                  static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.degraded),
                  static_cast<unsigned long long>(r.unavailable),
                  r.dead_shards);
      std::fflush(stdout);
      cluster_results.emplace_back(cell.name, r);
    }
    WriteClusterJson(flags, cluster_results);
    return 0;
  }

  std::vector<std::pair<std::string, CellResult>> results;
  if (flags.external_port > 0) {
    CellResult r = RunCell(flags.external_port, targets, flags);
    std::printf("external: qps=%.1f p50=%lluus p99=%lluus p999=%lluus "
                "(ok=%llu shed=%llu errors=%llu)\n",
                r.qps, static_cast<unsigned long long>(r.p50_us),
                static_cast<unsigned long long>(r.p99_us),
                static_cast<unsigned long long>(r.p999_us),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.errors));
    results.emplace_back("external", r);
    WriteServingJson(flags, results);
    return 0;
  }

  for (const CellSpec& cell : MatrixCells()) {
    dash::core::ServeOptions options;
    options.num_workers = cell.threads;
    options.queue_capacity = 128;
    options.cache_capacity = cell.cache ? 256 : 0;
    options.default_k = flags.k;
    options.default_s = flags.s;
    options.deadline_ms = flags.deadline_ms;
    dash::core::SearchServer server(engine.snapshot(), options);
    server.Start();
    // Warm up outside the measurement: first contact faults in the
    // listener path.
    for (int w = 0; w < 2; ++w) {
      dash::util::SplitMix64 rng(flags.seed + 17 * (w + 1));
      dash::webapp::FetchOverLoopback(server.port(), targets.Pick(rng));
    }
    CellResult r = RunCell(server.port(), targets, flags);
    server.Stop();
    std::printf("%-12s qps=%8.1f p50=%6lluus p99=%6lluus p999=%6lluus "
                "(n=%llu shed=%llu err=%llu)\n",
                cell.name.c_str(), r.qps,
                static_cast<unsigned long long>(r.p50_us),
                static_cast<unsigned long long>(r.p99_us),
                static_cast<unsigned long long>(r.p999_us),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.errors));
    std::fflush(stdout);
    results.emplace_back(cell.name, r);
  }
  WriteServingJson(flags, results);
  return 0;
}
