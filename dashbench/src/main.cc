// dashbench: one benchmark for the Dash serving stack, end to end and
// layer by layer. See README.md for the workloads and metrics.
//
//   dashbench --workload light|heavy|writes|routed --seed N --seconds S
//             --trace 0|1 --rates light=R,heavy=R,writes=R,routed=R,updates=R
//             [--out DIR] [--commit ID] [--source-digest HEX]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// warms it up, serves it over loopback HTTP for S seconds in rounds of
// open loop then closed loop (each end-to-end figure is the median over
// the rounds the hypervisor left alone), checks every answer and prints
// the end-to-end metrics.
// --trace 1 runs the same phases twice on one seed, first on the shipped
// stack and then on the recording copy (stack.h), and prints the
// per-layer metrics. The last line of standard output is always one JSON
// object {"correct", "attempted", "failed", "metrics"}; the full record
// (environment, seed, every metric) also goes to DIR. Exit status 1 means
// a wrong or failed answer, 2 a usage error.
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "load.h"
#include "measure.h"
#include "stack.h"
#include "util/tokenizer.h"

namespace dashbench {
namespace {

using dash::core::SnapshotPtr;

// Update latency percentiles are medians over equal windows of the run,
// each with at least this many updates, and at most ten windows: a burst
// of outside load then spoils one window, not the figure.
constexpr std::size_t kMinWindowUpdates = 20;
constexpr std::size_t kMaxWindows = 10;
// A round in which the hypervisor took more than this share of the
// machine's CPU time (steal) is set aside. On the reference machine most
// quiet rounds showed under 0.3%; throttled ones 1-30%, and already at 1%
// the round's latency rose by a fifth (at 10-30%, 2-15x).
constexpr double kMaxRoundSteal = 0.005;
// Replays of the traced run: about this many sampled requests.
constexpr double kReplayTarget = 2000;
// Distinct snapshot generations the traced writes run may keep for replay.
constexpr std::size_t kMaxPinnedSnapshots = 48;
// A term this common (share of the catalog) makes a query "hot".
constexpr double kHotDfShare = 0.10;

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::map<std::string, double> rates;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "light") {
    spec.query = 1;
    spec.scale = dash::tpch::Scale::kSmall;
    spec.setup_reps = 9;  // a set-up takes tens of milliseconds
  } else if (name == "heavy" || name == "routed") {
    spec.query = 2;
    spec.scale = dash::tpch::Scale::kMedium;
    spec.mixed = true;
    spec.routed = name == "routed";
  } else if (name == "writes") {
    spec.query = 3;
    spec.scale = dash::tpch::Scale::kSmall;
    spec.mixed = true;
    spec.writes = true;
    spec.readers = 3;
    spec.setup_reps = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

double Rate(const Flags& flags, const std::string& key) {
  auto it = flags.rates.find(key);
  if (it == flags.rates.end() || !(it->second > 0)) {
    throw std::invalid_argument("--rates names no positive rate for '" + key + "'");
  }
  return it->second;
}

// ---- Output ----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using Metrics = std::vector<Metric>;

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";  // a percentile reached a failure
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return json + "}";
}

void PrintTable(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string ReadLineWith(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

// The environment block every result carries.
std::string EnvironmentJson(const Flags& flags) {
  std::string cpu = ReadLineWith("/proc/cpuinfo", "model name");
  if (auto colon = cpu.find(':'); colon != std::string::npos) cpu = cpu.substr(colon + 2);
  utsname uts{};
  uname(&uts);
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  return std::string("{\"nproc\": ") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + Quote(cpu.empty() ? "unknown" : cpu) +
         ", \"kernel\": " + Quote(std::string(uts.sysname) + " " + uts.release) +
         ", \"compiler\": " + Quote(DASHBENCH_COMPILER) +
         ", \"build_type\": " + Quote(DASHBENCH_BUILD_TYPE) +
         ", \"assertions\": " + (assertions ? "true" : "false") +
         ", \"commit\": " + Quote(flags.commit) +
         ", \"source_digest\": " + Quote(flags.source_digest) + "}";
}

double PeakRssMb() {
  std::string line = ReadLineWith("/proc/self/status", "VmHWM:");
  long long kb = 0;
  if (std::sscanf(line.c_str(), "VmHWM: %lld", &kb) != 1) return 0;
  return static_cast<double>(kb) / 1024.0;
}

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// ---- Statistics of one run -------------------------------------------

// The median over equal windows of [0, span) seconds of each window's
// q-percentile. `timed` holds (due instant in seconds, value) pairs.
double WindowedPercentile(const std::vector<std::pair<double, double>>& timed, double span,
                          std::size_t min_per_window, double q) {
  const std::size_t windows =
      std::clamp<std::size_t>(timed.size() / min_per_window, 1, kMaxWindows);
  std::vector<std::vector<double>> per_window(windows);
  for (const auto& [at, value] : timed) {
    const auto w = static_cast<std::size_t>(std::max(at, 0.0) / span *
                                            static_cast<double>(windows));
    per_window[std::min(w, windows - 1)].push_back(value);
  }
  std::vector<double> values;
  for (std::vector<double>& v : per_window) values.push_back(Percentile(std::move(v), q));
  return Median(values);
}

// Each round's open-loop /search latencies, failures infinitely late.
std::vector<std::vector<double>> RoundLatencies(const LoadResult& load) {
  std::vector<std::vector<double>> per_round(load.rounds.size());
  for (const OpenSample& s : load.open) per_round[s.round].push_back(s.latency_ms);
  return per_round;
}

// A round's correct closed-loop answers per second.
double RoundQps(const Round& round) {
  return static_cast<double>(round.closed_ok) /
         std::chrono::duration<double>(round.closed_end - round.closed_start).count();
}

// The rounds the end-to-end figures are medians over (see KeptRounds):
// a round in which the hypervisor held the machine's CPUs measures the
// host, not the program.
std::vector<std::size_t> Kept(const LoadResult& load) {
  std::vector<double> steal;
  for (const Round& round : load.rounds) steal.push_back(round.steal_share);
  return KeptRounds(steal, kMaxRoundSteal);
}

// Open-loop /search latency percentile: the median over kept rounds of
// each round's percentile.
double OpenLoopPercentile(const LoadResult& load, double q) {
  std::vector<std::vector<double>> per_round = RoundLatencies(load);
  std::vector<double> values;
  for (std::size_t r : Kept(load)) values.push_back(Percentile(std::move(per_round[r]), q));
  return Median(values);
}

// Correct closed-loop answers per second: the median over kept rounds.
double ClosedLoopQps(const LoadResult& load) {
  std::vector<double> qps;
  for (std::size_t r : Kept(load)) qps.push_back(RoundQps(load.rounds[r]));
  return Median(qps);
}

// Each round's figures; '*' marks the kept rounds.
void PrintRounds(const LoadResult& load) {
  const std::vector<std::vector<double>> per_round = RoundLatencies(load);
  const std::vector<std::size_t> kept = Kept(load);
  std::printf("rounds (p50 ms / p90 ms / qps / steal):");
  for (std::size_t r = 0; r < load.rounds.size(); ++r) {
    std::printf(" %s%.4g/%.4g/%.0f/%.3f",
                std::binary_search(kept.begin(), kept.end(), r) ? "*" : "",
                Percentile(per_round[r], 0.5), Percentile(per_round[r], 0.9),
                RoundQps(load.rounds[r]), load.rounds[r].steal_share);
  }
  std::printf("\n");
}

// ---- Answer checks ---------------------------------------------------

// The expected rendering of a query's answer.
using Oracle = std::function<std::string(const Query&)>;

// Runs `body(i)` for i in [0, n) on up to four threads (the servers are
// stopped by the time answers are checked, so the cores are free).
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body) {
  const std::size_t threads = std::min<std::size_t>(4, std::max<std::size_t>(n, 1));
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < n; i += threads) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Compares every tallied 200 answer (kept as its body hash) with the
// oracle's rendering of its query. Returns the number of wrong answers.
std::uint64_t CountWrongAnswers(const std::vector<QueryTally>& tallies, const Oracle& oracle) {
  std::vector<std::uint64_t> wrong(tallies.size(), 0);
  ParallelFor(tallies.size(), [&](std::size_t i) {
    if (tallies[i].bodies.empty()) return;
    const std::string expected = oracle(tallies[i].query);
    for (const auto& [hash, count] : tallies[i].bodies) {
      if (!AnswerMatches(hash, expected)) wrong[i] += count;
    }
  });
  std::uint64_t total = 0;
  for (std::uint64_t w : wrong) total += w;
  return total;
}

Oracle SnapshotOracle(SnapshotPtr snapshot) {
  return [snapshot](const Query& q) {
    return dash::core::SearchService::RenderResults(snapshot->Search(q.keywords, q.k, q.s));
  };
}

// ---- One served run --------------------------------------------------

// Everything one deployment's timed phases produced, after the checks.
struct Served {
  LoadResult load;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0;
  // writes: the from-scratch build the final state is checked against.
  std::unique_ptr<dash::core::DashEngine> rebuilt;
  double rebuild_s = 0;
  std::uint64_t fragments_recomputed = 0;
  std::uint64_t compactions = 0;
};

// What one set-up reports: its time and its first answer. Trivially
// copyable: a set-up run in a child process sends it through a pipe.
struct SetupReport {
  double total_s = 0;
  int status = 0;  // the first answer's HTTP status; 0 = none
  std::uint64_t body_hash = 0;
  bool checked_ok = true;  // writes: the first answer, checked at once
};

Query ProbeQuery(const FirstAnswer& first) {
  Query query;
  query.keywords = first.keywords;
  query.k = first.k;
  query.s = first.s;
  return query;
}

SetupReport ReportOf(const WorkloadSpec& spec, const Deployment& deployment) {
  SetupReport report;
  report.total_s = deployment.times().total_s;
  report.status = deployment.first_answer().status;
  report.body_hash = deployment.first_answer().body_hash;
  if (spec.writes && report.status == 200) {
    // Before any update lands, the index is the one the first answer saw.
    report.checked_ok = AnswerMatches(
        report.body_hash,
        SnapshotOracle(deployment.snapshot())(ProbeQuery(deployment.first_answer())));
  }
  return report;
}

// Queues a set-up's first answer for the answer check, or counts it as
// failed. Read-only workloads check it with the run's other answers
// (every set-up of one seed builds the identical index).
void AddProbe(const WorkloadSpec& spec, const SetupReport& report, const Query& query,
              std::vector<QueryTally>* probes, std::uint64_t* failed) {
  QueryTally probe{query, {}};
  if (report.status != 200 || !report.checked_ok) {
    ++*failed;
  } else if (!spec.writes) {
    probe.bodies.emplace_back(report.body_hash, 1);
  }
  probes->push_back(std::move(probe));
}

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, const Flags& flags,
                                  Tracer* tracer, std::vector<QueryTally>* probes,
                                  std::uint64_t* failed) {
  auto deployment = std::make_unique<Deployment>(spec, flags.seed, tracer, Clock::now());
  AddProbe(spec, ReportOf(spec, *deployment), ProbeQuery(deployment->first_answer()), probes,
           failed);
  return deployment;
}

// Runs one set-up in a child process. The benchmark forks before it has
// started any thread, so the child is a plain copy of it; and the serving
// process's heap only ever holds its own set-up, which keeps peak_rss_mb
// the footprint of one set-up plus serving. A child that dies reports a
// failed set-up.
SetupReport SetUpInChild(const WorkloadSpec& spec, const Flags& flags) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    SetupReport report;
    try {
      Deployment deployment(spec, flags.seed, nullptr, Clock::now());
      report = ReportOf(spec, deployment);
    } catch (...) {
      report = SetupReport{};
    }
    const bool sent = write(fds[1], &report, sizeof report) == sizeof report;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  SetupReport report;
  std::size_t got = 0;
  while (got < sizeof report) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&report) + got, sizeof report - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof report) report = SetupReport{};
  return report;
}

Served Serve(const WorkloadSpec& spec, const Flags& flags, Deployment& deployment,
             const std::vector<QueryTally>& probes, bool traced) {
  Served served;
  const QueryMix mix(deployment.keywords(), spec.mixed);
  LoadOptions options;
  options.seconds = flags.seconds;
  options.search_rate = Rate(flags, spec.name);
  options.update_rate = spec.writes ? Rate(flags, "updates") : 0;
  options.seed = flags.seed;
  options.traced = traced;
  const std::size_t recomputed_before =
      spec.writes ? deployment.updatable()->fragments_recomputed() : 0;
  const std::size_t compactions_before =
      spec.writes ? deployment.updatable()->compactions() : 0;
  served.load = RunLoad(spec, deployment, mix, options);
  served.peak_rss_mb = PeakRssMb();
  deployment.Stop();
  const LoadResult& load = served.load;

  served.attempted = load.searches + load.updates.size() + probes.size();
  served.failed = load.failed_searches + load.generation_regressions;
  for (const UpdateOutcome& u : load.updates) served.failed += u.ok ? 0 : 1;

  if (spec.routed) {
    // The router's answers must equal the in-process sharded engine's.
    auto sharded =
        std::make_shared<const dash::core::ShardedEngine>(deployment.snapshot(), kShards);
    const Oracle oracle = [sharded](const Query& q) {
      return dash::core::SearchService::RenderResults(sharded->Search(q.keywords, q.k, q.s));
    };
    served.failed += CountWrongAnswers(load.queries, oracle) + CountWrongAnswers(probes, oracle);
  } else if (!spec.writes) {
    const Oracle oracle = SnapshotOracle(deployment.snapshot());
    served.failed += CountWrongAnswers(load.queries, oracle) + CountWrongAnswers(probes, oracle);
  } else {
    // The final snapshot must answer every query issued exactly as a
    // from-scratch build of the final database does.
    const Clock::time_point t = Clock::now();
    served.rebuilt = std::make_unique<dash::core::DashEngine>(
        dash::core::DashEngine::Build(deployment.updatable()->database(), deployment.app()));
    served.rebuild_s = std::chrono::duration<double>(Clock::now() - t).count();
    const Oracle final_state = SnapshotOracle(deployment.snapshot());
    const Oracle rebuilt = SnapshotOracle(served.rebuilt->snapshot());
    std::vector<std::uint64_t> wrong(load.queries.size(), 0);
    ParallelFor(load.queries.size(), [&](std::size_t i) {
      wrong[i] = final_state(load.queries[i].query) == rebuilt(load.queries[i].query) ? 0 : 1;
    });
    for (std::uint64_t w : wrong) served.failed += w;
    served.fragments_recomputed =
        deployment.updatable()->fragments_recomputed() - recomputed_before;
    served.compactions = deployment.updatable()->compactions() - compactions_before;
  }
  served.failed = std::min(served.failed, served.attempted);
  return served;
}

// ---- End-to-end run (--trace 0) ----------------------------------------

struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Result RunEndToEnd(const WorkloadSpec& spec, const Flags& flags, Metrics* detail) {
  Result result;
  // Every set-up but the last runs in a child process (from that process's
  // start to its first answer); the last one serves the timed phases.
  std::vector<SetupReport> reports;
  for (int rep = 1; rep < spec.setup_reps; ++rep) reports.push_back(SetUpInChild(spec, flags));
  auto deployment = std::make_unique<Deployment>(spec, flags.seed, nullptr, Clock::now());
  reports.push_back(ReportOf(spec, *deployment));
  std::vector<QueryTally> probes;
  std::vector<double> setup_s;
  for (const SetupReport& report : reports) {
    AddProbe(spec, report, ProbeQuery(deployment->first_answer()), &probes, &result.failed);
    setup_s.push_back(report.total_s);
  }
  Served served = Serve(spec, flags, *deployment, probes, /*traced=*/false);
  result.attempted = served.attempted;
  result.failed += served.failed;

  result.metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"search_p50_ms", "ms", OpenLoopPercentile(served.load, 0.50)},
      {"search_p90_ms", "ms", OpenLoopPercentile(served.load, 0.90)},
      {"search_qps", "1/s", ClosedLoopQps(served.load)},
      {"peak_rss_mb", "MB", served.peak_rss_mb},
  };
  double steal = 0;
  for (const Round& round : served.load.rounds) steal += round.steal_share;
  *detail = {
      {"rounds", "count", static_cast<double>(served.load.rounds.size())},
      {"rounds.kept", "count", static_cast<double>(Kept(served.load).size())},
      {"cpu.steal_share.mean", "ratio",
       steal / static_cast<double>(std::max<std::size_t>(served.load.rounds.size(), 1))},
  };
  if (spec.writes) {
    // Update latency exists on writes only, so it is not in the result
    // line (whose metrics every workload reports).
    std::vector<std::pair<double, double>> timed;
    for (const UpdateOutcome& u : served.load.updates) {
      timed.emplace_back(u.due_s, u.ok ? u.latency_ms : kFailed);
    }
    detail->insert(detail->end(), {
        {"update_p50_ms", "ms", WindowedPercentile(timed, flags.seconds, kMinWindowUpdates, 0.50)},
        {"update_p90_ms", "ms", WindowedPercentile(timed, flags.seconds, kMinWindowUpdates, 0.90)},
        {"updates", "count", static_cast<double>(timed.size())},
    });
  }
  std::printf("%s: %" PRIu64 " searches (%zu open-loop), %zu updates, %zu distinct "
              "queries; %" PRIu64 " failed of %" PRIu64 "\n",
              spec.name.c_str(), served.load.searches, served.load.open.size(),
              served.load.updates.size(), served.load.queries.size(), result.failed,
              result.attempted);
  PrintRounds(served.load);
  return result;
}

// ---- Traced run (--trace 1) --------------------------------------------

struct Span {
  const char* name = "";
  Clock::time_point start, end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root
  std::uint64_t request = 0;  // client request id (rid), update number, ...
};

class SpanLog {
 public:
  std::uint64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t request) {
    spans_.push_back({name, start, end, spans_.size() + 1, parent, request});
    return spans_.back().id;
  }
  std::size_t size() const { return spans_.size(); }

  void Write(const std::string& path, Clock::time_point base) const {
    std::ofstream out(path);
    auto ns = [base](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - base).count();
    };
    for (const Span& s : spans_) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"request\": "
          << s.request << ", \"name\": \"" << s.name << "\", \"start_ns\": " << ns(s.start)
          << ", \"end_ns\": " << ns(s.end) << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

Interval ToInterval(Clock::time_point start, Clock::time_point end, Clock::time_point base) {
  auto ns = [base](Clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - base).count());
  };
  return {ns(start), ns(end)};
}

// Finds, among `candidates` sorted by entry, the record whose
// [entry, exit] encloses [start, end].
const HandleRecord* Enclosing(const std::vector<const HandleRecord*>& candidates,
                              Clock::time_point start, Clock::time_point end) {
  auto it = std::upper_bound(
      candidates.begin(), candidates.end(), start,
      [](Clock::time_point t, const HandleRecord* r) { return t < r->entry; });
  while (it != candidates.begin()) {
    --it;
    if ((*it)->exit >= end) return *it;
  }
  return nullptr;
}

struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  double P(double q) const { return Percentile(v, q); }
  double Mean() const { return dashbench::Mean(v); }
};

Result RunTraced(const WorkloadSpec& spec, const Flags& flags, Metrics* detail) {
  Result result;

  // Pass 1: the shipped stack, untraced — the baseline of the overhead ratio.
  double untraced_p50_ms = 0;
  {
    std::vector<QueryTally> probes;
    std::unique_ptr<Deployment> deployment =
        SetUp(spec, flags, nullptr, &probes, &result.failed);
    Served served = Serve(spec, flags, *deployment, probes, /*traced=*/false);
    result.attempted += served.attempted;
    result.failed += served.failed;
    untraced_p50_ms = OpenLoopPercentile(served.load, 0.50);
  }

  // Pass 2: the recording copy of the stack, same seed, same phases.
  const double expected_requests = 2 * Rate(flags, spec.name) * flags.seconds;
  const auto stride = static_cast<std::uint64_t>(
      std::max(1.0, std::round(expected_requests / kReplayTarget)));
  Tracer tracer(stride, kMaxPinnedSnapshots);
  std::vector<QueryTally> probes;
  std::unique_ptr<Deployment> deployment =
      SetUp(spec, flags, &tracer, &probes, &result.failed);
  const SetupTimes setup = deployment->times();
  tracer.TakeHandles();  // set-up traffic is not part of the timed phases
  tracer.TakeLegs();
  const dash::core::ServeCounters counters_before = deployment->search_counters();
  const dash::webapp::HttpServer::Stats front_before = deployment->front_stats();
  const std::uint64_t shard_conn_before = deployment->shard_connections();
  const std::uint64_t leg_failures_before = deployment->leg_failures();
  const std::size_t catalog_size = deployment->catalog_size();
  const SnapshotPtr served_snapshot = deployment->snapshot();  // fixed unless writes

  Served served = Serve(spec, flags, *deployment, probes, /*traced=*/true);
  result.attempted += served.attempted;
  result.failed += served.failed;
  const LoadResult& load = served.load;
  const dash::core::ServeCounters counters = deployment->search_counters();
  const dash::webapp::HttpServer::Stats front = deployment->front_stats();
  const std::uint64_t shard_connections = deployment->shard_connections() - shard_conn_before;
  const std::uint64_t leg_failures = deployment->leg_failures() - leg_failures_before;
  std::vector<HandleRecord> handles = tracer.TakeHandles();
  std::vector<LegRecord> legs = tracer.TakeLegs();

  const Clock::time_point base = load.start;
  SpanLog log;
  // Stage latencies are sampled in the open-loop phases, where the
  // end-to-end percentiles come from. Spans are written for every
  // open-loop request and for the sampled closed-loop ones.
  auto in_open_loop = [&load](Clock::time_point t) { return InOpenLoop(load, t); };

  // Requests: client round trip = connect + queue + handle + reply.
  std::unordered_map<std::uint64_t, const HandleRecord*> by_rid;
  for (const HandleRecord& h : handles) {
    if (h.rid != 0 && h.role != Role::kShard) by_rid[h.rid] = &h;
  }
  Samples connect_us, queue_us, reply_us, residual_us, front_handle_us, bytes;
  std::unordered_map<const HandleRecord*, std::uint64_t> span_of;  // handle -> span id
  const char* handle_name = spec.routed ? "search_router.handle" : "search_server.handle";
  for (const TracedRequest& r : load.traced) {
    if (r.status == 200) bytes.Add(static_cast<double>(r.body_bytes));
    auto it = by_rid.find(r.rid);
    if (it == by_rid.end() || (!r.open_loop && r.rid % stride != 0)) continue;
    const HandleRecord& h = *it->second;
    const Exchange& ex = r.exchange;
    const std::uint64_t root = log.Add("client.request", ex.start, ex.done, 0, r.rid);
    const Clock::time_point queued = std::max(h.admitted, ex.connect);
    if (ex.opened) log.Add("webapp.connect", ex.connect, h.admitted, root, r.rid);
    log.Add("webapp.queue", queued, h.entry, root, r.rid);
    span_of[&h] = log.Add(handle_name, h.entry, h.exit, root, r.rid);
    log.Add("webapp.reply", h.exit, ex.done, root, r.rid);
    if (!r.open_loop) continue;
    std::vector<Interval> parts;
    if (ex.opened) {
      connect_us.Add(Us(h.admitted - ex.connect));
      parts.push_back(ToInterval(ex.connect, h.admitted, base));
    }
    queue_us.Add(Us(h.entry - queued));
    front_handle_us.Add(Us(h.exit - h.entry));
    reply_us.Add(Us(ex.done - h.exit));
    parts.push_back(ToInterval(queued, h.entry, base));
    parts.push_back(ToInterval(h.entry, h.exit, base));
    parts.push_back(ToInterval(h.exit, ex.done, base));
    residual_us.Add(SelfTime(ToInterval(ex.start, ex.done, base), parts) / 1000.0);
  }

  // Routed: legs under router requests, shard-node handles under legs.
  Samples leg_us, probe_us, slowest_leg_us, router_self_us, shard_search_us, node_handle_us;
  std::uint64_t skipped = 0;
  if (spec.routed) {
    std::unordered_map<std::string, std::vector<const HandleRecord*>> routers;
    std::map<std::pair<int, std::string>, std::vector<const HandleRecord*>> nodes[2];
    for (const HandleRecord& h : handles) {
      if (h.role == Role::kRouter && h.search) routers[h.keywords].push_back(&h);
      if (h.role != Role::kShard) continue;
      nodes[h.search ? 1 : 0][{h.shard, h.keywords}].push_back(&h);
      if (!in_open_loop(h.entry)) continue;
      node_handle_us.Add(Us(h.exit - h.entry));
      if (h.search) shard_search_us.Add(Us(h.exit - h.entry));
    }
    auto by_entry = [](const HandleRecord* a, const HandleRecord* b) {
      return a->entry < b->entry;
    };
    for (auto& [key, list] : routers) std::sort(list.begin(), list.end(), by_entry);
    for (auto& kind : nodes) {
      for (auto& [key, list] : kind) std::sort(list.begin(), list.end(), by_entry);
    }
    std::unordered_map<const HandleRecord*, std::vector<const LegRecord*>> legs_of;
    for (const LegRecord& leg : legs) {
      if (in_open_loop(leg.start)) (leg.probe ? probe_us : leg_us).Add(Us(leg.end - leg.start));
      skipped += leg.skipped;
      auto r = routers.find(leg.keywords);
      const HandleRecord* router =
          r == routers.end() ? nullptr : Enclosing(r->second, leg.start, leg.end);
      if (router != nullptr) legs_of[router].push_back(&leg);
      auto parent = router == nullptr ? span_of.end() : span_of.find(router);
      if (parent == span_of.end() && !in_open_loop(leg.start)) continue;
      const std::uint64_t rid = router == nullptr ? 0 : router->rid;
      const std::uint64_t leg_span =
          log.Add(leg.probe ? "search_router.probe" : "search_router.leg", leg.start, leg.end,
                  parent == span_of.end() ? 0 : parent->second, rid);
      auto& kind = nodes[leg.probe ? 0 : 1];
      auto n = kind.find({leg.shard, leg.keywords});
      const HandleRecord* node =
          n == kind.end() ? nullptr : Enclosing(n->second, leg.start, leg.end);
      if (node != nullptr) {
        log.Add(leg.probe ? "sharded_engine.stats" : "sharded_engine.search", node->entry,
                node->exit, leg_span, rid);
      }
    }
    for (const auto& [router, its_legs] : legs_of) {
      if (!in_open_loop(router->entry)) continue;
      std::vector<Interval> children;
      std::map<int, double> per_shard_us;  // probe + search of one shard
      for (const LegRecord* leg : its_legs) {
        children.push_back(ToInterval(leg->start, leg->end, base));
        per_shard_us[leg->shard] += Us(leg->end - leg->start);
      }
      double slowest = 0;
      for (const auto& [shard, us] : per_shard_us) slowest = std::max(slowest, us);
      slowest_leg_us.Add(slowest);
      router_self_us.Add(
          SelfTime(ToInterval(router->entry, router->exit, base), children) / 1000.0);
    }
  }

  // Updates.
  Samples apply_us;
  for (std::size_t j = 0; j < load.updates.size(); ++j) {
    const UpdateOutcome& u = load.updates[j];
    log.Add(u.insert ? "index_update.insert" : "index_update.delete", u.start, u.end, 0, j + 1);
    apply_us.Add(Us(u.end - u.start));
  }

  // Replays of the sampled requests, on the snapshot each was served from.
  Samples search_us, render_us, gather_us, merge_us, postings, fragments, segments;
  std::uint64_t hot = 0;
  std::unique_ptr<dash::core::ShardedEngine> sharded;
  if (spec.routed) sharded = std::make_unique<dash::core::ShardedEngine>(served_snapshot, kShards);
  for (const HandleRecord& h : handles) {
    // Segments of the snapshot each SearchService searched.
    if (h.role != Role::kRouter && h.search) segments.Add(static_cast<double>(h.segments));
  }
  for (const TracedRequest& r : load.traced) {
    if (r.status != 200 || r.rid % stride != 0) continue;
    SnapshotPtr snapshot = served_snapshot;
    if (!spec.routed) {
      auto it = by_rid.find(r.rid);
      if (it == by_rid.end() || it->second->snapshot == nullptr) continue;
      snapshot = it->second->snapshot;
    }
    const Query& q = r.query;
    Clock::time_point t0 = Clock::now();
    std::vector<dash::core::SearchResult> results = snapshot->Search(q.keywords, q.k, q.s);
    Clock::time_point t1 = Clock::now();
    log.Add("replay.topk_search", t0, t1, 0, r.rid);
    search_us.Add(Us(t1 - t0));
    double frags = 0;
    for (const auto& result_page : results) frags += static_cast<double>(result_page.fragments.size());
    fragments.Add(frags);
    t0 = Clock::now();
    const std::string body = dash::core::SearchService::RenderResults(results);
    t1 = Clock::now();
    log.Add("replay.render", t0, t1, 0, r.rid);
    render_us.Add(Us(t1 - t0));
    double sum_df = 0;
    bool is_hot = false;
    for (const std::string& keyword : q.keywords) {
      for (const std::string& token : dash::util::Tokenize(keyword)) {
        std::size_t df = 0;
        if (snapshot->segment_count() == 1) {
          df = snapshot->index().Df(token);
        } else {
          t0 = Clock::now();
          df = snapshot->GatherTerm(token).postings.size();
          t1 = Clock::now();
          log.Add("replay.gather", t0, t1, 0, r.rid);
          gather_us.Add(Us(t1 - t0));
        }
        sum_df += static_cast<double>(df);
        is_hot = is_hot ||
                 static_cast<double>(df) >= kHotDfShare * static_cast<double>(catalog_size);
      }
    }
    postings.Add(sum_df);
    hot += is_hot;
    if (sharded != nullptr) {
      std::vector<std::vector<dash::core::SearchResult>> partials;
      for (int shard = 0; shard < kShards; ++shard) {
        partials.push_back(
            sharded->SearchShard(static_cast<std::size_t>(shard), q.keywords, q.k, q.s));
      }
      t0 = Clock::now();
      results = dash::core::SearchRouter::MergePartials(std::move(partials), q.k);
      t1 = Clock::now();
      log.Add("replay.merge", t0, t1, 0, r.rid);
      merge_us.Add(Us(t1 - t0));
    }
  }
  Samples late_ms;
  for (const OpenSample& s : load.open) late_ms.Add(s.late_ms);

  // Set-up: on writes the crawl layers run in the final-state check's
  // from-scratch build; elsewhere in the set-up itself.
  const std::vector<dash::core::CrawlPhase>& phases =
      spec.writes ? served.rebuilt->crawl_phases() : setup.phases;
  auto phase_s = [&phases](const std::string& name) {
    for (const auto& p : phases) {
      if (p.name == name) return p.metrics.TotalWallSec();
    }
    return 0.0;
  };
  double shuffle_bytes = 0;
  for (const auto& p : phases) shuffle_bytes += static_cast<double>(p.metrics.map_output_bytes);

  const double requests = static_cast<double>(load.searches);
  const double updates = static_cast<double>(load.updates.size());
  const double hits = static_cast<double>(counters.cache_hits - counters_before.cache_hits);
  const double lookups =
      hits + static_cast<double>(counters.cache_misses - counters_before.cache_misses);
  const double superseded = static_cast<double>(counters.cache_evicted_superseded -
                                                counters_before.cache_evicted_superseded);
  const double traced_p50_ms = OpenLoopPercentile(load, 0.50);
  const Samples& handle_us = spec.routed ? node_handle_us : front_handle_us;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  result.metrics = {
      {"webapp.connect_us.p50", "us", connect_us.P(0.50)},
      {"webapp.connections_per_request", "count",
       ratio(static_cast<double>(front.accepted - front_before.accepted), requests)},
      {"webapp.queue_us.p50", "us", queue_us.P(0.50)},
      {"webapp.queue_us.p99", "us", queue_us.P(0.99)},
      {"webapp.reply_us.p50", "us", reply_us.P(0.50)},
      {"webapp.shed", "count", static_cast<double>(front.shed - front_before.shed)},
      {"webapp.parse_errors", "count",
       static_cast<double>(front.parse_errors - front_before.parse_errors)},
      {"search_server.handle_us.p50", "us", handle_us.P(0.50)},
      {"search_server.handle_us.p99", "us", handle_us.P(0.99)},
      {"search_server.render_us.p50", "us", render_us.P(0.50)},
      {"search_server.response_bytes.p50", "bytes", bytes.P(0.50)},
      {"result_cache.hit_ratio", "ratio", ratio(hits, lookups)},
      {"result_cache.lookups", "count", lookups},
      {"result_cache.superseded_per_update", "count", ratio(superseded, updates)},
      {"topk_search.search_us.p50", "us", search_us.P(0.50)},
      {"topk_search.search_us.p99", "us", search_us.P(0.99)},
      {"topk_search.postings_per_query", "count", postings.Mean()},
      {"topk_search.result_fragments_per_query", "count", fragments.Mean()},
      {"topk_search.hot_query_share", "ratio",
       ratio(static_cast<double>(hot), static_cast<double>(search_us.v.size()))},
      {"index_snapshot.segments.mean", "count", segments.Mean()},
      {"index_update.fragments_recomputed_per_update", "count",
       ratio(static_cast<double>(served.fragments_recomputed), updates)},
      {"index_update.compactions_per_update", "count",
       ratio(static_cast<double>(served.compactions), updates)},
      {"search_router.connections_per_query", "count",
       spec.routed ? ratio(static_cast<double>(shard_connections), requests) : 0},
      {"search_router.skipped_shard_ratio", "ratio",
       spec.routed ? ratio(static_cast<double>(skipped), requests * kShards) : 0},
      {"search_router.leg_failures", "count", static_cast<double>(leg_failures)},
      {"tpch.generate_s", "s", setup.generate_s},
      {"mr_crawl.join_s", "s", phase_s("INT-Jn")},
      {"mr_crawl.extract_s", "s", phase_s("INT-Ext")},
      {"mr_crawl.consolidate_s", "s", phase_s("INT-Cnsd")},
      {"mr_crawl.shuffle_mb", "MB", shuffle_bytes / 1e6},
      {"dash_engine.build_s", "s", spec.writes ? served.rebuild_s : setup.build_s},
      {"search_server.first_answer_s", "s", setup.first_answer_s},
      {"loadgen.late_ms.p99", "ms", late_ms.P(0.99)},
      {"trace.overhead_ratio", "ratio", ratio(traced_p50_ms, untraced_p50_ms)},
      {"trace.residual_us.p50", "us", residual_us.P(0.50)},
  };

  // Layers only some workloads have.
  *detail = {
      {"search_p50_ms.untraced", "ms", untraced_p50_ms},
      {"search_p50_ms.traced", "ms", traced_p50_ms},
      {"replay.samples", "count", static_cast<double>(search_us.v.size())},
      // The clients' own count; webapp.connections_per_request is the
      // server's accepted count over the same requests.
      {"loadgen.connections_opened", "count", static_cast<double>(load.connections_opened)},
  };
  if (spec.writes) {
    detail->insert(detail->end(), {
        {"index_update.init_s", "s", setup.init_s},
        {"index_update.apply_us.p50", "us", apply_us.P(0.50)},
        {"index_update.apply_us.p99", "us", apply_us.P(0.99)},
        {"index_snapshot.gather_us.p50", "us", gather_us.P(0.50)},
        {"index_snapshot.gather_us.p99", "us", gather_us.P(0.99)},
        {"index_snapshot.gather.samples", "count", static_cast<double>(gather_us.v.size())},
    });
  }
  if (spec.routed) {
    detail->insert(detail->end(), {
        {"search_router.handle_us.p50", "us", front_handle_us.P(0.50)},
        {"search_router.self_us.p50", "us", router_self_us.P(0.50)},
        {"search_router.leg_us.p50", "us", leg_us.P(0.50)},
        {"search_router.leg_us.p99", "us", leg_us.P(0.99)},
        {"search_router.slowest_leg_us.p50", "us", slowest_leg_us.P(0.50)},
        {"search_router.probe_us.p50", "us", probe_us.P(0.50)},
        {"search_router.merge_us.p50", "us", merge_us.P(0.50)},
        {"sharded_engine.search_us.p50", "us", shard_search_us.P(0.50)},
    });
  }

  std::filesystem::create_directories(flags.out_dir);
  const std::string spans_path = flags.out_dir + "/spans-" + spec.name + "-seed" +
                                 std::to_string(flags.seed) + ".jsonl";
  log.Write(spans_path, base);
  std::printf("%s: %zu spans written to %s\n", spec.name.c_str(), log.size(),
              spans_path.c_str());
  return result;
}

// ---- Entry -------------------------------------------------------------

int Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr, "%s: %s\nusage: %s --workload light|heavy|writes|routed --seed N "
                       "--seconds S --trace 0|1 --rates k=v,... [--out DIR] "
                       "[--commit ID] [--source-digest HEX]\n",
               argv0, error.c_str(), argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0], arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      flags.trace = value == "1";
    } else if (arg == "--rates") {
      std::stringstream list(value);
      std::string item;
      while (std::getline(list, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos) return Usage(argv[0], "bad --rates entry " + item);
        flags.rates[item.substr(0, eq)] = std::atof(item.substr(eq + 1).c_str());
      }
    } else if (arg == "--out") {
      flags.out_dir = value;
    } else if (arg == "--commit") {
      flags.commit = value;
    } else if (arg == "--source-digest") {
      flags.source_digest = value;
    } else {
      return Usage(argv[0], "unknown flag " + arg);
    }
  }
  if (!(flags.seconds > 0)) return Usage(argv[0], "--seconds must be positive");
  WorkloadSpec spec;
  try {
    spec = SpecFor(flags.workload);
    Rate(flags, spec.name);
    if (spec.writes) Rate(flags, "updates");
  } catch (const std::invalid_argument& e) {
    return Usage(argv[0], e.what());
  }

  const std::string environment = EnvironmentJson(flags);
  std::printf("dashbench %s seed=%" PRIu64 " seconds=%g trace=%d\nenvironment %s\n",
              spec.name.c_str(), flags.seed, flags.seconds, flags.trace ? 1 : 0,
              environment.c_str());
  std::fflush(stdout);

  Metrics detail;
  const Result result =
      flags.trace ? RunTraced(spec, flags, &detail) : RunEndToEnd(spec, flags, &detail);
  PrintTable(flags.trace ? "per-layer metrics" : "end-to-end metrics", result.metrics);
  if (!detail.empty()) PrintTable("not in the result line", detail);

  const bool correct = result.failed == 0;
  std::filesystem::create_directories(flags.out_dir);
  const std::string record_path = flags.out_dir + "/" + spec.name + "-seed" +
                                  std::to_string(flags.seed) + "-trace" +
                                  (flags.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << "{\"workload\": " << Quote(spec.name)
                             << ", \"seed\": " << flags.seed
                             << ", \"seconds\": " << Number(flags.seconds)
                             << ", \"trace\": " << (flags.trace ? 1 : 0)
                             << ", \"environment\": " << environment
                             << ", \"correct\": " << (correct ? "true" : "false")
                             << ", \"attempted\": " << result.attempted
                             << ", \"failed\": " << result.failed
                             << ", \"metrics\": " << MetricsJson(result.metrics)
                             << ", \"workload_layers\": " << MetricsJson(detail) << "}\n";
  std::printf("record written to %s\n", record_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dashbench

int main(int argc, char** argv) {
  try {
    return dashbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dashbench: %s\n", e.what());
    return 1;
  }
}
