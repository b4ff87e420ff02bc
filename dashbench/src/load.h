// The traffic: seeded queries, the open- and closed-loop /search phases,
// and the writer of the writes workload.
//
// Every input comes from the run's seed: the keyword, k and s draws of
// each client thread and the writer's insert/delete stream. The program
// under test only ever sees the generated requests.
//
// What the clients keep is bounded by the query mix and the fixed
// open-loop schedule, not by how fast the server answers: answers are
// tallied per distinct query (body hash -> count), so the memory the
// benchmark itself holds does not grow with throughput.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "stack.h"
#include "util/random.h"

namespace dashbench {

struct Query {
  std::vector<std::string> keywords;
  int k = 10;
  std::uint64_t s = 0;
};

// "/search?q=..&k=..&s=.." — plus "&trace=<id>" when `trace_id` is
// non-zero (the traced run's request id; SearchService ignores it).
std::string SearchTarget(const Query& query, std::uint64_t trace_id = 0);

// Groups identical queries.
std::string QueryKey(const Query& query);

// Queries as dash_loadgen draws them: each keyword Zipf(1.0) over the
// DF-descending keyword list. Without `mixed`: one keyword, k=10, s=0.
// With it (heavy's mix): 1, 2 or 3 distinct keywords with probability
// 0.6 / 0.3 / 0.1, sent in sorted order, k uniform over {1, 10, 20} and s
// over {100, 200, 500, 1000} — the grid of the paper's Fig. 11.
class QueryMix {
 public:
  QueryMix(const std::vector<std::pair<std::string, std::size_t>>& keywords_by_df,
           bool mixed);
  Query Draw(dash::util::SplitMix64& rng) const;

 private:
  std::vector<std::string> keywords_;  // DF-descending; rank 0 hottest
  dash::util::ZipfSampler zipf_;
  bool mixed_ = false;
};

// One distinct query and the 200 answers it got.
struct QueryTally {
  Query query;
  // (body hash, count) of its 200 answers. Not kept on writes, whose
  // answers change with every publication (its final state is checked).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bodies;
};

// One open-loop request.
struct OpenSample {
  std::uint32_t round = 0;  // the round it was sent in
  float latency_ms = 0;     // scheduled instant -> answer; kFailed when it failed
  float late_ms = 0;        // send instant - scheduled instant
};

// One round of the timed run: an open-loop phase, then a closed-loop one.
struct Round {
  Clock::time_point open_start;  // the first open-loop request was due
  Clock::time_point open_end;    // the last open-loop answer arrived
  Clock::time_point closed_start, closed_end;
  std::uint64_t closed_ok = 0;   // 200 answers that arrived before closed_end
  // Share of the machine's CPU time the hypervisor took away (steal)
  // during the round; 0 where /proc/stat does not say.
  double steal_share = 0;
};

// One request of the traced run, as its client saw it.
struct TracedRequest {
  Query query;
  bool open_loop = false;
  std::uint64_t rid = 0;  // the id sent as &trace=
  int status = 0;         // 0 = transport failure
  std::size_t body_bytes = 0;
  Exchange exchange;
};

struct UpdateOutcome {
  bool ok = false;
  bool insert = false;
  double due_s = 0;        // scheduled instant, seconds after the run began
  double latency_ms = 0;   // scheduled instant -> Insert/Delete returned
  Clock::time_point start, end;  // the Insert/Delete call
};

struct LoadOptions {
  double seconds = 10;      // the timed run, cut into rounds of kRoundSeconds
  double search_rate = 0;   // open-loop offered /search rate, requests/s
  double update_rate = 0;   // writes: offered update rate, updates/s
  std::uint64_t seed = 1;
  bool traced = false;      // tag every request with &trace=<id> and keep it
};

// Each round is two thirds open loop and one third closed loop. Taking a
// figure per round and the median over rounds spreads both phases over
// the whole run, so a burst of outside load spoils a round, not a phase.
inline constexpr double kRoundSeconds = 3.0;
// Closed-loop traffic before the timed run (not measured): fills the
// result cache and faults in what the first requests touch.
inline constexpr double kWarmupSeconds = 1.0;
// Requests in flight in a closed-loop phase. Two, not four: four client
// threads and four server workers on a 4-vCPU machine measure the
// scheduler more than the server.
inline constexpr int kClosedLoopReaders = 2;

struct LoadResult {
  std::vector<QueryTally> queries;  // every distinct query sent
  std::vector<Round> rounds;
  std::vector<OpenSample> open;
  std::vector<UpdateOutcome> updates;
  std::vector<TracedRequest> traced;     // traced runs only
  std::uint64_t searches = 0;            // /search requests sent
  std::uint64_t failed_searches = 0;     // transport failures and non-200s
  std::uint64_t generation_regressions = 0;  // a client saw X-Dash-Generation drop
  std::uint64_t connections_opened = 0;  // by the benchmark's clients
  Clock::time_point start;  // the timed run began (after the warm-up)
};

// Whether `t` falls in one of the run's open-loop phases.
bool InOpenLoop(const LoadResult& load, Clock::time_point t);

// Warms up, then runs the rounds: open loop at search_rate on every
// reader, then closed loop with one request in flight on each of
// kClosedLoopReaders. On writes one writer thread applies updates
// open-loop through the whole timed run.
LoadResult RunLoad(const WorkloadSpec& spec, Deployment& deployment,
                   const QueryMix& mix, const LoadOptions& options);

}  // namespace dashbench
