#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "measure.h"
#include "util/string_util.h"

namespace dashbench {

namespace {

// Independent seeded streams: one per (phase, client thread), one for the
// writer. Each thread draws its own stream in order, so the inputs do not
// depend on thread interleaving.
enum Stream : std::uint64_t { kOpenLoop = 1, kClosedLoop = 2, kWriter = 3, kWarmup = 4 };

dash::util::SplitMix64 StreamRng(std::uint64_t seed, Stream stream, int thread) {
  dash::util::SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ULL *
                                     (static_cast<std::uint64_t>(stream) * 64 +
                                      static_cast<std::uint64_t>(thread) + 1)));
  return dash::util::SplitMix64(mix.Next());
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// The machine's CPU time so far, from the first line of /proc/stat.
struct CpuTimes {
  double total = 0;  // every state, steal included
  double steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  double value = 0;
  for (int field = 0; field < 10 && in >> value; ++field) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (field < 8) times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0;
}

// Lets a sleeping client thread wake at its scheduled instant rather than
// up to the default 50 us later.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// Runs `body(i)` on `n` threads and joins them all, rethrowing the first
// exception any of them raised.
template <typename Body>
void RunThreads(int n, Body body) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&body, &errors, i] {
      try {
        TightenTimerSlack();
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// dash_writebench's lineitem stream: 60% inserts of a fresh lineitem under
// a random order, 40% deletes of a random existing lineitem.
class Writer {
 public:
  Writer(dash::core::UpdatableIndex* index, std::uint64_t seed)
      : index_(index), rng_(StreamRng(seed, kWriter, 0)) {}

  // Applies the next update; returns whether it was an insert.
  bool Apply() {
    const dash::db::Table& lineitem = index_->database().table("lineitem");
    if (lineitem.row_count() == 0 || rng_.NextDouble() < 0.6) {
      const dash::db::Table& orders = index_->database().table("orders");
      const dash::db::Row& order = orders.rows()[rng_.Below(orders.row_count())];
      index_->Insert(
          "lineitem",
          {dash::db::Value(next_lid_++), order[0],
           dash::db::Value(static_cast<std::int64_t>(rng_.Range(0, 29))),
           dash::db::Value(static_cast<std::int64_t>(rng_.Range(1, 50))),
           dash::db::Value(99.5), dash::db::Value(0.05),
           dash::db::Value("1995-01-01"), dash::db::Value("quick brown lineitem")});
      return true;
    }
    dash::db::Row victim = lineitem.rows()[rng_.Below(lineitem.row_count())];
    index_->Delete("lineitem", victim);
    return false;
  }

 private:
  dash::core::UpdatableIndex* const index_;
  dash::util::SplitMix64 rng_;
  std::int64_t next_lid_ = 1000000;  // above every generated lineitem id
};

// One client thread: its connection, its input streams and everything it
// saw. The streams carry on from round to round.
struct Reader {
  std::unique_ptr<LoopbackClient> client;
  dash::util::SplitMix64 open_rng{0}, closed_rng{0};
  std::unordered_map<std::string, std::size_t> slot;  // QueryKey -> tallies
  std::vector<QueryTally> tallies;
  std::vector<OpenSample> open;
  std::vector<std::uint64_t> closed_ok;  // per round
  std::vector<TracedRequest> traced;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t regressions = 0;
  std::uint64_t last_generation = 0;
};

// Sends one /search and tallies its answer; returns the status (0 when
// the exchange failed).
int Send(Reader& reader, const Query& query, bool open_loop, bool keep_bodies,
         std::uint64_t rid, Exchange* exchange) {
  std::optional<dash::webapp::HttpResponse> response =
      reader.client->Get(SearchTarget(query, rid), exchange);
  ++reader.sent;
  const int status = response.has_value() ? response->status : 0;
  auto [it, fresh] = reader.slot.emplace(QueryKey(query), reader.tallies.size());
  if (fresh) reader.tallies.push_back({query, {}});
  QueryTally& tally = reader.tallies[it->second];
  if (status != 200) {
    ++reader.failed;
  } else {
    // Generations a client observes must never decrease.
    auto g = response->headers.find("X-Dash-Generation");
    std::int64_t generation = 0;
    if (g != response->headers.end() && dash::util::ParseInt64(g->second, &generation) &&
        generation > 0) {
      const auto observed = static_cast<std::uint64_t>(generation);
      if (observed < reader.last_generation) ++reader.regressions;
      reader.last_generation = std::max(reader.last_generation, observed);
    }
    if (keep_bodies) {
      const std::uint64_t hash = BodyHash(response->body);
      auto body = std::find_if(tally.bodies.begin(), tally.bodies.end(),
                               [hash](const auto& b) { return b.first == hash; });
      if (body == tally.bodies.end()) {
        tally.bodies.emplace_back(hash, 1);
      } else {
        ++body->second;
      }
    }
  }
  if (rid != 0) {
    reader.traced.push_back({query, open_loop, rid, status,
                             response.has_value() ? response->body.size() : 0, *exchange});
  }
  return status;
}

}  // namespace

std::string SearchTarget(const Query& query, std::uint64_t trace_id) {
  std::string target = "/search";
  char sep = '?';
  for (const std::string& keyword : query.keywords) {
    target += sep;
    sep = '&';
    target += "q=";
    target += dash::util::UrlEncode(keyword);
  }
  target += "&k=" + std::to_string(query.k);
  target += "&s=" + std::to_string(query.s);
  if (trace_id != 0) target += "&trace=" + std::to_string(trace_id);
  return target;
}

std::string QueryKey(const Query& query) {
  return JoinKeywords(query.keywords) + std::to_string(query.k) + "/" +
         std::to_string(query.s);
}

QueryMix::QueryMix(const std::vector<std::pair<std::string, std::size_t>>& keywords_by_df,
                   bool mixed)
    : zipf_(std::max<std::size_t>(keywords_by_df.size(), 1), 1.0), mixed_(mixed) {
  for (const auto& [keyword, df] : keywords_by_df) keywords_.push_back(keyword);
}

Query QueryMix::Draw(dash::util::SplitMix64& rng) const {
  Query query;
  if (!mixed_) {
    query.keywords = {keywords_[zipf_.Sample(rng)]};
    return query;
  }
  const double u = rng.NextDouble();
  const std::size_t terms = std::min<std::size_t>(u < 0.6 ? 1 : u < 0.9 ? 2 : 3,
                                                  keywords_.size());
  while (query.keywords.size() < terms) {
    const std::string& keyword = keywords_[zipf_.Sample(rng)];
    if (std::find(query.keywords.begin(), query.keywords.end(), keyword) ==
        query.keywords.end()) {
      query.keywords.push_back(keyword);
    }
  }
  // One order per keyword set. The result cache keys on the set, but a
  // three-term score is a floating-point sum whose last bits depend on the
  // order, so a cached answer for {c, b, a} served to {a, b, c} can differ
  // from a fresh search by an ulp — which the byte-exact answer check
  // would count as wrong. Sorted keywords keep the workloads off that.
  std::sort(query.keywords.begin(), query.keywords.end());
  static constexpr int kKs[] = {1, 10, 20};
  static constexpr std::uint64_t kSs[] = {100, 200, 500, 1000};
  query.k = kKs[rng.Below(3)];
  query.s = kSs[rng.Below(4)];
  return query;
}

bool InOpenLoop(const LoadResult& load, Clock::time_point t) {
  for (const Round& round : load.rounds) {
    if (t >= round.open_start && t < round.open_end) return true;
  }
  return false;
}

LoadResult RunLoad(const WorkloadSpec& spec, Deployment& deployment,
                   const QueryMix& mix, const LoadOptions& options) {
  LoadResult result;
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kRoundSeconds)));
  const double round_seconds = options.seconds / static_cast<double>(rounds);
  const double open_seconds = round_seconds * 2 / 3;
  const double closed_seconds = round_seconds - open_seconds;
  const bool keep_bodies = !spec.writes;
  const int closed_readers = std::min(kClosedLoopReaders, spec.readers);
  std::vector<Reader> readers(static_cast<std::size_t>(spec.readers));
  for (std::size_t i = 0; i < readers.size(); ++i) {
    Reader& reader = readers[i];
    reader.client = std::make_unique<LoopbackClient>(deployment.port());
    reader.open_rng = StreamRng(options.seed, kOpenLoop, static_cast<int>(i));
    reader.closed_rng = StreamRng(options.seed, kClosedLoop, static_cast<int>(i));
    reader.closed_ok.assign(rounds, 0);
  }
  std::atomic<std::uint64_t> next_rid{1};
  auto rid = [&] { return options.traced ? next_rid.fetch_add(1) : 0; };

  // Warm-up: closed loop on every reader, answers checked but not timed.
  const Clock::time_point warm_end = Clock::now() + Seconds(kWarmupSeconds);
  RunThreads(spec.readers, [&](int index) {
    Reader& reader = readers[static_cast<std::size_t>(index)];
    dash::util::SplitMix64 rng = StreamRng(options.seed, kWarmup, index);
    while (Clock::now() < warm_end) {
      Exchange exchange;
      Send(reader, mix.Draw(rng), false, keep_bodies, rid(), &exchange);
    }
  });

  // A little lead so the first scheduled sends are not late by construction.
  const auto lead = std::chrono::milliseconds(5);
  const Clock::time_point start = Clock::now() + lead;
  result.start = start;

  // The writer runs its own open-loop schedule across every round.
  std::thread writer;
  std::exception_ptr writer_error;
  if (spec.writes) {
    writer = std::thread([&] {
      try {
        TightenTimerSlack();
        Writer stream(deployment.updatable(), options.seed);
        const auto total = static_cast<std::size_t>(options.update_rate * options.seconds);
        result.updates.reserve(total);
        for (std::size_t j = 0; j < total; ++j) {
          UpdateOutcome update;
          update.due_s = static_cast<double>(j) / options.update_rate;
          const Clock::time_point scheduled = start + Seconds(update.due_s);
          std::this_thread::sleep_until(scheduled);
          update.start = Clock::now();
          try {
            update.insert = stream.Apply();
            update.ok = true;
          } catch (const std::exception&) {
            update.ok = false;  // counted as a failed operation
          }
          update.end = Clock::now();
          update.latency_ms = Ms(update.end - scheduled);
          result.updates.push_back(update);
        }
      } catch (...) {
        writer_error = std::current_exception();
      }
    });
  }

  try {
    const auto per_round = static_cast<std::size_t>(options.search_rate * open_seconds);
    for (std::size_t r = 0; r < rounds; ++r) {
      Round round;
      const CpuTimes cpu_before = ReadCpuTimes();
      round.open_start = r == 0 ? start : Clock::now() + lead;
      // Open loop: request g of the round's schedule is due at
      // open_start + g / rate and goes out on reader g mod readers.
      RunThreads(spec.readers, [&](int index) {
        Reader& reader = readers[static_cast<std::size_t>(index)];
        for (std::size_t g = static_cast<std::size_t>(index); g < per_round;
             g += static_cast<std::size_t>(spec.readers)) {
          const Query query = mix.Draw(reader.open_rng);
          const Clock::time_point scheduled =
              round.open_start + Seconds(static_cast<double>(g) / options.search_rate);
          std::this_thread::sleep_until(scheduled);
          OpenSample sample;
          sample.round = static_cast<std::uint32_t>(r);
          sample.late_ms = static_cast<float>(Ms(Clock::now() - scheduled));
          Exchange exchange;
          const int status = Send(reader, query, true, keep_bodies, rid(), &exchange);
          sample.latency_ms =
              status == 200 ? static_cast<float>(Ms(exchange.done - scheduled)) : kFailed;
          reader.open.push_back(sample);
        }
      });
      round.open_end = Clock::now();

      // Closed loop: each closed-loop reader keeps one request in flight;
      // answers count when they arrive before the phase ends.
      round.closed_start = Clock::now();
      round.closed_end = round.closed_start + Seconds(closed_seconds);
      RunThreads(closed_readers, [&](int index) {
        Reader& reader = readers[static_cast<std::size_t>(index)];
        while (Clock::now() < round.closed_end) {
          Exchange exchange;
          if (Send(reader, mix.Draw(reader.closed_rng), false, keep_bodies, rid(),
                   &exchange) == 200 &&
              exchange.done < round.closed_end) {
            ++reader.closed_ok[r];
          }
        }
      });
      round.steal_share = StealShare(cpu_before, ReadCpuTimes());
      result.rounds.push_back(round);
    }
  } catch (...) {
    if (writer.joinable()) writer.join();
    throw;
  }
  if (writer.joinable()) writer.join();
  if (writer_error) std::rethrow_exception(writer_error);

  std::unordered_map<std::string, std::size_t> slot;
  for (Reader& reader : readers) {
    for (QueryTally& tally : reader.tallies) {
      auto [it, fresh] = slot.emplace(QueryKey(tally.query), result.queries.size());
      if (fresh) {
        result.queries.push_back(std::move(tally));
        continue;
      }
      auto& bodies = result.queries[it->second].bodies;
      for (const auto& [hash, count] : tally.bodies) {
        auto body = std::find_if(bodies.begin(), bodies.end(),
                                 [hash = hash](const auto& b) { return b.first == hash; });
        if (body == bodies.end()) {
          bodies.emplace_back(hash, count);
        } else {
          body->second += count;
        }
      }
    }
    result.open.insert(result.open.end(), reader.open.begin(), reader.open.end());
    for (std::size_t r = 0; r < rounds; ++r) result.rounds[r].closed_ok += reader.closed_ok[r];
    for (TracedRequest& t : reader.traced) result.traced.push_back(std::move(t));
    result.searches += reader.sent;
    result.failed_searches += reader.failed;
    result.generation_regressions += reader.regressions;
    result.connections_opened += reader.client->connections_opened();
  }
  return result;
}

}  // namespace dashbench
