// A workload's deployment: the index it builds and the stack that serves
// it over loopback HTTP.
//
// The stack is either the shipped one — core::SearchServer, and for the
// routed workload core::RouterServer over shard-node SearchServers — or,
// in the traced run, a copy composed exactly as those classes compose
// themselves (SearchService / SearchRouter + RouterService behind a
// webapp::HttpServer with the same options) whose handlers and shard
// transports are wrapped to record when each request entered and left
// each layer. Comparing the two (trace.overhead_ratio) both prices the
// tracing and catches drift between the copy and the shipped classes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "core/dash_engine.h"
#include "core/index_update.h"
#include "core/search_router.h"
#include "core/search_server.h"
#include "tpch/tpch.h"
#include "util/mutex.h"
#include "webapp/http_server.h"

namespace dashbench {

struct WorkloadSpec {
  std::string name;
  int query = 1;  // Table III application query
  dash::tpch::Scale scale = dash::tpch::Scale::kSmall;
  bool mixed = false;   // heavy's keyword/k/s grid; else 1 keyword, k=10, s=0
  bool routed = false;  // 4 shards x 2 replicas behind a router
  bool writes = false;  // UpdatableIndex publisher plus one writer thread
  int readers = 4;      // open-loop /search client threads, one connection each
  int setup_reps = 3;   // set-ups per run; setup_s is their median
};

inline constexpr int kShards = 4;
inline constexpr int kReplicas = 2;
inline constexpr std::size_t kCacheEntries = 256;

// The paper's Table III application `q` over the TPC-H schema.
dash::webapp::WebAppInfo MakeApp(int q);

// How one set-up spent its time, in seconds.
struct SetupTimes {
  double generate_s = 0;      // tpch::Generate
  double build_s = 0;         // DashEngine::Build (light, heavy, routed)
  double init_s = 0;          // UpdatableIndex construction (writes)
  double first_answer_s = 0;  // servers starting -> first /search answered
  double total_s = 0;         // set-up start -> first /search answered
  std::vector<dash::core::CrawlPhase> phases;  // the MR crawl's phases
};

// Which server of the stack handled a request.
enum class Role { kFront, kRouter, kShard };

// One request handled by a wrapped server.
struct HandleRecord {
  Role role = Role::kFront;
  int shard = -1;          // shard nodes
  std::uint64_t rid = 0;   // the client's request id; 0 when untagged
  bool search = false;     // /search (else /shardstats, ...)
  std::string keywords;    // shard nodes: the query's keywords, joined
  Clock::time_point admitted, entry, exit;
  std::size_t segments = 0;  // segments of the snapshot current at entry
  // Sampled front requests: the snapshot they were served from, for the
  // in-process replays. Null when not sampled or republished mid-request.
  dash::core::SnapshotPtr snapshot;
};

// One call of a router leg into a replica's transport.
struct LegRecord {
  int shard = 0;
  int replica = 0;
  bool probe = false;    // RouteStats (/shardstats), else Route (/search)
  std::string keywords;  // joined, as in HandleRecord
  Clock::time_point start, end;
  bool skipped = false;  // probe found df 0 for every token: shard skipped
};

// Joins keywords into the correlation key of records.
std::string JoinKeywords(const std::vector<std::string>& keywords);

// The recorder of the traced stack. Thread-safe; records stay in memory
// until the run ends.
class Tracer {
 public:
  // Front requests whose id is a multiple of `sample_stride` keep their
  // snapshot for replay, up to `max_pinned` distinct generations.
  Tracer(std::uint64_t sample_stride, std::size_t max_pinned);

  // Wraps a server's handler so every request it handles is recorded.
  // `publisher` (may be null) supplies the snapshot current at entry.
  dash::webapp::HttpServer::Handler Wrap(
      Role role, int shard, const dash::core::SnapshotPublisher* publisher,
      dash::webapp::HttpServer::Handler inner);

  // Wraps one replica's transport so every leg and probe is recorded.
  std::unique_ptr<dash::core::ShardTransport> Decorate(
      std::unique_ptr<dash::core::ShardTransport> inner, int shard, int replica);

  void RecordLeg(LegRecord record);

  std::vector<HandleRecord> TakeHandles();
  std::vector<LegRecord> TakeLegs();

 private:
  void RecordHandle(HandleRecord record);
  // Whether a snapshot of `generation` may be kept (caps memory).
  bool MayPin(std::uint64_t generation);

  const std::uint64_t sample_stride_;
  const std::size_t max_pinned_;
  dash::util::Mutex mutex_;
  std::vector<HandleRecord> handles_ DASH_GUARDED_BY(mutex_);
  std::vector<LegRecord> legs_ DASH_GUARDED_BY(mutex_);
  std::set<std::uint64_t> pinned_ DASH_GUARDED_BY(mutex_);
};

// One SearchService endpoint: the shipped core::SearchServer, or (with a
// tracer) the same service behind an HttpServer composed as
// SearchServer::Init composes it, with a recording handler.
class ServingNode {
 public:
  ServingNode(const dash::core::SnapshotPublisher& publisher,
              const dash::core::ServeOptions& options, Tracer* tracer,
              Role role, int shard);
  ~ServingNode();
  ServingNode(const ServingNode&) = delete;
  ServingNode& operator=(const ServingNode&) = delete;

  int port() const;
  dash::webapp::HttpServer::Stats stats() const;
  dash::core::ServeCounters counters() const;
  void Stop();

 private:
  std::unique_ptr<dash::core::SearchServer> shipped_;
  std::unique_ptr<dash::core::SearchService> service_;
  std::unique_ptr<dash::webapp::HttpServer> http_;
};

// The first /search a deployment answers (the end of its set-up).
struct FirstAnswer {
  std::vector<std::string> keywords;
  int k = 10;
  std::uint64_t s = 0;
  int status = 0;  // 0 = transport failure
  std::uint64_t body_hash = 0;
};

class Deployment {
 public:
  // Generates the dataset with tpch::Generate(scale, seed), builds the
  // workload's index (DashEngine::Build with default options, or an
  // UpdatableIndex for writes), releases the dataset, starts the serving
  // stack (traced when `tracer` is non-null) and sends the first /search.
  // `start` is the instant this set-up began.
  Deployment(const WorkloadSpec& spec, std::uint64_t seed, Tracer* tracer,
             Clock::time_point start);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  int port() const;  // the client-facing server
  const SetupTimes& times() const { return times_; }
  const FirstAnswer& first_answer() const { return first_answer_; }
  const dash::webapp::WebAppInfo& app() const { return app_; }
  // The initial index's keywords, DF-descending, with their df.
  const std::vector<std::pair<std::string, std::size_t>>& keywords() const {
    return keywords_;
  }
  std::size_t catalog_size() const { return catalog_size_; }
  // The currently published snapshot.
  dash::core::SnapshotPtr snapshot() const;
  dash::core::UpdatableIndex* updatable() { return updatable_.get(); }

  // Counters of the stack's servers (shard nodes summed).
  dash::webapp::HttpServer::Stats front_stats() const;
  dash::core::ServeCounters search_counters() const;
  std::uint64_t shard_connections() const;
  std::uint64_t leg_failures() const;

  // Stops every server; idempotent.
  void Stop();

 private:
  void StartRouter(Tracer* tracer);

  const WorkloadSpec spec_;
  dash::webapp::WebAppInfo app_;
  SetupTimes times_;
  FirstAnswer first_answer_;
  std::vector<std::pair<std::string, std::size_t>> keywords_;
  std::size_t catalog_size_ = 0;

  std::unique_ptr<dash::core::UpdatableIndex> updatable_;  // writes
  // One publisher per serving node (light/heavy: one; routed: one per
  // replica, as every node of a cluster advances on its own).
  std::vector<std::unique_ptr<dash::core::SnapshotPublisher>> publishers_;
  std::vector<std::unique_ptr<ServingNode>> nodes_;  // front, or shard-major replicas
  std::unique_ptr<dash::core::RouterServer> router_server_;  // shipped
  std::unique_ptr<dash::core::SearchRouter> router_;         // composed
  std::unique_ptr<dash::core::RouterService> router_service_;
  std::unique_ptr<dash::webapp::HttpServer> router_http_;
};

}  // namespace dashbench
