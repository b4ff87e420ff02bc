// In-process MapReduce cluster.
//
// Models the parts of Hadoop the paper's algorithms exercise:
//   * input is split into map tasks by (simulated HDFS) block size;
//   * map tasks run in parallel on `num_nodes` worker threads, each with a
//     fresh Mapper instance, partitioning output by hash(key) % R;
//   * an optional Combiner runs over each map task's local output;
//   * the shuffle sorts and groups each reduce partition by key;
//   * reduce tasks run in parallel, each with a fresh Reducer instance.
//
// Output is deterministic: records are ordered by (partition, key, value
// emission order), independent of thread scheduling. Every phase's record
// and byte volumes are recorded in JobMetrics — the currency of the
// stepwise-vs-integrated comparison (paper Section V, Figure 10).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/metrics.h"
#include "mapreduce/record.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dash::mr {

// Receives records emitted by a Mapper or Reducer.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(std::string key, std::string value) = 0;
};

// One map task instance; Map is called once per input record.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(const Record& record, Emitter& out) = 0;
  // Called after the task's last record; default no-op. Lets mappers batch.
  virtual void Finish(Emitter& out) { (void)out; }
};

// One reduce (or combine) task instance; Reduce is called once per distinct
// key with all values for that key. Values arrive in deterministic order
// (emission order within each map task, map tasks in split order).
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(const std::string& key,
                      const std::vector<std::string>& values,
                      Emitter& out) = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

struct JobConfig {
  std::string name = "job";
  int num_reduce_tasks = 4;
};

struct ClusterConfig {
  int num_nodes = 4;                        // worker threads
  std::size_t block_size_bytes = 1 << 20;   // map split granularity
  CostModel cost;                           // for modeled elapsed time

  // Fault injection: each task attempt fails with this probability
  // (deterministically, from fault_seed), and the cluster re-executes it —
  // MapReduce's defining fault-tolerance behaviour. Tasks are functional
  // (fresh Mapper/Reducer per attempt, output replaces any partial
  // attempt), so job output is bit-identical with and without failures.
  double task_failure_probability = 0.0;
  std::uint64_t fault_seed = 1;
  int max_task_attempts = 4;  // exceeded => the job throws
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  // Runs one MR job. `combiner` may be null. Returns the reduce output and
  // appends this job's metrics to history(). Safe to call from several
  // threads (each job's tasks still fan out over the cluster's own pool);
  // concurrent jobs append to the history in completion order.
  //
  // Run consumes `input` (move it in; an lvalue pays for a copy) and frees
  // each buffer once the next phase holds its records: the input after the
  // map phase, each map task's partition buffers as the shuffle moves them
  // into the reduce partitions, each partition when its reduce task ends,
  // and each reduce task's output as it is gathered into the result. So
  // the map phase holds the input plus the map tasks' output (trimmed to
  // size), the shuffle the map output once, the reduce phase its
  // partitions plus the outputs so far, and the gather the reduce output
  // once; partitions and result are reserved to their exact sizes. Every
  // JobMetrics record and byte counter is taken before the buffer it counts
  // is released, so the counters do not depend on any of this.
  // DASH_BLOCKING: joins every task of the job before returning.
  Dataset Run(const JobConfig& job, Dataset input,
              const MapperFactory& mapper, const ReducerFactory& reducer,
              const ReducerFactory& combiner = nullptr) DASH_BLOCKING;

  const ClusterConfig& config() const { return config_; }

  // Snapshot of the per-job metrics since the last ClearHistory().
  std::vector<JobMetrics> history() const DASH_EXCLUDES(mutex_);
  void ClearHistory() DASH_EXCLUDES(mutex_);

  // Sum of all job metrics since the last ClearHistory().
  JobMetrics Totals() const DASH_EXCLUDES(mutex_);

 private:
  // Runs fn(0..n-1) across the cluster's worker pool (serial when the
  // cluster has a single node). Blocks until every task finishes.
  void RunTasks(int n, const std::function<void(int)>& fn) DASH_BLOCKING;

  ClusterConfig config_;
  mutable util::Mutex mutex_;
  std::vector<JobMetrics> history_ DASH_GUARDED_BY(mutex_);
  // num_nodes - 1 workers; the thread calling Run() acts as the last node
  // (ThreadPool::ParallelFor always drains on the caller too). Null when
  // num_nodes == 1.
  std::unique_ptr<util::ThreadPool> pool_;
};

// Convenience mappers/reducers used by several job chains.

// Emits each input record unchanged.
class IdentityMapper : public Mapper {
 public:
  void Map(const Record& record, Emitter& out) override {
    out.Emit(record.key, record.value);
  }
};

// Emits each (key, value) pair of the group unchanged.
class IdentityReducer : public Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    for (const std::string& v : values) out.Emit(key, v);
  }
};

}  // namespace dash::mr
