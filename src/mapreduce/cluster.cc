#include "mapreduce/cluster.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/random.h"
#include "util/stopwatch.h"

namespace dash::mr {

namespace {

// Deterministic per-attempt failure decision ("did the node die before
// finishing this task attempt?"). Seeded by (cluster seed, job sequence,
// phase, task, attempt) so runs are reproducible.
bool AttemptFails(const ClusterConfig& config, std::uint64_t job_seq,
                  bool is_map, std::uint64_t task, std::uint64_t attempt) {
  if (config.task_failure_probability <= 0.0) return false;
  std::uint64_t seed = config.fault_seed;
  seed = seed * 1000003ULL + job_seq;
  seed = seed * 1000003ULL + (is_map ? 1 : 2);
  seed = seed * 1000003ULL + task;
  seed = seed * 1000003ULL + attempt;
  util::SplitMix64 rng(seed);
  return rng.NextDouble() < config.task_failure_probability;
}

// Counts the failed attempts before this task's first success; throws when
// the attempt budget is exhausted (speculative re-execution gave up).
std::uint64_t FailedAttempts(const ClusterConfig& config, std::uint64_t job_seq,
                             bool is_map, std::uint64_t task,
                             const std::string& job_name) {
  std::uint64_t failed = 0;
  while (failed < static_cast<std::uint64_t>(config.max_task_attempts) &&
         AttemptFails(config, job_seq, is_map, task, failed)) {
    ++failed;
  }
  if (failed >= static_cast<std::uint64_t>(config.max_task_attempts)) {
    throw std::runtime_error("job '" + job_name + "': " +
                             (is_map ? std::string("map") : std::string("reduce")) +
                             " task " + std::to_string(task) + " failed " +
                             std::to_string(failed) + " attempts");
  }
  return failed;
}

// FNV-1a over the key; stable across platforms so partition assignment (and
// therefore output order) is deterministic.
std::uint32_t PartitionOf(const std::string& key, int num_partitions) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % static_cast<std::uint64_t>(num_partitions));
}

// Collects emissions into a per-partition buffer.
class PartitionedEmitter : public Emitter {
 public:
  explicit PartitionedEmitter(int num_partitions) : parts_(num_partitions) {}

  void Emit(std::string key, std::string value) override {
    int p = static_cast<int>(PartitionOf(key, static_cast<int>(parts_.size())));
    parts_[p].push_back(Record{std::move(key), std::move(value)});
  }

  std::vector<Dataset>& parts() { return parts_; }

 private:
  std::vector<Dataset> parts_;
};

// Collects emissions into a flat buffer.
class VectorEmitter : public Emitter {
 public:
  void Emit(std::string key, std::string value) override {
    records_.push_back(Record{std::move(key), std::move(value)});
  }
  Dataset& records() { return records_; }

 private:
  Dataset records_;
};

// Groups a sorted run of records by key and feeds each group to `reducer`.
// Takes the partition by value so it is freed when the group run ends.
void ReducePartition(Dataset partition, Reducer& reducer, Emitter& out) {
  // Stable sort by key keeps values in arrival (map-task, emission) order —
  // Hadoop's grouping semantics without secondary sort.
  std::stable_sort(partition.begin(), partition.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  std::size_t i = 0;
  std::vector<std::string> values;
  while (i < partition.size()) {
    std::size_t j = i;
    values.clear();
    while (j < partition.size() && partition[j].key == partition[i].key) {
      values.push_back(std::move(partition[j].value));
      ++j;
    }
    reducer.Reduce(partition[i].key, values, out);
    i = j;
  }
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(config) {
  if (config_.num_nodes < 1) {
    throw std::invalid_argument("cluster needs at least one node");
  }
  if (config_.block_size_bytes == 0) {
    throw std::invalid_argument("block size must be positive");
  }
  // Persistent worker pool instead of per-phase std::thread spawning: a
  // job chain (crawl -> index -> update) launches many small phases, and
  // thread creation was a measurable fixed cost on each. The calling
  // thread participates in ParallelFor, so num_nodes - 1 workers give
  // exactly num_nodes-way task parallelism.
  if (config_.num_nodes > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(config_.num_nodes - 1));
  }
}

void Cluster::RunTasks(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (!pool_) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(static_cast<std::size_t>(n),
                     [&fn](std::size_t i) { fn(static_cast<int>(i)); });
}

std::vector<JobMetrics> Cluster::history() const {
  util::MutexLock lock(mutex_);
  return history_;
}

void Cluster::ClearHistory() {
  util::MutexLock lock(mutex_);
  history_.clear();
}

JobMetrics Cluster::Totals() const {
  util::MutexLock lock(mutex_);
  return SumMetrics(history_);
}

Dataset Cluster::Run(const JobConfig& job, Dataset input,
                     const MapperFactory& mapper, const ReducerFactory& reducer,
                     const ReducerFactory& combiner) {
  if (!mapper || !reducer) {
    throw std::invalid_argument("job '" + job.name +
                                "' needs a mapper and a reducer factory");
  }
  const int num_reducers = std::max(1, job.num_reduce_tasks);

  JobMetrics metrics;
  metrics.job_name = job.name;
  metrics.reduce_tasks = static_cast<std::uint64_t>(num_reducers);
  metrics.map_input_records = input.size();
  metrics.map_input_bytes = DatasetBytes(input);

  // ---- Split input into map tasks by simulated HDFS block size. ----
  std::vector<std::pair<std::size_t, std::size_t>> splits;  // [begin, end)
  {
    std::size_t begin = 0, bytes = 0;
    for (std::size_t i = 0; i < input.size(); ++i) {
      bytes += input[i].Bytes();
      if (bytes >= config_.block_size_bytes) {
        splits.emplace_back(begin, i + 1);
        begin = i + 1;
        bytes = 0;
      }
    }
    if (begin < input.size() || splits.empty()) {
      splits.emplace_back(begin, input.size());
    }
  }
  metrics.map_tasks = splits.size();

  std::uint64_t job_seq;
  {
    util::MutexLock lock(mutex_);
    job_seq = history_.size();
  }
  std::atomic<std::uint64_t> retries{0};

  // ---- Map phase. ----
  util::Stopwatch watch;
  std::vector<std::vector<Dataset>> task_parts(splits.size());
  RunTasks(static_cast<int>(splits.size()), [&](int t) {
    retries.fetch_add(FailedAttempts(config_, job_seq, /*is_map=*/true,
                                     static_cast<std::uint64_t>(t), job.name));
    auto [begin, end] = splits[static_cast<std::size_t>(t)];
    PartitionedEmitter emitter(num_reducers);
    std::unique_ptr<Mapper> m = mapper();
    for (std::size_t i = begin; i < end; ++i) m->Map(input[i], emitter);
    m->Finish(emitter);

    if (combiner) {
      // Combine each partition locally, preserving partition assignment.
      std::unique_ptr<Reducer> c = combiner();
      for (Dataset& part : emitter.parts()) {
        VectorEmitter combined;
        ReducePartition(std::move(part), *c, combined);
        part = std::move(combined.records());
      }
    }
    // Drop the slack that growth by doubling left, so the map output sits
    // beside the input at its own size until the shuffle moves it.
    for (Dataset& part : emitter.parts()) part.shrink_to_fit();
    task_parts[static_cast<std::size_t>(t)] = std::move(emitter.parts());
  });
  metrics.map_wall_sec = watch.ElapsedSeconds();
  // Every map task has read its split. (clear() would keep the capacity.)
  Dataset().swap(input);

  // ---- Shuffle: gather each reduce partition across map tasks. ----
  watch.Restart();
  std::vector<Dataset> partitions(static_cast<std::size_t>(num_reducers));
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    std::vector<Dataset> runs;
    runs.reserve(task_parts.size());
    for (auto& parts : task_parts) {
      metrics.map_output_records += parts[p].size();
      metrics.map_output_bytes += DatasetBytes(parts[p]);
      runs.push_back(std::move(parts[p]));
    }
    partitions[p] = ConcatDatasets(std::move(runs));
  }
  metrics.shuffle_wall_sec = watch.ElapsedSeconds();

  // ---- Reduce phase. ----
  watch.Restart();
  std::vector<Dataset> outputs(static_cast<std::size_t>(num_reducers));
  RunTasks(num_reducers, [&](int p) {
    retries.fetch_add(FailedAttempts(config_, job_seq, /*is_map=*/false,
                                     static_cast<std::uint64_t>(p), job.name));
    VectorEmitter emitter;
    std::unique_ptr<Reducer> r = reducer();
    ReducePartition(std::move(partitions[static_cast<std::size_t>(p)]), *r,
                    emitter);
    outputs[static_cast<std::size_t>(p)] = std::move(emitter.records());
  });
  metrics.reduce_wall_sec = watch.ElapsedSeconds();

  metrics.task_retries = retries.load();
  for (const Dataset& out : outputs) {
    metrics.reduce_output_records += out.size();
    metrics.reduce_output_bytes += DatasetBytes(out);
  }
  Dataset result = ConcatDatasets(std::move(outputs));
  {
    util::MutexLock lock(mutex_);
    history_.push_back(metrics);
  }
  return result;
}

}  // namespace dash::mr
