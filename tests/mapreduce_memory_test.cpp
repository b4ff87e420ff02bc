// Cluster::Run consumes its input and frees each buffer once the next phase
// holds its records. A live-heap counter (global operator new/delete
// replaced, sized with malloc_usable_size) proves it: when the first reduce
// call runs, the job holds its reduce partitions — the map output once —
// and neither the input nor the map tasks' emptied buffers.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "mapreduce/cluster.h"

namespace {
std::atomic<long long> g_live_bytes{0};

void* Track(void* p) {
  if (p != nullptr) {
    g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = Track(std::malloc(size == 0 ? 1 : size))) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Track(std::malloc(size == 0 ? 1 : size));
}

// Not inlined: GCC would otherwise see free() applied to what operator new
// returned and warn about a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace dash::mr {
namespace {

constexpr std::size_t kRecords = 50000;

// Live heap bytes at the job's first Reduce call; -1 until then.
std::atomic<long long> g_first_reduce_live{-1};

class SamplingReducer : public Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    long long unsampled = -1;
    g_first_reduce_live.compare_exchange_strong(unsampled,
                                                g_live_bytes.load());
    for (const std::string& v : values) out.Emit(key, v);
  }
};

TEST(MapReduceMemory, RunReleasesWhatItHasHandedOn) {
  // One node runs the tasks in order, so the sample sees no other reduce
  // task's sort buffer or output.
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster cluster(config);
  JobConfig job;
  job.name = "identity";
  g_first_reduce_live = -1;

  const long long baseline = g_live_bytes.load();
  Dataset input;
  input.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    // Values past the small-string buffer, so each owns a heap block.
    input.push_back(Record{"k" + std::to_string(i % 5000),
                           std::string(40, static_cast<char>('a' + i % 26)) +
                               std::to_string(i)});
  }
  const long long input_bytes = g_live_bytes.load() - baseline;

  Dataset out = cluster.Run(
      job, std::move(input), [] { return std::make_unique<IdentityMapper>(); },
      [] { return std::make_unique<SamplingReducer>(); });

  ASSERT_EQ(out.size(), kRecords);
  ASSERT_GE(g_first_reduce_live.load(), 0);
  const double ratio =
      static_cast<double>(g_first_reduce_live.load() - baseline) /
      static_cast<double>(input_bytes);
  EXPECT_LT(ratio, 1.5) << "live heap at the first reduce call is " << ratio
                        << "x the input's " << input_bytes << " bytes";
}

}  // namespace
}  // namespace dash::mr
