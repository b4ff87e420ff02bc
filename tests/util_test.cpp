// Unit tests for src/util: strings, tokenizer, record codec, RNG.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"
#include "util/csv.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/tokenizer.h"

namespace dash::util {
namespace {

// ---------- Split / Trim / Join ----------

TEST(StringUtil, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitPreservesEmptyPieces) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, SplitEmptyStringYieldsOneEmptyPiece) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, SplitTrailingSeparator) {
  auto parts = Split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtil, SplitWhitespaceAllBlank) {
  EXPECT_TRUE(SplitWhitespace(" \t\n ").empty());
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join(std::vector<std::string>{}, ", "), "");
  EXPECT_EQ(Join(std::vector<std::string>{"solo"}, ", "), "solo");
}

TEST(StringUtil, CaseHelpers) {
  EXPECT_EQ(ToLower("MiXeD 42"), "mixed 42");
  EXPECT_TRUE(EqualsIgnoreCase("BURGER", "burger"));
  EXPECT_FALSE(EqualsIgnoreCase("burger", "burgers"));
  EXPECT_TRUE(ContainsIgnoreCase("Unique Burger", "burger"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("ab", "abc"));
}

// ---------- URL encoding ----------

TEST(StringUtil, UrlEncodeUnreservedPassThrough) {
  EXPECT_EQ(UrlEncode("American-10_x.y~z"), "American-10_x.y~z");
}

TEST(StringUtil, UrlEncodeEscapesSpecials) {
  EXPECT_EQ(UrlEncode("a b&c=d"), "a%20b%26c%3Dd");
}

TEST(StringUtil, UrlDecodeRoundTrip) {
  std::string original = "cuisine=Ame rican&x=1/2+3";
  EXPECT_EQ(UrlDecode(UrlEncode(original)), original);
}

TEST(StringUtil, UrlDecodeMalformedEscapePassesThrough) {
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
  EXPECT_EQ(UrlDecode("%2"), "%2");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(StringUtil, ParseInt64) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("4.2", &v));
}

TEST(StringUtil, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("4.3", &v));
  EXPECT_DOUBLE_EQ(v, 4.3);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
}

// ---------- Tokenizer (paper Example 6 semantics) ----------

TEST(Tokenizer, LowercasesAndSplits) {
  auto toks = Tokenize("Burger Experts");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "burger");
  EXPECT_EQ(toks[1], "experts");
}

TEST(Tokenizer, KeepsInteriorPunctuation) {
  // Bond's, 4.3 and 01/11 are each single keywords (Example 6).
  auto toks = Tokenize("Bond's Cafe 9 4.3 Nice Coffee James 01/11");
  EXPECT_EQ(toks.size(), 8u);
  EXPECT_EQ(toks[0], "bond's");
  EXPECT_EQ(toks[3], "4.3");
  EXPECT_EQ(toks[7], "01/11");
}

TEST(Tokenizer, StripsEdgePunctuation) {
  auto toks = Tokenize("(hello), \"world\"!");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "hello");
  EXPECT_EQ(toks[1], "world");
}

TEST(Tokenizer, PurePunctuationTokenDropped) {
  EXPECT_TRUE(Tokenize("-- ... !!").empty());
}

TEST(Tokenizer, Utf8LettersSurvive) {
  // Multi-byte letters are not edge punctuation: accents and CJK stay.
  auto toks = Tokenize("Caf\xC3\xA9 (\xE7\x83\xA4\xE8\x82\x89)");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "caf\xC3\xA9");
  EXPECT_EQ(toks[1], "\xE7\x83\xA4\xE8\x82\x89");
}

TEST(TokenCounter, AccumulatesWithMultiplier) {
  TokenCounter counter;
  counter.Add("burger queen");
  counter.Add("burger", 2);
  EXPECT_EQ(counter.total(), 4u);
  EXPECT_EQ(counter.counts().at("burger"), 3u);
  EXPECT_EQ(counter.counts().at("queen"), 1u);
}

TEST(TokenCounter, ZeroMultiplierIsNoOp) {
  TokenCounter counter;
  counter.Add("burger", 0);
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_TRUE(counter.counts().empty());
}

// ---------- Record codec ----------

TEST(Csv, RoundTripSimple) {
  std::vector<std::string> fields = {"a", "b", "c"};
  EXPECT_EQ(DecodeFields(EncodeFields(fields)), fields);
}

TEST(Csv, RoundTripSpecialCharacters) {
  std::vector<std::string> fields = {"tab\there", "new\nline", "back\\slash",
                                     ""};
  EXPECT_EQ(DecodeFields(EncodeFields(fields)), fields);
}

TEST(Csv, NestedEncodingRoundTrips) {
  // The crawl pipelines nest encoded fragment keys inside encoded pairs.
  std::string inner = EncodeFields(std::vector<std::string>{"American", "10"});
  std::string outer = EncodeFields(std::vector<std::string>{inner, "3"});
  auto decoded = DecodeFields(outer);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], inner);
  auto inner_decoded = DecodeFields(decoded[0]);
  ASSERT_EQ(inner_decoded.size(), 2u);
  EXPECT_EQ(inner_decoded[0], "American");
}

TEST(Csv, EmptyLineIsOneEmptyField) {
  auto fields = DecodeFields("");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

// ---------- Deterministic RNG ----------

TEST(Random, SplitMix64IsDeterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, RangeIsInclusive) {
  SplitMix64 rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, ZipfPrefersLowRanks) {
  SplitMix64 rng(42);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 must be sampled far more often than rank 99.
  EXPECT_GT(counts[0], counts[99] * 5);
  // All samples in range is implied by the indexing above not crashing.
}

// ------------------------------------------------------- log-sink registry

// Restores the process-wide log level (kOff in tests) on exit so sink
// tests cannot leak verbosity into the rest of the suite.
class LogSinkTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = GetLogLevel(); }
  void TearDown() override { SetLogLevel(saved_level_); }

 private:
  LogLevel saved_level_;
};

TEST_F(LogSinkTest, SinkSeesMessagesAtOrAboveLevel) {
  SetLogLevel(LogLevel::kWarning);
  std::vector<std::pair<LogLevel, std::string>> seen;
  int id = AddLogSink([&seen](LogLevel level, const std::string& msg) {
    seen.emplace_back(level, msg);
  });
  LogMessage(LogLevel::kInfo, "dropped");
  LogMessage(LogLevel::kWarning, "kept");
  DASH_LOG(Error) << "streamed " << 42;
  RemoveLogSink(id);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair{LogLevel::kWarning, std::string("kept")}));
  EXPECT_EQ(seen[1], (std::pair{LogLevel::kError, std::string("streamed 42")}));
}

TEST_F(LogSinkTest, RemoveStopsDeliveryAndUnknownIdsAreIgnored) {
  SetLogLevel(LogLevel::kInfo);
  int calls = 0;
  int id = AddLogSink([&calls](LogLevel, const std::string&) { ++calls; });
  EXPECT_EQ(LogSinkCount(), 1u);
  LogMessage(LogLevel::kInfo, "one");
  RemoveLogSink(id);
  RemoveLogSink(id);      // double-remove is a no-op
  RemoveLogSink(999999);  // unknown id is a no-op
  EXPECT_EQ(LogSinkCount(), 0u);
  LogMessage(LogLevel::kInfo, "two");
  EXPECT_EQ(calls, 1);
}

TEST_F(LogSinkTest, SinksRunInRegistrationOrder) {
  SetLogLevel(LogLevel::kInfo);
  std::string trace;
  int a = AddLogSink([&trace](LogLevel, const std::string&) { trace += 'a'; });
  int b = AddLogSink([&trace](LogLevel, const std::string&) { trace += 'b'; });
  LogMessage(LogLevel::kInfo, "x");
  RemoveLogSink(a);
  LogMessage(LogLevel::kInfo, "y");
  RemoveLogSink(b);
  EXPECT_EQ(trace, "abb");
}

TEST_F(LogSinkTest, ConcurrentEmissionIsSerializedBySinkLock) {
  SetLogLevel(LogLevel::kInfo);
  // Deliberately unsynchronized counter: the registry lock must serialize
  // sink invocations, so no increment may be lost (TSan also watches this).
  int calls = 0;
  int id = AddLogSink([&calls](LogLevel, const std::string&) { ++calls; });
  ThreadPool pool(4);
  pool.ParallelFor(64, [](std::size_t i) {
    LogMessage(LogLevel::kInfo, "msg " + std::to_string(i));
  });
  RemoveLogSink(id);
  EXPECT_EQ(calls, 64);
}

TEST(BoundedQueue, TryPushRespectsCapacityAndPopDrains) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_FALSE(queue.TryPush(3));  // full: shed, never block
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::optional<int>(3));
}

TEST(BoundedQueue, CloseUnblocksPopAndRejectsPush) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // closed: admission refused
  // Items admitted before Close still drain...
  EXPECT_EQ(queue.Pop(), std::optional<int>(7));
  // ...then Pop reports exhaustion instead of blocking forever.
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, ConcurrentProducersAndConsumersLoseNothing) {
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 200;
  BoundedQueue<int> queue(8);
  std::atomic<int> accepted{0};
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  ThreadPool pool(kProducers + kConsumers);
  std::vector<std::future<void>> futures;
  for (int c = 0; c < kConsumers; ++c) {
    futures.push_back(pool.Submit([&] {
      while (auto item = queue.Pop()) {
        consumed_sum.fetch_add(*item);
        consumed_count.fetch_add(1);
      }
    }));
  }
  std::atomic<long long> produced_sum{0};
  std::vector<std::future<void>> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(pool.Submit([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        if (queue.TryPush(value)) {
          accepted.fetch_add(1);
          produced_sum.fetch_add(value);
        }
      }
    }));
  }
  for (auto& f : producers) f.get();
  queue.Close();
  for (auto& f : futures) f.get();
  // Every accepted item was consumed exactly once; rejected items vanish.
  EXPECT_EQ(consumed_count.load(), accepted.load());
  EXPECT_EQ(consumed_sum.load(), produced_sum.load());
}

TEST(LatencyHistogram, EmptyAndSingleSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.total(), 42u);
  // With one sample every percentile is that sample (clamped to max).
  EXPECT_EQ(h.Percentile(0.5), 42u);
  EXPECT_EQ(h.Percentile(1.0), 42u);
}

TEST(LatencyHistogram, PercentilesBoundedByResolutionAndMax) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-linear buckets (16 per octave) overestimate by < ~6.25%, never
  // underestimate, and never exceed the recorded max.
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    std::uint64_t exact = static_cast<std::uint64_t>(q * 1000);
    std::uint64_t reported = h.Percentile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact + exact / 8 + 1) << "q=" << q;
    EXPECT_LE(reported, h.max()) << "q=" << q;
  }
}

TEST(LatencyHistogram, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  ThreadPool pool(4);
  pool.ParallelFor(1000, [&](std::size_t i) { h.Record(i % 97 + 1); });
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 97u);
  EXPECT_LE(h.Percentile(1.0), 97u);
}

TEST(LatencyHistogram, EmptyHistogramReportsZeroForEveryQuantile) {
  LatencyHistogram h;
  // No samples: every quantile — including out-of-range arguments — is 0,
  // never a garbage bucket bound.
  for (double q : {-1.0, 0.0, 0.5, 0.999, 1.0, 2.0}) {
    EXPECT_EQ(h.Percentile(q), 0u) << "q=" << q;
  }
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.total(), 0u);
}

TEST(LatencyHistogram, QuantileArgumentIsClampedToUnitInterval) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(1000);
  // q below 0 behaves like the smallest non-empty quantile; q above 1 like
  // 1.0 (the max sample's bucket, clamped to max()).
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(7.0), h.Percentile(1.0));
  EXPECT_LE(h.Percentile(7.0), h.max());
  EXPECT_GE(h.Percentile(-0.5), 10u);
}

TEST(LatencyHistogram, MergeEqualsDirectRecording) {
  // Merge must behave as if every sample had been Record()ed into the
  // destination: same count/total/max, same bucket contents, so the same
  // percentile readout as a histogram that saw the union directly.
  LatencyHistogram a, b, merged, direct;
  for (std::uint64_t v = 1; v <= 400; ++v) {
    a.Record(v);
    direct.Record(v);
  }
  for (std::uint64_t v = 5000; v <= 5200; ++v) {
    b.Record(v);
    direct.Record(v);
  }
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.total(), direct.total());
  EXPECT_EQ(merged.max(), direct.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.Percentile(q), direct.Percentile(q)) << "q=" << q;
  }
  // Merging an empty histogram is a no-op.
  LatencyHistogram empty;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.Percentile(0.99), direct.Percentile(0.99));
}

TEST(LatencyHistogram, MergeThenQuantileBeatsQuantileOfQuantiles) {
  // The router merges per-shard histograms and THEN takes quantiles.
  // The alternative — combining per-shard quantiles — has no error bound:
  // with skewed shards (one fast busy shard, one slow sparse one) the
  // average of per-shard p99s lands nowhere near the population p99,
  // while merge-then-quantile stays inside the ~6.25% bucket bound.
  LatencyHistogram fast, slow, merged;
  for (int i = 0; i < 990; ++i) fast.Record(10);
  for (int i = 0; i < 10; ++i) slow.Record(100000);
  merged.Merge(fast);
  merged.Merge(slow);
  // Population: 1000 samples, p99 = the 990th = 10.
  std::uint64_t exact = 10;
  std::uint64_t reported = merged.Percentile(0.99);
  EXPECT_GE(reported, exact);
  EXPECT_LE(reported, exact + exact / 8 + 1);
  std::uint64_t quantile_of_quantiles =
      (fast.Percentile(0.99) + slow.Percentile(0.99)) / 2;
  EXPECT_GT(quantile_of_quantiles, 100 * reported);  // off by >100x
}

TEST(LatencyHistogram, MergeAcrossThreadsCountsEverySettledSample) {
  // Per-thread (per-shard) histograms recorded concurrently, then merged:
  // the merged readout must account for every sample with the documented
  // bucket-resolution error bound.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::unique_ptr<LatencyHistogram>> shards;
  for (int t = 0; t < kThreads; ++t) {
    shards.push_back(std::make_unique<LatencyHistogram>());
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shards, t] {
      for (int i = 0; i < kPerThread; ++i) {
        shards[static_cast<std::size_t>(t)]->Record(
            static_cast<std::uint64_t>(i % 1000 + 1));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  LatencyHistogram merged;
  for (const auto& shard : shards) merged.Merge(*shard);
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(merged.max(), 1000u);
  for (double q : {0.5, 0.99}) {
    std::uint64_t exact = static_cast<std::uint64_t>(q * 1000);
    EXPECT_GE(merged.Percentile(q), exact) << "q=" << q;
    EXPECT_LE(merged.Percentile(q), exact + exact / 8 + 1) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeRacingRecordsErrsLowNeverCorrupts) {
  // Monitoring-grade race guarantee: merging while the source is being
  // recorded into may miss in-flight samples (totals are read before
  // buckets) but never overcounts, never tears a quantile above max, and
  // a post-quiescence merge sees everything. Run under tsan.
  LatencyHistogram src;
  constexpr int kSamples = 20000;
  std::thread writer([&src] {
    for (int i = 0; i < kSamples; ++i) {
      src.Record(static_cast<std::uint64_t>(i % 500 + 1));
    }
  });
  LatencyHistogram racing;
  racing.Merge(src);  // concurrent with the writer
  EXPECT_LE(racing.count(), static_cast<std::uint64_t>(kSamples));
  EXPECT_LE(racing.Percentile(1.0), 500u);
  writer.join();
  LatencyHistogram settled;
  settled.Merge(src);
  EXPECT_EQ(settled.count(), static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(settled.total(), src.total());
  EXPECT_EQ(settled.max(), 500u);
}

TEST(LatencyHistogram, OverflowSampleLandsInTopBucketAndClampsToMax) {
  LatencyHistogram h;
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  h.Record(huge);  // top octave: must not index out of the bucket array
  h.Record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge);
  // The top bucket's upper-bound arithmetic saturates at 2^64-1 and the
  // percentile clamps to the recorded max — either way the readout is the
  // sample, not a wrapped-around small number.
  EXPECT_EQ(h.Percentile(1.0), huge);
  EXPECT_LE(h.Percentile(0.5), huge);
}

TEST(BoundedQueue, CloseWakesConsumersBlockedInPop) {
  BoundedQueue<int> queue(4);
  ThreadPool pool(2);
  // Both consumers park inside Pop() on the empty queue.
  auto first = pool.Submit([&] { return queue.Pop(); });
  auto second = pool.Submit([&] { return queue.Pop(); });
  // Give the consumers time to reach the CondVar wait; the test must pass
  // for any interleaving, the sleep just makes the blocked-in-Pop path the
  // overwhelmingly common one.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Close();
  EXPECT_EQ(first.get(), std::nullopt);
  EXPECT_EQ(second.get(), std::nullopt);
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, ItemPushedBeforeCloseBeatsExhaustionForBlockedPop) {
  BoundedQueue<int> queue(4);
  ThreadPool pool(1);
  auto consumer = pool.Submit([&] { return queue.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(queue.TryPush(99));
  queue.Close();
  // The item admitted before Close is delivered, not dropped: Close drains
  // before reporting exhaustion.
  EXPECT_EQ(consumer.get(), std::optional<int>(99));
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

}  // namespace
}  // namespace dash::util
