// The benchmark's own arithmetic: percentiles, answer hashes, span self
// time. Pure functions, each covered by tests/selftest.cc.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace dashbench {

// A failed operation's latency: it counts as infinitely late, so failures
// raise a percentile instead of dropping out of the sample.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

// The percentile rule of dash_loadgen: the smallest sample with at least
// ceil(q*n) samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);

// What the benchmark keeps of a response body: its 64-bit FNV-1a hash.
// Any one-byte substitution changes it (every FNV-1a step is a bijection).
std::uint64_t BodyHash(std::string_view body);

// The answer check: a served body, kept as its hash, against the expected
// rendering (SearchService::RenderResults of the in-process answer).
bool AnswerMatches(std::uint64_t served_hash, std::string_view expected_body);

// The rounds the end-to-end figures are taken over, in round order: every
// round in which the hypervisor took at most `max_steal` of the machine's
// CPU time (steal[r] is round r's share), and never fewer than half of
// them — when too few qualify, the half with the least steal, earlier
// rounds first on ties.
std::vector<std::size_t> KeptRounds(const std::vector<double>& steal, double max_steal);

// A half-open interval on one clock, in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// Self time: the span's duration minus the part of it covered by the
// union of its children (clipped to the span).
std::int64_t SelfTime(Interval span, std::vector<Interval> children);

}  // namespace dashbench
