#include "measure.h"

#include <algorithm>
#include <numeric>

namespace dashbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::uint64_t BodyHash(std::string_view body) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : body) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool AnswerMatches(std::uint64_t served_hash, std::string_view expected_body) {
  return served_hash == BodyHash(expected_body);
}

std::vector<std::size_t> KeptRounds(const std::vector<double>& steal, double max_steal) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  const std::size_t half = (steal.size() + 1) / 2;
  std::size_t keep = 0;
  while (keep < order.size() && (keep < half || steal[order[keep]] <= max_steal)) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::int64_t SelfTime(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::int64_t covered = 0;
  std::int64_t cursor = span.begin;  // everything before it is counted
  for (const Interval& child : children) {
    const std::int64_t begin = std::max(child.begin, cursor);
    const std::int64_t end = std::min(child.end, span.end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return std::max<std::int64_t>(span.end - span.begin, 0) - covered;
}

}  // namespace dashbench
