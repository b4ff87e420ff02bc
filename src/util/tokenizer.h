// Keyword tokenizer used everywhere Dash turns attribute values into
// keywords (fragment indexing, page indexing, query parsing).
//
// The tokenization rule follows the paper's Example 6, which counts
// "Bond's", "Cafe", "9", "4.3", "Nice", "Coffee", "James" and "01/11" as
// eight keywords for fragment (American, 9): tokens are whitespace-separated
// words, lowercased, with punctuation stripped from the edges but kept in
// the interior (so apostrophes, decimal points and date slashes survive).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dash::util {

// Tokenizes `text` into lowercase keywords.
std::vector<std::string> Tokenize(std::string_view text);

// Accumulates `keyword -> occurrence count` over multiple texts.
class TokenCounter {
 public:
  void Add(std::string_view text, std::size_t multiplier = 1);

  // Total keyword occurrences added so far (with multipliers applied).
  std::size_t total() const { return total_; }

  const std::unordered_map<std::string, std::size_t>& counts() const {
    return counts_;
  }

 private:
  std::unordered_map<std::string, std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace dash::util
