#include "util/tokenizer.h"

#include <cctype>

#include "util/string_util.h"

namespace dash::util {

namespace {

bool IsEdgePunct(char c) {
  // Characters stripped from token edges. Interior occurrences (Bond's,
  // 4.3, 01/11) are preserved. Bytes >= 0x80 are UTF-8 lead/continuation
  // bytes of non-ASCII letters ("Café", "烤肉") and are never stripped.
  unsigned char u = static_cast<unsigned char>(c);
  return u < 0x80 && !std::isalnum(u);
}

// Returns the [begin, end) sub-range of `raw` after edge-punctuation
// stripping; empty when nothing alphanumeric remains.
std::string_view StripEdges(std::string_view raw) {
  std::size_t b = 0;
  while (b < raw.size() && IsEdgePunct(raw[b])) ++b;
  std::size_t e = raw.size();
  while (e > b && IsEdgePunct(raw[e - 1])) --e;
  return raw.substr(b, e - b);
}

template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  for (std::string_view raw : SplitWhitespace(text)) {
    std::string_view tok = StripEdges(raw);
    if (!tok.empty()) fn(tok);
  }
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  ForEachToken(text, [&out](std::string_view tok) {
    out.push_back(ToLower(tok));
  });
  return out;
}

void TokenCounter::Add(std::string_view text, std::size_t multiplier) {
  if (multiplier == 0) return;
  ForEachToken(text, [this, multiplier](std::string_view tok) {
    counts_[ToLower(tok)] += multiplier;
    total_ += multiplier;
  });
}

}  // namespace dash::util
