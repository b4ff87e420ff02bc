// The (key, value) record type flowing through the MapReduce substrate.
//
// Everything is byte strings, as in Hadoop streaming: structured rows are
// encoded with util::EncodeFields. Keeping serialization explicit is what
// lets the cluster account for the shuffle bytes that the paper's
// stepwise-vs-integrated comparison hinges on.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace dash::mr {

struct Record {
  std::string key;
  std::string value;

  std::size_t Bytes() const { return key.size() + value.size(); }

  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.value == b.value;
  }
};

using Dataset = std::vector<Record>;

inline std::size_t DatasetBytes(const Dataset& data) {
  std::size_t total = 0;
  for (const Record& r : data) total += r.Bytes();
  return total;
}

// Moves `parts` in order into one Dataset reserved to their total size,
// freeing each part as soon as its records have moved. The new buffer's
// pages become resident only as they are written, so concatenating adds
// at most one part's size to the resident set.
inline Dataset ConcatDatasets(std::vector<Dataset> parts) {
  std::size_t records = 0;
  for (const Dataset& part : parts) records += part.size();
  Dataset out;
  out.reserve(records);
  for (Dataset& part : parts) {
    for (Record& r : part) out.push_back(std::move(r));
    Dataset().swap(part);
  }
  return out;
}

}  // namespace dash::mr
