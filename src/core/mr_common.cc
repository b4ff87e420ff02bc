#include "core/mr_common.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "util/csv.h"
#include "util/thread_pool.h"

namespace dash::core {

namespace {

using util::DecodeFields;
using util::EncodeFields;

// Repartition-join mapper: re-keys each record by its side's join value.
// Input record key is the side tag ("L"/"R"); output value keeps the tag so
// the reducer can split the group.
class JoinMapper : public mr::Mapper {
 public:
  JoinMapper(int left_col, int right_col, bool outer)
      : left_col_(left_col), right_col_(right_col), outer_(outer) {}

  void Map(const mr::Record& record, mr::Emitter& out) override {
    const bool left = record.key == "L";
    std::vector<std::string> fields = DecodeFields(record.value);
    const std::string& key =
        fields[static_cast<std::size_t>(left ? left_col_ : right_col_)];
    if (key.empty()) {
      // NULL join value: inner joins drop the row; an outer join keeps
      // NULL-keyed left rows (they group under the empty key, where no
      // right row can appear because right NULLs are always dropped).
      if (!(left && outer_)) return;
    }
    out.Emit(key, (left ? "L\t" : "R\t") + record.value);
  }

 private:
  int left_col_;
  int right_col_;
  bool outer_;
};

class JoinReducer : public mr::Reducer {
 public:
  JoinReducer(std::size_t right_width, bool outer)
      : right_width_(right_width), outer_(outer) {}

  void Reduce(const std::string& /*key*/,
              const std::vector<std::string>& values,
              mr::Emitter& out) override {
    std::vector<std::string_view> lefts, rights;
    for (const std::string& v : values) {
      std::string_view sv(v);
      if (sv.size() < 2) continue;
      std::string_view rest = sv.substr(2);
      (sv[0] == 'L' ? lefts : rights).push_back(rest);
    }
    if (rights.empty()) {
      if (!outer_) return;
      std::string padding;
      for (std::size_t i = 1; i < right_width_; ++i) padding.push_back('\t');
      for (std::string_view l : lefts) {
        out.Emit("", std::string(l) + "\t" + padding);
      }
      return;
    }
    for (std::string_view l : lefts) {
      for (std::string_view r : rights) {
        out.Emit("", std::string(l) + "\t" + std::string(r));
      }
    }
  }

 private:
  std::size_t right_width_;
  bool outer_;
};

}  // namespace

MrTable ExportTable(const db::Table& table) {
  MrTable out;
  out.schema = table.schema();
  std::vector<std::string> lines = table.ExportRows();
  out.data.reserve(lines.size());
  for (std::string& line : lines) {
    out.data.push_back(mr::Record{"", std::move(line)});
  }
  return out;
}

db::Row ParseEncodedRow(const db::Schema& schema, const std::string& value) {
  std::vector<std::string> fields = DecodeFields(value);
  if (fields.size() != schema.size()) {
    throw std::runtime_error("encoded row has " + std::to_string(fields.size()) +
                             " fields, schema expects " +
                             std::to_string(schema.size()));
  }
  db::Row row;
  row.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    row.push_back(db::Value::Parse(fields[i], schema.column(i).type));
  }
  return row;
}

std::string EncodeRow(const db::Row& row) {
  std::vector<std::string> fields;
  fields.reserve(row.size());
  for (const db::Value& v : row) fields.push_back(v.ToString());
  return EncodeFields(fields);
}

MrTable MrJoin(mr::Cluster& cluster, const std::string& job_name,
               const MrTable& left, const MrTable& right,
               const std::string& left_col, const std::string& right_col,
               sql::JoinKind kind, int num_reduce_tasks) {
  const int li = left.schema.IndexOf(left_col);
  const int ri = right.schema.IndexOf(right_col);
  const bool outer = kind == sql::JoinKind::kLeftOuter;

  mr::Dataset input;
  input.reserve(left.data.size() + right.data.size());
  for (const mr::Record& r : left.data) input.push_back({"L", r.value});
  for (const mr::Record& r : right.data) input.push_back({"R", r.value});

  mr::JobConfig job;
  job.name = job_name;
  job.num_reduce_tasks = num_reduce_tasks;

  MrTable out;
  out.schema = db::Schema::Concat(left.schema, right.schema);
  const std::size_t right_width = right.schema.size();
  out.data = cluster.Run(
      job, std::move(input),
      [li, ri, outer] { return std::make_unique<JoinMapper>(li, ri, outer); },
      [right_width, outer] {
        return std::make_unique<JoinReducer>(right_width, outer);
      });
  return out;
}

MrTable MrJoinTree(mr::Cluster& cluster, const db::Database& db,
                   const sql::JoinNode& node,
                   const std::function<MrTable(const std::string&)>& leaf,
                   int num_reduce_tasks, const std::string& job_prefix) {
  if (node.IsLeaf()) return leaf(node.relation);
  MrTable left =
      MrJoinTree(cluster, db, *node.left, leaf, num_reduce_tasks, job_prefix);
  MrTable right =
      MrJoinTree(cluster, db, *node.right, leaf, num_reduce_tasks, job_prefix);
  std::string on_left = node.on_left, on_right = node.on_right;
  if (on_left.empty()) {
    std::tie(on_left, on_right) =
        db::FindJoinColumns(db, left.schema, right.schema);
  }
  std::string name = job_prefix + "join(" + on_left + "=" + on_right + ")";
  return MrJoin(cluster, name, left, right, on_left, on_right, node.kind,
                num_reduce_tasks);
}

void InvertedListReducer::Reduce(const std::string& keyword,
                                 const std::vector<std::string>& values,
                                 mr::Emitter& out) {
  std::map<std::string, std::uint64_t> per_fragment;
  for (const std::string& v : values) {
    std::vector<std::string> parts = DecodeFields(v);
    per_fragment[parts[0]] += std::stoull(parts[1]);
  }
  std::vector<std::pair<std::string, std::uint64_t>> sorted(
      per_fragment.begin(), per_fragment.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> list;
  list.reserve(sorted.size() * 2);
  for (const auto& [frag, occ] : sorted) {
    list.push_back(frag);
    list.push_back(std::to_string(occ));
  }
  out.Emit(keyword, EncodeFields(list));
}

void PostingCombiner::Reduce(const std::string& keyword,
                             const std::vector<std::string>& values,
                             mr::Emitter& out) {
  std::map<std::string, std::uint64_t> per_fragment;
  for (const std::string& v : values) {
    std::vector<std::string> parts = DecodeFields(v);
    per_fragment[parts[0]] += std::stoull(parts[1]);
  }
  for (const auto& [frag, occ] : per_fragment) {
    out.Emit(keyword, EncodeFields(std::vector<std::string>{
                          frag, std::to_string(occ)}));
  }
}

void ConsumeInvertedLists(const mr::Dataset& lists,
                          const db::Schema& sel_schema,
                          FragmentIndexBuild* build) {
  for (const mr::Record& r : lists) {
    std::vector<std::string> list = DecodeFields(r.value);
    for (std::size_t i = 0; i + 1 < list.size(); i += 2) {
      db::Row id = ParseEncodedRow(sel_schema, list[i]);
      auto handle = build->catalog.Find(id);
      if (!handle.has_value()) {
        throw std::runtime_error("inverted list references uncataloged fragment " +
                                 FragmentIdToString(id));
      }
      build->index.AddOccurrences(
          r.key, *handle, static_cast<std::uint32_t>(std::stoull(list[i + 1])));
    }
  }
}

void FinalizeBuild(FragmentIndexBuild* build) {
  build->index.Finalize(&build->catalog, &util::ThreadPool::Shared());
  std::vector<FragmentHandle> mapping = build->catalog.Canonicalize();
  build->index.RemapFragments(mapping);
}

CrawlPhase SnapshotPhase(const mr::Cluster& cluster, std::size_t begin,
                         std::string name) {
  // history() returns a snapshot by value (the live vector is guarded by
  // the cluster's mutex); take it once — mixing begin()/end() from two
  // separate calls would pair iterators of different temporaries.
  std::vector<mr::JobMetrics> history = cluster.history();
  std::vector<mr::JobMetrics> jobs(
      history.begin() + static_cast<std::ptrdiff_t>(begin), history.end());
  CrawlPhase phase;
  phase.metrics = mr::SumMetrics(jobs, name);
  phase.name = std::move(name);
  return phase;
}

}  // namespace dash::core
