#include <map>
#include <memory>

#include "core/mr_crawl.h"
#include "util/csv.h"
#include "util/tokenizer.h"

namespace dash::core {

namespace {

using util::DecodeFields;
using util::EncodeFields;

// SW-Grp: re-keys each joined record by its selection-attribute values.
// Records with a NULL selection value are dropped: no query string can ever
// select them (every comparison against NULL fails), so they belong to no
// db-page.
class GroupMapper : public mr::Mapper {
 public:
  GroupMapper(std::vector<int> sel_idx, std::vector<int> proj_idx)
      : sel_idx_(std::move(sel_idx)), proj_idx_(std::move(proj_idx)) {}

  void Map(const mr::Record& record, mr::Emitter& out) override {
    std::vector<std::string> fields = DecodeFields(record.value);
    std::vector<std::string_view> key, value;
    key.reserve(sel_idx_.size());
    for (int i : sel_idx_) {
      std::string_view f = fields[static_cast<std::size_t>(i)];
      if (f.empty()) return;  // NULL selection value
      key.push_back(f);
    }
    value.reserve(proj_idx_.size());
    for (int i : proj_idx_) value.push_back(fields[static_cast<std::size_t>(i)]);
    out.Emit(EncodeFields(key), EncodeFields(value));
  }

 private:
  std::vector<int> sel_idx_;
  std::vector<int> proj_idx_;
};

// SW-Idx map side: treats one grouped record as part of the fragment
// "document" and emits (keyword, (fragment key, occurrences-in-record)).
class IndexMapper : public mr::Mapper {
 public:
  void Map(const mr::Record& record, mr::Emitter& out) override {
    util::TokenCounter counter;
    for (const std::string& field : DecodeFields(record.value)) {
      counter.Add(field);
    }
    for (const auto& [keyword, count] : counter.counts()) {
      out.Emit(keyword, EncodeFields(std::vector<std::string_view>{
                            record.key, std::to_string(count)}));
    }
  }
};

}  // namespace

double CrawlResult::TotalWallSec() const {
  double total = 0;
  for (const CrawlPhase& p : phases) total += p.metrics.TotalWallSec();
  return total;
}

double CrawlResult::ModeledSec(const mr::CostModel& cost) const {
  double total = 0;
  for (const CrawlPhase& p : phases) total += p.metrics.ModeledSec(cost);
  return total;
}

CrawlResult StepwiseCrawl(mr::Cluster& cluster, const db::Database& db,
                          const sql::PsjQuery& query,
                          const CrawlOptions& options) {
  // Resolve selection/projection columns (and validate the query) the same
  // way the reference crawler does.
  Crawler resolver(db, query);
  CrawlResult result;

  // ---- Phase SW-Jn: evaluate the crawling query's joins. ----
  std::size_t mark = cluster.history().size();
  MrTable joined = MrJoinTree(
      cluster, db, *resolver.query().from,
      [&db](const std::string& rel) { return ExportTable(db.table(rel)); },
      options.num_reduce_tasks, "SW-");
  result.phases.push_back(SnapshotPhase(cluster, mark, "SW-Jn"));

  std::vector<int> sel_idx, proj_idx;
  for (const std::string& c : resolver.selection_columns()) {
    sel_idx.push_back(joined.schema.IndexOf(c));
  }
  for (const std::string& c : resolver.projection_columns()) {
    proj_idx.push_back(joined.schema.IndexOf(c));
  }
  // Selection-key schema, for parsing fragment identifiers back to values.
  db::Schema sel_schema;
  for (int i : sel_idx) {
    sel_schema.AddColumn(joined.schema.column(static_cast<std::size_t>(i)));
  }

  // ---- Phase SW-Grp: group joined records into fragments. ----
  mark = cluster.history().size();
  mr::JobConfig group_job;
  group_job.name = "SW-group";
  group_job.num_reduce_tasks = options.num_reduce_tasks;
  mr::Dataset grouped = cluster.Run(
      group_job, std::move(joined.data),
      [&sel_idx, &proj_idx] {
        return std::make_unique<GroupMapper>(sel_idx, proj_idx);
      },
      [] { return std::make_unique<mr::IdentityReducer>(); });
  result.phases.push_back(SnapshotPhase(cluster, mark, "SW-Grp"));

  // Fragments come from the group output so that keyword-less fragments
  // (all-empty projection text) are still cataloged. Intern them before
  // SW-Idx consumes the group output.
  for (const mr::Record& r : grouped) {
    result.build.catalog.Intern(ParseEncodedRow(sel_schema, r.key));
  }

  // ---- Phase SW-Idx: build the inverted fragment index. ----
  mark = cluster.history().size();
  mr::JobConfig index_job;
  index_job.name = "SW-index";
  index_job.num_reduce_tasks = options.num_reduce_tasks;
  mr::Dataset inverted = cluster.Run(
      index_job, std::move(grouped),
      [] { return std::make_unique<IndexMapper>(); },
      [] { return std::make_unique<InvertedListReducer>(); },
      [] { return std::make_unique<PostingCombiner>(); });
  result.phases.push_back(SnapshotPhase(cluster, mark, "SW-Idx"));

  // ---- Consume MR output into the in-memory index. ----
  ConsumeInvertedLists(inverted, sel_schema, &result.build);
  FinalizeBuild(&result.build);
  return result;
}

}  // namespace dash::core
