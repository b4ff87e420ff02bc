#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/mr_crawl.h"
#include "util/csv.h"
#include "util/tokenizer.h"

namespace dash::core {

namespace {

using util::DecodeFields;
using util::EncodeFields;

// ---------------------------------------------------------------------
// INT step (1): per-relation aggregation — the paper's "aggregate query"
//   G_{ci, ji} count(*) as theta_i (Ri)
// Rows whose selection attributes are NULL are dropped (they can belong to
// no db-page; see GroupMapper in mr_stepwise.cc).
// ---------------------------------------------------------------------

class AggregateMapper : public mr::Mapper {
 public:
  AggregateMapper(std::vector<int> group_idx, std::vector<int> sel_idx)
      : group_idx_(std::move(group_idx)), sel_idx_(std::move(sel_idx)) {}

  void Map(const mr::Record& record, mr::Emitter& out) override {
    std::vector<std::string> fields = DecodeFields(record.value);
    for (int i : sel_idx_) {
      if (fields[static_cast<std::size_t>(i)].empty()) return;  // NULL
    }
    std::vector<std::string_view> key;
    key.reserve(group_idx_.size());
    for (int i : group_idx_) key.push_back(fields[static_cast<std::size_t>(i)]);
    out.Emit(EncodeFields(key), "1");
  }

 private:
  std::vector<int> group_idx_;
  std::vector<int> sel_idx_;
};

// Used both as combiner and reducer: sums partial counts per group key.
// As a combiner it re-emits (key, partial sum); the final reducer appends
// theta to the group fields as a full output row.
class CountCombiner : public mr::Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              mr::Emitter& out) override {
    std::uint64_t total = 0;
    for (const std::string& v : values) total += std::stoull(v);
    out.Emit(key, std::to_string(total));
  }
};

class CountReducer : public mr::Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              mr::Emitter& out) override {
    std::uint64_t total = 0;
    for (const std::string& v : values) total += std::stoull(v);
    std::vector<std::string> fields = DecodeFields(key);
    fields.push_back(std::to_string(total));
    out.Emit("", EncodeFields(fields));
  }
};

// ---------------------------------------------------------------------
// INT step (2): keyword extraction — the "project query"
//   pi_{ai, c1..cn, Theta_i} (R |x|_{ci,ji} Ri)
// Repartition join of the combined parameter relation R (tag "R") with the
// full relation Ri (tag "T") on Ri's group key. For every matched pair the
// reducer multiplies Ri's keyword occurrences by the replication factor
// Theta_i = prod_{x != i} max(theta_x, 1).
// ---------------------------------------------------------------------

class ExtractMapper : public mr::Mapper {
 public:
  struct RSideSpec {
    std::vector<int> group_idx;  // Ri's group columns, located in R's schema
    std::vector<int> frag_idx;   // selection columns (canonical), in R
    std::vector<int> theta_idx;  // all relations' theta columns, in R
    int own_theta_idx = 0;       // Ri's theta column, in R
  };
  struct TSideSpec {
    std::vector<int> group_idx;  // Ri's group columns, in Ri
    std::vector<int> proj_idx;   // Ri's projection columns, in Ri
    std::vector<int> sel_idx;    // Ri's own selection columns, in Ri
  };

  ExtractMapper(RSideSpec r, TSideSpec t) : r_(std::move(r)), t_(std::move(t)) {}

  void Map(const mr::Record& record, mr::Emitter& out) override {
    std::vector<std::string> fields = DecodeFields(record.value);
    if (record.key == "R") {
      // Relation i contributed nothing to this parameter combination
      // (outer-join padding): no keywords to replicate.
      const std::string& own_theta =
          fields[static_cast<std::size_t>(r_.own_theta_idx)];
      if (own_theta.empty() || own_theta == "0") return;
      // NULL selection values => fragment unreachable by any query string.
      for (int i : r_.frag_idx) {
        if (fields[static_cast<std::size_t>(i)].empty()) return;
      }
      std::uint64_t theta_product = 1;
      for (int i : r_.theta_idx) {
        const std::string& t = fields[static_cast<std::size_t>(i)];
        std::uint64_t v = t.empty() ? 0 : std::stoull(t);
        theta_product *= std::max<std::uint64_t>(v, 1);
      }
      std::uint64_t big_theta =
          theta_product / std::max<std::uint64_t>(std::stoull(own_theta), 1);

      std::vector<std::string_view> group, frag;
      for (int i : r_.group_idx) group.push_back(fields[static_cast<std::size_t>(i)]);
      for (int i : r_.frag_idx) frag.push_back(fields[static_cast<std::size_t>(i)]);
      out.Emit(EncodeFields(group),
               "R\t" + EncodeFields(std::vector<std::string>{
                           EncodeFields(frag), std::to_string(big_theta)}));
      return;
    }
    // T side: one full record of Ri.
    for (int i : t_.sel_idx) {
      if (fields[static_cast<std::size_t>(i)].empty()) return;  // NULL
    }
    std::vector<std::string_view> group, proj;
    for (int i : t_.group_idx) group.push_back(fields[static_cast<std::size_t>(i)]);
    for (int i : t_.proj_idx) proj.push_back(fields[static_cast<std::size_t>(i)]);
    out.Emit(EncodeFields(group), "T\t" + EncodeFields(proj));
  }

 private:
  RSideSpec r_;
  TSideSpec t_;
};

class ExtractReducer : public mr::Reducer {
 public:
  void Reduce(const std::string& /*key*/,
              const std::vector<std::string>& values,
              mr::Emitter& out) override {
    // Split the co-group. R entries: (encoded fragment key, Theta);
    // T entries: projection text of one Ri record.
    std::vector<std::pair<std::string, std::uint64_t>> fragments;
    std::vector<std::string_view> texts;
    for (const std::string& v : values) {
      std::string_view sv(v);
      if (sv.size() < 2) continue;
      if (sv[0] == 'R') {
        std::vector<std::string> parts = DecodeFields(sv.substr(2));
        fragments.emplace_back(std::move(parts[0]), std::stoull(parts[1]));
      } else {
        texts.push_back(sv.substr(2));
      }
    }
    if (fragments.empty() || texts.empty()) return;
    // Consolidate within the co-group before emitting: several records of
    // Ri (and several parameter combinations) often hit the same
    // (keyword, fragment) pair.
    std::map<std::pair<std::string, std::string>, std::uint64_t> acc;
    for (std::string_view text : texts) {
      util::TokenCounter counter;
      for (const std::string& field : DecodeFields(text)) counter.Add(field);
      for (const auto& [frag, theta] : fragments) {
        for (const auto& [keyword, count] : counter.counts()) {
          acc[{keyword, frag}] += count * theta;
        }
      }
    }
    for (const auto& [key, occ] : acc) {
      out.Emit(key.first, EncodeFields(std::vector<std::string>{
                              key.second, std::to_string(occ)}));
    }
  }
};

// Column bookkeeping for one operand relation.
struct RelationSpec {
  std::string name;
  std::vector<std::string> group_cols;  // selection + join columns, deduped
  std::vector<std::string> sel_cols;    // own selection columns
  std::vector<std::string> proj_cols;   // own projection columns
};

}  // namespace

CrawlResult IntegratedCrawl(mr::Cluster& cluster, const db::Database& db,
                            const sql::PsjQuery& query,
                            const CrawlOptions& options) {
  Crawler resolver(db, query);
  CrawlResult result;

  // ---- Plan: assign selection / join / projection columns per relation.
  std::vector<std::string> all_join_cols;
  for (const auto& [left, right] :
       ResolvedJoinEdges(db, *resolver.query().from)) {
    all_join_cols.push_back(left);
    all_join_cols.push_back(right);
  }

  std::vector<RelationSpec> specs;
  for (const std::string& rel : resolver.query().Relations()) {
    RelationSpec spec;
    spec.name = rel;
    const db::Schema& schema = db.table(rel).schema();
    auto owns = [&schema](const std::string& qualified) {
      return schema.Find(qualified).has_value();
    };
    auto add_unique = [](std::vector<std::string>& v, const std::string& c) {
      if (std::find(v.begin(), v.end(), c) == v.end()) v.push_back(c);
    };
    for (const std::string& c : resolver.selection_columns()) {
      if (owns(c)) {
        add_unique(spec.group_cols, c);
        spec.sel_cols.push_back(c);
      }
    }
    for (const std::string& c : all_join_cols) {
      if (owns(c)) add_unique(spec.group_cols, c);
    }
    for (const std::string& c : resolver.projection_columns()) {
      if (owns(c)) spec.proj_cols.push_back(c);
    }
    specs.push_back(std::move(spec));
  }

  // ---- Phase INT-Jn: aggregate each relation, then join the compact
  // parameter tuples along the same join tree.
  std::size_t mark = cluster.history().size();
  std::map<std::string, MrTable> compact;
  for (const RelationSpec& spec : specs) {
    const db::Table& table = db.table(spec.name);
    MrTable input = ExportTable(table);
    std::vector<int> group_idx, sel_idx;
    db::Schema out_schema;
    for (const std::string& c : spec.group_cols) {
      int i = input.schema.IndexOf(c);
      group_idx.push_back(i);
      out_schema.AddColumn(input.schema.column(static_cast<std::size_t>(i)));
    }
    for (const std::string& c : spec.sel_cols) {
      sel_idx.push_back(input.schema.IndexOf(c));
    }
    out_schema.AddColumn(
        db::Column{spec.name, "__theta", db::ValueType::kInt});

    mr::JobConfig job;
    job.name = "INT-aggregate(" + spec.name + ")";
    job.num_reduce_tasks = options.num_reduce_tasks;
    MrTable agg;
    agg.schema = std::move(out_schema);
    agg.data = cluster.Run(
        job, std::move(input.data),
        [&group_idx, &sel_idx] {
          return std::make_unique<AggregateMapper>(group_idx, sel_idx);
        },
        [] { return std::make_unique<CountReducer>(); },
        [] { return std::make_unique<CountCombiner>(); });
    compact.emplace(spec.name, std::move(agg));
  }

  MrTable parameter_relation = MrJoinTree(
      cluster, db, *resolver.query().from,
      [&compact](const std::string& rel) { return compact.at(rel); },
      options.num_reduce_tasks, "INT-");
  result.phases.push_back(SnapshotPhase(cluster, mark, "INT-Jn"));

  const db::Schema& r_schema = parameter_relation.schema;
  std::vector<int> frag_idx_in_r, theta_idx_in_r;
  for (const std::string& c : resolver.selection_columns()) {
    frag_idx_in_r.push_back(r_schema.IndexOf(c));
  }
  for (const RelationSpec& spec : specs) {
    theta_idx_in_r.push_back(r_schema.IndexOf(spec.name + ".__theta"));
  }
  db::Schema sel_schema;
  for (int i : frag_idx_in_r) {
    sel_schema.AddColumn(r_schema.column(static_cast<std::size_t>(i)));
  }

  // ---- Phase INT-Ext: per relation, join its text against R and emit
  // keyword occurrences replicated by Theta_i.
  mark = cluster.history().size();
  std::vector<mr::Dataset> extracted;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const RelationSpec& spec = specs[s];
    if (spec.proj_cols.empty()) continue;

    ExtractMapper::RSideSpec rspec;
    for (const std::string& c : spec.group_cols) {
      rspec.group_idx.push_back(r_schema.IndexOf(c));
    }
    rspec.frag_idx = frag_idx_in_r;
    rspec.theta_idx = theta_idx_in_r;
    rspec.own_theta_idx = theta_idx_in_r[s];

    const db::Table& table = db.table(spec.name);
    ExtractMapper::TSideSpec tspec;
    for (const std::string& c : spec.group_cols) {
      tspec.group_idx.push_back(table.schema().IndexOf(c));
    }
    for (const std::string& c : spec.proj_cols) {
      tspec.proj_idx.push_back(table.schema().IndexOf(c));
    }
    for (const std::string& c : spec.sel_cols) {
      tspec.sel_idx.push_back(table.schema().IndexOf(c));
    }

    mr::Dataset input;
    input.reserve(parameter_relation.data.size() + table.row_count());
    for (const mr::Record& r : parameter_relation.data) {
      input.push_back({"R", r.value});
    }
    for (std::string& line : table.ExportRows()) {
      input.push_back({"T", std::move(line)});
    }

    mr::JobConfig job;
    job.name = "INT-extract(" + spec.name + ")";
    job.num_reduce_tasks = options.num_reduce_tasks;
    extracted.push_back(cluster.Run(
        job, std::move(input),
        [&rspec, &tspec] {
          return std::make_unique<ExtractMapper>(rspec, tspec);
        },
        [] { return std::make_unique<ExtractReducer>(); }));
  }
  result.phases.push_back(SnapshotPhase(cluster, mark, "INT-Ext"));

  // ---- Phase INT-Cnsd: consolidate per-keyword occurrence lists. ----
  mark = cluster.history().size();
  mr::JobConfig job;
  job.name = "INT-consolidate";
  job.num_reduce_tasks = options.num_reduce_tasks;
  mr::Dataset inverted = cluster.Run(
      job, mr::ConcatDatasets(std::move(extracted)),
      [] { return std::make_unique<mr::IdentityMapper>(); },
      [] { return std::make_unique<InvertedListReducer>(); },
      [] { return std::make_unique<PostingCombiner>(); });
  result.phases.push_back(SnapshotPhase(cluster, mark, "INT-Cnsd"));

  // ---- Consume: catalog fragments from R, postings from the final lists.
  for (const mr::Record& r : parameter_relation.data) {
    std::vector<std::string> fields = DecodeFields(r.value);
    db::Row id;
    bool null_id = false;
    id.reserve(frag_idx_in_r.size());
    for (std::size_t i = 0; i < frag_idx_in_r.size(); ++i) {
      const std::string& f =
          fields[static_cast<std::size_t>(frag_idx_in_r[i])];
      if (f.empty()) {
        null_id = true;
        break;
      }
      id.push_back(db::Value::Parse(f, sel_schema.column(i).type));
    }
    if (!null_id) result.build.catalog.Intern(id);
  }
  ConsumeInvertedLists(inverted, sel_schema, &result.build);
  FinalizeBuild(&result.build);
  return result;
}

}  // namespace dash::core
