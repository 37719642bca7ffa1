#include "db/migrator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <set>

#include "common/json_builder.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/column_learner.h"
#include "core/node_extractor_enum.h"
#include "dsl/eval.h"
#include "obs/metrics.h"

namespace mitra::db {

namespace {

/// Streams length-framed byte fields through two independently-seeded FNV
/// states; the concatenated hex digests form the 128-bit cache key.
class KeyHasher {
 public:
  void Bytes(std::string_view s) {
    Int(s.size());
    h1_ = Fnv1a64(s.data(), s.size(), h1_);
    h2_ = Fnv1a64(s.data(), s.size(), h2_);
  }
  void Int(std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, sizeof(buf));
    h1_ = Fnv1a64(buf, sizeof(buf), h1_);
    h2_ = Fnv1a64(buf, sizeof(buf), h2_);
  }
  std::string Hex() const {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(h1_),
                  static_cast<unsigned long long>(h2_));
    return buf;
  }

 private:
  std::uint64_t h1_ = 1469598103934665603ULL;
  std::uint64_t h2_ = 0x2f72c98b0a5a37b1ULL;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The strict entry points' verdict on a tolerant run: the first table
/// (schema order) not migrated at full budgets decides. A failed or
/// skipped table carries its own decisive Status; a degraded or fallback
/// program is an error too, since the strict calls promise full-budget
/// programs only.
Status StrictStatus(const MigrationReport& report) {
  for (const TableReport& t : report.tables) {
    if (t.outcome == TableOutcome::kOk) continue;
    if (!t.live()) return t.status;
    std::string why = "table " + t.table + " was learned only on ladder rung " +
                      std::to_string(t.rung) + " (" +
                      TableOutcomeName(t.outcome) + ")";
    if (!t.retry_trail.empty()) why += ": " + t.retry_trail.front();
    return Status::SynthesisFailure(why);
  }
  return Status::OK();
}

/// A learned program's node tuples on its example, from the executor that
/// migrates, under the learn-time row cap and the attempt's governor.
Result<std::vector<dsl::NodeTuple>> ExampleTuples(const hdt::Hdt& tree,
                                                  const dsl::Program& p,
                                                  const dsl::EvalOptions& eval,
                                                  common::Governor* gov) {
  core::ExecuteOptions exec;
  exec.max_output_rows = eval.max_intermediate_tuples;
  exec.governor = gov;
  return core::OptimizedExecutor(p).ExecuteNodes(tree, exec);
}

}  // namespace

std::string ProgramCacheKey(const hdt::Hdt& tree, const hdt::Table& example) {
  KeyHasher h;
  h.Bytes(dsl::kDslVersion);
  // Tree structure + data. Node ids are assigned in construction order by
  // the parsers, so two textually-equal documents hash identically; the
  // parent/flags framing makes structurally different trees collide only
  // by genuine 128-bit accident (and hits are re-verified anyway).
  h.Int(tree.size());
  for (hdt::NodeId id = 0; id < static_cast<hdt::NodeId>(tree.size()); ++id) {
    const hdt::Node& n = tree.node(id);
    h.Bytes(tree.NodeTagName(id));
    h.Int(static_cast<std::uint64_t>(n.parent + 1));
    h.Int(static_cast<std::uint64_t>(n.pos));
    h.Int((n.has_data ? 1u : 0u) | (n.is_attribute ? 2u : 0u) |
          (n.is_text_run ? 4u : 0u));
    if (n.has_data) h.Bytes(n.data);
  }
  // Expected table (row order matters for neither synthesis nor
  // verification, but hashing it verbatim is simplest and examples are
  // authored once).
  h.Int(example.NumCols());
  h.Int(example.NumRows());
  for (const hdt::Row& row : example.rows()) {
    for (const std::string& cell : row) h.Bytes(cell);
  }
  return h.Hex();
}

std::string KeyOf(int doc_index, const dsl::NodeTuple& nodes) {
  std::string key = std::to_string(doc_index);
  for (hdt::NodeId n : nodes) {
    key += '-';
    key += std::to_string(n);
  }
  return key;
}

Status Migrator::Learn(
    hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  MITRA_ASSIGN_OR_RETURN(MigrationReport report,
                         LearnTolerant(example_tree, table_examples, opts));
  return StrictStatus(report);
}

Status Migrator::LearnForeignKeysForTable(const TableDef& t,
                                          const hdt::Hdt& tree,
                                          const MigratorOptions& opts,
                                          common::Governor* gov) {
  const auto& rows = example_tuples_.at(t.name);
  const size_t num_rows = rows.size();
  const size_t k = t.NumDataColumns();

  for (size_t c = 0; c < t.columns.size(); ++c) {
    if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
    const std::string& ref_name = t.columns[c].references;
    const auto& ref_rows = example_tuples_.at(ref_name);
    const size_t m = ref_rows[0].size();

    // Candidates per referenced-tuple component j: a (source column,
    // extractor) whose image on every T row equals component j of some
    // T' row; `compat[r]` records which T' rows match.
    struct FkCandidate {
      int source_col;
      dsl::NodeExtractor extractor;
      std::vector<std::vector<int>> compat;  // per row: T' row indices
    };
    std::vector<std::vector<FkCandidate>> candidates(m);

    core::NodeExtractorEnumOptions ne;
    ne.max_depth = opts.fk_max_depth;
    ne.governor = gov;
    for (size_t tj = 0; tj < k; ++tj) {
      MITRA_GOV_CHECK(gov, "fk/enumerate");
      std::vector<hdt::NodeId> sources;
      sources.reserve(num_rows);
      for (const dsl::NodeTuple& row : rows) {
        sources.push_back(row[tj]);
      }
      auto enumerated = core::EnumerateNodeExtractorsFromSources(
          {&tree}, {sources}, ne);
      if (!enumerated.ok()) return enumerated.status();
      for (const core::EnumeratedExtractor& ee : *enumerated) {
        for (size_t j = 0; j < m; ++j) {
          std::vector<std::vector<int>> compat(num_rows);
          bool ok = true;
          for (size_t r = 0; r < num_rows && ok; ++r) {
            hdt::NodeId target = ee.targets[0][r];
            for (size_t s = 0; s < ref_rows.size(); ++s) {
              if (ref_rows[s][j] == target) {
                compat[r].push_back(static_cast<int>(s));
              }
            }
            ok = !compat[r].empty();
          }
          if (ok) {
            candidates[j].push_back(FkCandidate{
                static_cast<int>(tj), ee.extractor, std::move(compat)});
          }
        }
      }
    }

    // DFS over components: the selected extractors must agree on one
    // referenced row per T row.
    ForeignKeyPlan plan;
    std::vector<std::set<int>> live(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t s = 0; s < ref_rows.size(); ++s) {
        live[r].insert(static_cast<int>(s));
      }
    }
    bool found = false;
    std::function<void(size_t, std::vector<std::set<int>>)> dfs =
        [&](size_t j, std::vector<std::set<int>> state) {
          if (found) return;
          if (j == m) {
            found = true;
            return;
          }
          for (const FkCandidate& cand : candidates[j]) {
            std::vector<std::set<int>> next(num_rows);
            bool ok = true;
            for (size_t r = 0; r < num_rows && ok; ++r) {
              for (int s : cand.compat[r]) {
                if (state[r].count(s)) next[r].insert(s);
              }
              ok = !next[r].empty();
            }
            if (!ok) continue;
            plan.source_cols.push_back(cand.source_col);
            plan.extractors.push_back(cand.extractor);
            dfs(j + 1, std::move(next));
            if (found) return;
            plan.source_cols.pop_back();
            plan.extractors.pop_back();
          }
        };
    dfs(0, std::move(live));
    if (!found) {
      // A tripped governor outranks the generic failure: the search
      // was truncated, not proven fruitless.
      if (gov != nullptr && gov->token()->cancelled()) {
        return gov->token()->cause();
      }
      return Status::SynthesisFailure(
          "could not learn foreign-key extractors for " + t.name + "." +
          t.columns[c].name + " → " + ref_name);
    }
    fk_plans_[t.name][c] = std::move(plan);
  }
  return Status::OK();
}

Result<hdt::Table> Migrator::BuildTable(
    const TableDef& t, const hdt::Hdt& doc, int doc_index,
    const core::ExecuteOptions& exec_opts) const {
  core::OptimizedExecutor exec(programs_.at(t.name));
  MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                         exec.ExecuteNodes(doc, exec_opts));

  std::vector<std::string> names;
  names.reserve(t.columns.size());
  for (const ColumnDef& c : t.columns) names.push_back(c.name);
  hdt::Table out(names);

  auto fk_it = fk_plans_.find(t.name);
  for (const dsl::NodeTuple& tuple : tuples) {
    hdt::Row row;
    row.reserve(t.columns.size());
    size_t data_idx = 0;
    for (size_t c = 0; c < t.columns.size(); ++c) {
      switch (t.columns[c].kind) {
        case ColumnKind::kData:
          row.emplace_back(doc.Data(tuple[data_idx++]));
          break;
        case ColumnKind::kPrimaryKey:
          row.push_back(KeyOf(doc_index, tuple));
          break;
        case ColumnKind::kForeignKey: {
          const ForeignKeyPlan& plan = fk_it->second.at(c);
          dsl::NodeTuple ref_tuple;
          ref_tuple.reserve(plan.extractors.size());
          for (size_t j = 0; j < plan.extractors.size(); ++j) {
            hdt::NodeId n = dsl::EvalNodeExtractor(
                doc, plan.extractors[j],
                tuple[static_cast<size_t>(plan.source_cols[j])]);
            if (n == hdt::kInvalidNode) {
              return Status::InvalidArgument(
                  "foreign-key extractor for " + t.name + "." +
                  t.columns[c].name + " failed (⊥) on the full document");
            }
            ref_tuple.push_back(n);
          }
          row.push_back(KeyOf(doc_index, ref_tuple));
          break;
        }
      }
    }
    MITRA_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Status Migrator::InstallLearnedProgram(const std::string& table,
                                       dsl::Program program) {
  const TableDef* def = nullptr;
  for (const TableDef& t : schema_.tables) {
    if (t.name == table) {
      def = &t;
      break;
    }
  }
  if (def == nullptr) {
    return Status::InvalidArgument("InstallLearnedProgram: table '" + table +
                                   "' not in schema");
  }
  for (const ColumnDef& c : def->columns) {
    if (c.kind == ColumnKind::kForeignKey) {
      return Status::InvalidArgument(
          "InstallLearnedProgram: table '" + table +
          "' has foreign-key columns; FK plans cannot be installed");
    }
  }
  programs_[table] = std::move(program);
  return Status::OK();
}

Result<Database> Migrator::Execute(hdt::Hdt& doc, int doc_index,
                                   const MigratorOptions& opts) const {
  MigratorOptions one = opts;
  one.doc_index_base = doc_index;
  return ExecuteAll({&doc}, one);
}

Result<Database> Migrator::ExecuteAll(const std::vector<hdt::Hdt*>& docs,
                                      const MigratorOptions& opts) const {
  MigrationReport report;
  Database db = ExecuteTolerant(docs, &report, opts);
  MITRA_RETURN_IF_ERROR(StrictStatus(report));
  return db;
}

// ---------------------------------------------------------------------------
// Fault-tolerant migration: per-table isolation + degradation ladder.
// ---------------------------------------------------------------------------

const char* TableOutcomeName(TableOutcome outcome) {
  switch (outcome) {
    case TableOutcome::kOk:
      return "ok";
    case TableOutcome::kDegraded:
      return "degraded";
    case TableOutcome::kFallback:
      return "fallback";
    case TableOutcome::kFailed:
      return "failed";
    case TableOutcome::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool MigrationReport::complete() const {
  for (const TableReport& t : tables) {
    if (t.outcome != TableOutcome::kOk) return false;
  }
  return true;
}

size_t MigrationReport::num_failed() const {
  size_t n = 0;
  for (const TableReport& t : tables) {
    if (!t.live()) ++n;
  }
  return n;
}

TableReport* MigrationReport::Find(const std::string& table) {
  for (TableReport& t : tables) {
    if (t.table == table) return &t;
  }
  return nullptr;
}

const TableReport* MigrationReport::Find(const std::string& table) const {
  for (const TableReport& t : tables) {
    if (t.table == table) return &t;
  }
  return nullptr;
}

namespace {

/// The ladder's rung-1 option set: the same search, under per-phase caps
/// shrunk far enough that a table which blew its full budget usually
/// terminates (with a simpler program or a clean failure) instead of
/// timing out again.
core::SynthesisOptions ReducedSynthesisOptions(core::SynthesisOptions s) {
  s.max_table_extractors = std::max<size_t>(1, s.max_table_extractors / 4);
  s.max_consistent_programs = 1;
  s.column.dfa.max_states =
      std::max<size_t>(1'000, s.column.dfa.max_states / 4);
  s.column.enumerate.max_programs =
      std::max<size_t>(4, s.column.enumerate.max_programs / 2);
  s.column.enumerate.max_expansions =
      std::max<uint64_t>(10'000, s.column.enumerate.max_expansions / 4);
  s.predicate.universe.max_atoms =
      std::max<size_t>(256, s.predicate.universe.max_atoms / 8);
  s.predicate.universe.max_extractors_per_column =
      std::max<size_t>(8, s.predicate.universe.max_extractors_per_column / 2);
  s.predicate.universe.max_constants =
      std::max<size_t>(8, s.predicate.universe.max_constants / 2);
  s.predicate.eval.max_intermediate_tuples = std::max<uint64_t>(
      100'000, s.predicate.eval.max_intermediate_tuples / 10);
  return s;
}

}  // namespace

std::string MigrationReport::ToJson() const {
  JsonBuilder json;
  json.BeginObject()
      .Key("complete").Bool(complete())
      .Key("num_failed").Int(num_failed())
      .Key("tables").BeginArray();
  for (const TableReport& t : tables) {
    json.BeginObject()
        .Key("table").String(t.table)
        .Key("outcome").String(TableOutcomeName(t.outcome))
        .Key("status_code").String(StatusCodeToString(t.status.code()))
        .Key("status").String(t.status.message())
        .Key("rung").Int(t.rung)
        .Key("cache_hit").Bool(t.cache_hit);
    if (t.cover_optimal.has_value()) {
      json.Key("cover_optimal").Bool(*t.cover_optimal);
    }
    json.Key("learn_seconds").Double(t.learn_seconds)
        .Key("execute_seconds").Double(t.execute_seconds)
        .Key("rows_emitted").Int(t.rows_emitted)
        .Key("usage").BeginObject()
        .Key("states").Int(t.usage.states)
        .Key("rows").Int(t.usage.rows)
        .Key("bytes").Int(t.usage.bytes)
        .Key("checks").Int(t.usage.checks)
        .EndObject()
        .Key("retry_trail").BeginArray();
    for (const std::string& line : t.retry_trail) json.String(line);
    json.EndArray().EndObject();
  }
  json.EndArray();
  if (!metrics.empty()) json.Key("metrics").Raw(obs::MetricsJson(metrics));
  return json.EndObject().Take();
}

Status Migrator::InstallProgram(const TableDef& t, const dsl::Program& program,
                                std::vector<dsl::NodeTuple> tuples,
                                double seconds) {
  if (tuples.empty()) {
    return Status::SynthesisFailure("program for table " + t.name +
                                    " yields no example rows");
  }
  programs_[t.name] = program;
  example_tuples_[t.name] = std::move(tuples);
  info_.push_back(TableSynthesisInfo{t.name, seconds, program});
  return Status::OK();
}

bool Migrator::TryCachedProgram(const TableDef& t, const hdt::Hdt& tree,
                                const hdt::Table& example,
                                const MigratorOptions& opts, Status* why) {
  *why = Status::OK();
  if (opts.program_cache == nullptr) return false;
  std::optional<CachedProgram> entry =
      opts.program_cache->Lookup(ProgramCacheKey(tree, example));
  if (!entry.has_value()) return false;
  // Re-verify against the example under a bounded governor with the
  // synthesizer's own consistency check (VerifyOnExample): a poisoned or
  // colliding entry must read as a miss, never emit wrong tables, and
  // never run unbudgeted.
  common::ResourceLimits limits = opts.table_limits;
  if (!limits.has_deadline()) {
    limits.time_limit_seconds = opts.synthesis.time_limit_seconds;
  }
  common::Governor gov(limits);
  auto start = std::chrono::steady_clock::now();
  *why = [&]() -> Status {
    if (entry->program.columns.size() != example.NumCols()) {
      return Status::InvalidArgument(
          "cached program has " + std::to_string(entry->program.columns.size()) +
          " columns, example has " + std::to_string(example.NumCols()));
    }
    hdt::Table want = example;
    want.Dedup();
    want.SortRows();
    dsl::EvalOptions ev = opts.synthesis.predicate.eval;
    ev.governor = &gov;
    MITRA_ASSIGN_OR_RETURN(
        core::VerifiedExample verified,
        core::VerifyOnExample(tree, want, entry->program, ev));
    return InstallProgram(t, entry->program, std::move(verified.tuples),
                          SecondsSince(start));
  }();
  return why->ok();
}

void Migrator::StoreCachedProgram(const hdt::Hdt& tree,
                                  const hdt::Table& example,
                                  const MigratorOptions& opts,
                                  const core::SynthesisResult& result) {
  if (opts.program_cache == nullptr) return;
  CachedProgram entry;
  entry.program = result.program;
  entry.synthesis_seconds = result.stats.seconds;
  entry.table_extractors_tried = result.stats.table_extractors_tried;
  entry.table_extractors_consistent = result.stats.table_extractors_consistent;
  // Best effort: a full cache disk or injected I/O fault must not fail a
  // migration that already has its program.
  (void)opts.program_cache->Store(ProgramCacheKey(tree, example), entry);
}

Status Migrator::LearnTableLadder(const TableDef& t, const hdt::Hdt& tree,
                                  const hdt::Table& example,
                                  const MigratorOptions& opts,
                                  TableReport* report) {
  // Cache first: a verified hit is a rung-0 result (only full-budget
  // programs are ever stored) with no synthesis run at all.
  {
    Status cache_why;
    auto cache_start = std::chrono::steady_clock::now();
    bool hit = TryCachedProgram(t, tree, example, opts, &cache_why);
    if (hit || !cache_why.ok()) {
      report->learn_seconds += SecondsSince(cache_start);
    }
    if (hit) {
      report->outcome = TableOutcome::kOk;
      report->rung = 0;
      report->cache_hit = true;
      return Status::OK();
    }
    if (!cache_why.ok()) {
      report->retry_trail.push_back("cache: " + cache_why.ToString());
    }
  }

  // One attempt = one fresh governor: rung failures must not eat into the
  // next rung's budget, and a poisoned table must not cancel its siblings.
  // `body` installs the program on success; its time and budget usage are
  // charged to the report either way.
  auto attempt = [&](double fallback_deadline,
                     const std::function<Status(common::Governor*)>& body) {
    common::ResourceLimits limits = opts.table_limits;
    if (!limits.has_deadline()) limits.time_limit_seconds = fallback_deadline;
    common::Governor gov(limits);
    auto start = std::chrono::steady_clock::now();
    Status st = body(&gov);
    report->learn_seconds += SecondsSince(start);
    report->usage.Accumulate(gov.Usage());
    return st;
  };

  // Rungs 0 and 1: the full synthesis algorithm under `sopts`.
  auto synthesize = [&](const core::SynthesisOptions& sopts,
                        bool store_in_cache) {
    return attempt(sopts.time_limit_seconds,
                   [&](common::Governor* gov) -> Status {
      core::SynthesisOptions governed = sopts;
      governed.governor = gov;
      auto start = std::chrono::steady_clock::now();
      MITRA_ASSIGN_OR_RETURN(
          core::SynthesisResult result,
          core::LearnTransformation(tree, example, governed));
      const double seconds = SecondsSince(start);
      // Run the program on the example under the same budgets: its node
      // tuples feed foreign-key learning and can be the expensive part
      // for a near-unconstrained program.
      MITRA_ASSIGN_OR_RETURN(
          std::vector<dsl::NodeTuple> tuples,
          ExampleTuples(tree, result.program, sopts.predicate.eval, gov));
      MITRA_RETURN_IF_ERROR(
          InstallProgram(t, result.program, std::move(tuples), seconds));
      report->cover_optimal = result.stats.cover_optimal;
      if (store_in_cache) StoreCachedProgram(tree, example, opts, result);
      return Status::OK();
    });
  };

  // Rung 0: full budgets. Only this rung stores into the cache — a
  // degraded program must never shadow the full-budget result a later,
  // better-budgeted run would synthesize (the key excludes budgets).
  Status st = synthesize(opts.synthesis, /*store_in_cache=*/true);
  if (st.ok()) {
    report->outcome = TableOutcome::kOk;
    report->rung = 0;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 0: " + st.ToString());

  // Rung 1: reduced caps.
  core::SynthesisOptions reduced = ReducedSynthesisOptions(opts.synthesis);
  st = synthesize(reduced, /*store_in_cache=*/false);
  if (st.ok()) {
    report->outcome = TableOutcome::kDegraded;
    report->rung = 1;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 1: " + st.ToString());

  // Rung 2: projection-only fallback — the cheapest extractor per column
  // and φ = true. The emitted rows are a superset of the precise table
  // (each expected value is covered per column by Theorem 1, so every
  // expected combination appears in the cross product); verified below.
  st = attempt(reduced.time_limit_seconds,
               [&](common::Governor* gov) -> Status {
    auto start = std::chrono::steady_clock::now();
    core::ColumnLearnOptions copts = reduced.column;
    copts.dfa.governor = gov;
    copts.enumerate.governor = gov;
    copts.enumerate.max_programs = 1;  // only the cheapest is needed
    core::Examples examples{core::Example{&tree, &example}};
    core::ColSymbolPool pool;
    dsl::Program p;
    for (size_t j = 0; j < example.NumCols(); ++j) {
      MITRA_ASSIGN_OR_RETURN(
          std::vector<dsl::ColumnExtractor> cands,
          core::LearnColumnExtractors(examples, static_cast<int>(j), &pool,
                                      copts));
      if (cands.empty()) {
        return Status::SynthesisFailure("no column extractor for column " +
                                        std::to_string(j) + " of table " +
                                        t.name);
      }
      p.columns.push_back(cands[0]);
    }
    p.formula = dsl::Dnf::True();
    // φ = true: the output is the cross product, bounded by the cap.
    MITRA_ASSIGN_OR_RETURN(
        std::vector<dsl::NodeTuple> tuples,
        ExampleTuples(tree, p, reduced.predicate.eval, gov));
    // Coverage check: every expected data row must appear among the
    // projection-only rows (superset semantics, never a wrong subset).
    std::set<hdt::Row> produced;
    for (const dsl::NodeTuple& tuple : tuples) {
      produced.insert(dsl::ProjectData(tree, tuple));
    }
    for (const hdt::Row& want : example.rows()) {
      if (produced.find(want) == produced.end()) {
        return Status::SynthesisFailure("projection-only fallback for table " +
                                        t.name +
                                        " does not cover the example rows");
      }
    }
    return InstallProgram(t, p, std::move(tuples), SecondsSince(start));
  });
  if (st.ok()) {
    report->outcome = TableOutcome::kFallback;
    report->rung = 2;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 2: " + st.ToString());
  return st;
}

Result<MigrationReport> Migrator::LearnTolerant(
    hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  MITRA_RETURN_IF_ERROR(schema_.Validate());
  // One index build per document, shared by every table's synthesis and
  // by foreign-key learning. Non-compact: the caller may still read
  // Node::children directly.
  example_tree.FreezeIndex(/*compact=*/false);
  programs_.clear();
  fk_plans_.clear();
  example_tuples_.clear();
  info_.clear();

  // Structural validation is whole-call: a missing or mis-shaped example
  // is a caller bug, not a per-table resource failure.
  for (const TableDef& t : schema_.tables) {
    auto it = table_examples.find(t.name);
    if (it == table_examples.end()) {
      return Status::InvalidArgument("no example for table " + t.name);
    }
    if (it->second.NumCols() != t.NumDataColumns()) {
      return Status::InvalidArgument(
          "example for table " + t.name + " has " +
          std::to_string(it->second.NumCols()) + " columns, schema has " +
          std::to_string(t.NumDataColumns()) + " data columns");
    }
  }

  MigrationReport report;
  report.tables.reserve(schema_.tables.size());
  for (const TableDef& t : schema_.tables) {
    TableReport tr;
    tr.table = t.name;
    Status st = LearnTableLadder(t, example_tree, table_examples.at(t.name),
                                 opts, &tr);
    if (!st.ok()) {
      tr.outcome = TableOutcome::kFailed;
      tr.status = st;
    }
    report.tables.push_back(std::move(tr));
  }

  // Foreign keys, with cascade skipping: a table whose FK references an
  // unavailable table is kSkipped, and that skip can cascade further.
  std::set<std::string> fk_done;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const TableDef& t : schema_.tables) {
      TableReport* tr = report.Find(t.name);
      if (!tr->live()) continue;
      bool has_fk = false;
      for (size_t c = 0; c < t.columns.size(); ++c) {
        if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
        has_fk = true;
        const std::string& ref = t.columns[c].references;
        const TableReport* ref_tr = report.Find(ref);
        if (ref_tr == nullptr || !ref_tr->live()) {
          tr->outcome = TableOutcome::kSkipped;
          tr->status = Status::SynthesisFailure(
              "skipped: referenced table " + ref + " is unavailable");
          tr->retry_trail.push_back("fk: referenced table " + ref +
                                    " unavailable");
          programs_.erase(t.name);
          changed = true;
          break;
        }
      }
      if (!tr->live() || !has_fk || fk_done.count(t.name) != 0) continue;
      fk_done.insert(t.name);
      common::Governor gov(opts.table_limits);
      Status st = LearnForeignKeysForTable(t, example_tree, opts, &gov);
      tr->usage.Accumulate(gov.Usage());
      if (!st.ok()) {
        tr->outcome = TableOutcome::kFailed;
        tr->status = st;
        tr->retry_trail.push_back("fk: " + st.ToString());
        programs_.erase(t.name);
        changed = true;
      }
    }
  }
  return report;
}

Database Migrator::ExecuteTolerant(const std::vector<hdt::Hdt*>& docs,
                                   MigrationReport* report,
                                   const MigratorOptions& opts) const {
  for (hdt::Hdt* doc : docs) doc->FreezeIndex(/*compact=*/false);
  MigrationReport scratch;
  if (report == nullptr) report = &scratch;

  // Every record exists before any table runs, so the vector never
  // reallocates under the pointers the parallel phase writes through.
  // After a strict-style call there is no ladder record; a table counts
  // as rung-0 OK until the checks below or its execution say otherwise.
  for (const TableDef& t : schema_.tables) {
    if (report->Find(t.name) != nullptr) continue;
    TableReport fresh;
    fresh.table = t.name;
    fresh.outcome = TableOutcome::kOk;
    fresh.rung = 0;
    report->tables.push_back(std::move(fresh));
  }
  std::vector<const TableDef*> defs;
  std::vector<TableReport*> records;
  for (const TableDef& t : schema_.tables) {
    TableReport* tr = report->Find(t.name);
    if (!tr->live()) continue;
    if (programs_.count(t.name) == 0) {
      tr->outcome = TableOutcome::kSkipped;
      tr->rung = -1;
      tr->status =
          Status::InvalidArgument("no learned program for table " + t.name);
      continue;
    }
    defs.push_back(&t);
    records.push_back(tr);
  }

  // Cross-table memoization (§9): the tables' programs run over the same
  // documents and share column extractions through one thread-safe
  // ColumnCache per document, bound to that document's tree.
  std::deque<core::ColumnCache> doc_caches;
  for (const hdt::Hdt* doc : docs) doc_caches.emplace_back(*doc);
  // Tables are independent: each runs under its own fresh governor (one
  // runaway table exhausts only its own budget) and writes only its own
  // record and slot, so they run on the pool when one is supplied and are
  // merged in schema order below.
  std::vector<std::optional<hdt::Table>> built(defs.size());
  common::ParallelFor(opts.execute.pool, defs.size(), [&](size_t i) {
    const TableDef& t = *defs[i];
    TableReport* tr = records[i];
    common::Governor gov(opts.table_limits);
    core::ExecuteOptions exec_opts = opts.execute;
    exec_opts.governor = &gov;
    auto start = std::chrono::steady_clock::now();
    Status st;
    hdt::Table merged;
    for (size_t d = 0; d < docs.size() && st.ok(); ++d) {
      exec_opts.column_cache = &doc_caches[d];
      auto part = BuildTable(t, *docs[d],
                             opts.doc_index_base + static_cast<int>(d),
                             exec_opts);
      if (!part.ok()) {
        st = part.status();
      } else if (d == 0) {
        merged = std::move(*part);
      } else {
        for (const hdt::Row& r : part->rows()) {
          st = merged.AppendRow(r);
          if (!st.ok()) break;
        }
      }
    }
    tr->execute_seconds += SecondsSince(start);
    tr->usage.Accumulate(gov.Usage());
    if (!st.ok()) {
      tr->outcome = TableOutcome::kFailed;
      tr->status = st;
      tr->retry_trail.push_back("execute: " + st.ToString());
      return;
    }
    tr->rows_emitted = merged.NumRows();
    built[i] = std::move(merged);
  });

  Database db;
  for (size_t i = 0; i < defs.size(); ++i) {
    if (built[i].has_value()) {
      db.tables.emplace(defs[i]->name, std::move(*built[i]));
    }
  }
  return db;
}

}  // namespace mitra::db
