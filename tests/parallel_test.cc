#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/csv.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "db/migrator.h"
#include "json/json_parser.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "workload/corpus.h"
#include "workload/datasets.h"
#include "xml/xml_parser.h"

/// \file parallel_test.cc
/// The parallel engine's contract is determinism: for every thread count,
/// synthesis returns the same program and execution the same tuple
/// sequence as the sequential run. These tests check the ThreadPool
/// primitive itself, then the contract end-to-end over the full corpus
/// and over whole-database migration (tables executed in parallel).

namespace mitra {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor primitives

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  common::ParallelFor(&pool, kN, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeDoesNotInvokeBody) {
  common::ThreadPool pool(4);
  std::atomic<int> calls{0};
  common::ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NullPoolRunsInline) {
  std::vector<size_t> order;
  common::ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOrder) {
  common::ThreadPool pool(1);
  std::vector<size_t> order;
  common::ParallelFor(&pool, 4, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      common::ParallelFor(&pool, 100,
                          [&](size_t i) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must still be fully usable after an error.
  std::atomic<size_t> sum{0};
  common::ParallelFor(&pool, 100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  common::ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(64);
  common::ParallelFor(&pool, 8, [&](size_t i) {
    // From a worker thread, the inner loop must run inline rather than
    // re-enqueue (which could deadlock a saturated pool).
    common::ParallelFor(&pool, 8, [&](size_t j) {
      counts[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(common::ThreadPool::HardwareThreads(), 1u);
}

// ---------------------------------------------------------------------------
// Synthesis determinism across thread counts

/// Learns every solvable corpus task at the given thread count and
/// returns the programs keyed by task order.
std::vector<std::string> SynthesizeCorpus(int threads) {
  std::vector<std::string> programs;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    bool is_json = task.format == workload::DocFormat::kJson;
    auto tree = is_json ? json::ParseJson(task.document)
                        : xml::ParseXml(task.document);
    if (!tree.ok()) continue;
    auto table = hdt::Table::FromRows(task.output);
    if (!table.ok()) continue;
    core::SynthesisOptions opts;
    opts.num_threads = threads;
    auto r = core::LearnTransformation(*tree, *table, opts);
    programs.push_back(task.id + "\t" +
                       (r.ok() ? dsl::ToString(r->program)
                               : r.status().ToString()));
  }
  return programs;
}

TEST(ParallelSynthesis, CorpusProgramsIdenticalAcrossThreadCounts) {
  std::vector<std::string> base = SynthesizeCorpus(1);
  ASSERT_FALSE(base.empty());
  for (int threads : {4, 8}) {
    std::vector<std::string> got = SynthesizeCorpus(threads);
    ASSERT_EQ(got.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i]) << "threads=" << threads;
    }
  }
}

TEST(ParallelSynthesis, ReportsMemoTraffic) {
  hdt::Hdt t = ParseXmlOrDie(R"(
<people>
  <person><name>A</name><city>X</city></person>
  <person><name>B</name><city>Y</city></person>
</people>
)");
  hdt::Table r = MakeTable({{"A", "X"}, {"B", "Y"}});
  auto result = core::LearnTransformation(t, r);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.memo_misses, 0u);
}

// ---------------------------------------------------------------------------
// Executor determinism: chunked enumeration vs sequential

TEST(ParallelExecutor, CorpusTupleSequencesIdentical) {
  common::ThreadPool pool(8);
  size_t programs_checked = 0;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    bool is_json = task.format == workload::DocFormat::kJson;
    auto tree = is_json ? json::ParseJson(task.document)
                        : xml::ParseXml(task.document);
    if (!tree.ok()) continue;
    auto table = hdt::Table::FromRows(task.output);
    if (!table.ok()) continue;
    auto learned = core::LearnTransformation(*tree, *table);
    if (!learned.ok()) continue;

    core::OptimizedExecutor exec(learned->program);
    auto seq = exec.ExecuteNodes(*tree);
    core::ExecuteOptions popts;
    popts.pool = &pool;
    auto par = exec.ExecuteNodes(*tree, popts);
    ASSERT_TRUE(seq.ok()) << task.id;
    ASSERT_TRUE(par.ok()) << task.id;
    // Exact sequence equality — not just set equality: the parallel merge
    // must reproduce the sequential emission order.
    ASSERT_EQ(*seq, *par) << task.id;
    ++programs_checked;
  }
  EXPECT_GT(programs_checked, 50u);
}

TEST(ParallelExecutor, OverflowStatusMatchesSequential) {
  // A join-free 2-column program over n candidates each emits n^2 rows;
  // cap below that and both paths must report resource exhaustion.
  hdt::Hdt t = ParseXmlOrDie(R"(
<l>
  <a>1</a><a>2</a><a>3</a><a>4</a><a>5</a><a>6</a><a>7</a><a>8</a>
</l>
)");
  std::vector<hdt::Row> rows;
  for (int i = 1; i <= 8; ++i) {
    for (int j = 1; j <= 8; ++j) {
      rows.push_back({std::to_string(i), std::to_string(j)});
    }
  }
  auto learned = core::LearnTransformation(t, MakeTable(rows));
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  core::OptimizedExecutor exec(learned->program);

  common::ThreadPool pool(4);
  core::ExecuteOptions seq_opts, par_opts;
  seq_opts.max_output_rows = 10;
  par_opts.max_output_rows = 10;
  par_opts.pool = &pool;
  auto seq = exec.ExecuteNodes(t, seq_opts);
  auto par = exec.ExecuteNodes(t, par_opts);
  ASSERT_FALSE(seq.ok());
  ASSERT_FALSE(par.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(par.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(seq.status().message(), par.status().message());
}

TEST(ColumnCacheThreadSafety, ConcurrentInsertFirstWins) {
  hdt::Hdt t = ParseXmlOrDie("<r><a>1</a><a>2</a></r>");
  dsl::ColumnExtractor pi;  // trivial extractor: the key is its value
  core::ColumnCache cache(t);
  common::ThreadPool pool(4);
  std::vector<const std::vector<hdt::NodeId>*> ptrs(64);
  common::ParallelFor(&pool, 64, [&](size_t i) { ptrs[i] = &cache.Get(pi); });
  // Every thread must observe the same stored vector (first-wins).
  for (size_t i = 1; i < ptrs.size(); ++i) {
    ASSERT_EQ(ptrs[i], ptrs[0]);
  }
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Whole-database migration: tables run in parallel on the pool

/// Runs ExecuteTolerant on a copy of `learned` with a pool of `threads`
/// and renders every table (CSV, keys included) plus every per-table
/// record, so two runs compare with one string equality.
std::string MigrateWithPool(const db::Migrator& migrator,
                            const db::MigrationReport& learned,
                            std::vector<hdt::Hdt*> docs,
                            db::MigratorOptions opts, unsigned threads) {
  common::ThreadPool pool(threads);
  opts.execute.pool = &pool;
  db::MigrationReport report = learned;
  db::Database db = migrator.ExecuteTolerant(docs, &report, opts);
  std::string out;
  for (const db::TableDef& t : migrator.schema().tables) {
    auto it = db.tables.find(t.name);
    out += "# " + t.name + "\n";
    if (it != db.tables.end()) out += WriteCsv(it->second.rows());
  }
  for (const db::TableReport& t : report.tables) {
    out += t.table + " " + db::TableOutcomeName(t.outcome) + " rung " +
           std::to_string(t.rung) + " rows " + std::to_string(t.rows_emitted) +
           " status " + t.status.ToString() + "\n";
    for (const std::string& entry : t.retry_trail) out += "  " + entry + "\n";
  }
  return out;
}

Result<hdt::Hdt> ParseDataset(const workload::DatasetSpec& spec,
                              const std::string& text) {
  return spec.format == workload::DocFormat::kXml ? xml::ParseXml(text)
                                                  : json::ParseJson(text);
}

class ParallelMigrationDataset : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelMigrationDataset, TablesIdenticalAcrossPoolSizes) {
  const workload::DatasetSpec& spec = *workload::AllDatasets()[GetParam()];
  std::map<std::string, hdt::Table> examples;
  for (const auto& [name, rows] : spec.example_tables) {
    examples.emplace(name, MakeTable(rows));
  }
  auto example = ParseDataset(spec, spec.example_document);
  ASSERT_TRUE(example.ok()) << example.status().ToString();
  db::Migrator migrator(spec.schema);
  auto learned = migrator.LearnTolerant(*example, examples);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  ASSERT_TRUE(learned->complete());

  auto doc1 = ParseDataset(spec, spec.generate(8, 1));
  auto doc2 = ParseDataset(spec, spec.generate(5, 2));
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  db::MigratorOptions opts;
  opts.doc_index_base = 2;
  std::string seq =
      MigrateWithPool(migrator, *learned, {&*doc1, &*doc2}, opts, 1);
  std::string par =
      MigrateWithPool(migrator, *learned, {&*doc1, &*doc2}, opts, 4);
  EXPECT_EQ(seq, par);
  EXPECT_NE(seq.find(" ok rung 0 rows "), std::string::npos) << seq;
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, ParallelMigrationDataset,
    ::testing::Range<size_t>(0, workload::AllDatasets().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return workload::AllDatasets()[info.param]->name;
    });

TEST(ParallelMigration, StarvedExecuteOutcomesIdenticalAcrossPoolSizes) {
  hdt::Hdt example = ParseXmlOrDie(R"(
<corpus>
  <paper key="p1"><title>T1</title><year>2001</year>
    <author><name>A</name></author>
    <author><name>B</name></author>
  </paper>
  <paper key="p2"><title>T2</title><year>2002</year>
    <author><name>C</name></author>
  </paper>
</corpus>)");
  db::DatabaseSchema schema;
  schema.tables.push_back(db::TableDef{
      "papers",
      {{"pid", db::ColumnKind::kPrimaryKey, ""},
       {"title", db::ColumnKind::kData, ""},
       {"year", db::ColumnKind::kData, ""}}});
  schema.tables.push_back(db::TableDef{
      "authorship",
      {{"aid", db::ColumnKind::kPrimaryKey, ""},
       {"name", db::ColumnKind::kData, ""},
       {"paper", db::ColumnKind::kForeignKey, "papers"}}});
  std::map<std::string, hdt::Table> examples;
  examples["papers"] = MakeTable({{"T1", "2001"}, {"T2", "2002"}});
  examples["authorship"] = MakeTable({{"A"}, {"B"}, {"C"}});
  db::Migrator migrator(schema);
  auto learned = migrator.LearnTolerant(example, examples);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();

  db::MigratorOptions starve;
  starve.table_limits.max_rows = 1;
  std::string seq = MigrateWithPool(migrator, *learned, {&example}, starve, 1);
  std::string par = MigrateWithPool(migrator, *learned, {&example}, starve, 4);
  EXPECT_EQ(seq, par);
  EXPECT_NE(seq.find("papers failed"), std::string::npos) << seq;
  EXPECT_NE(seq.find("authorship failed"), std::string::npos) << seq;
}

TEST(ParallelMigration, StrictLearnFailsUnderTinyBudget) {
  db::DatabaseSchema schema;
  schema.tables.push_back(db::TableDef{
      "t", {{"a", db::ColumnKind::kData, ""}, {"b", db::ColumnKind::kData, ""}}});
  hdt::Hdt example = ParseXmlOrDie(test::PoisonedXmlDocument(30));
  std::map<std::string, hdt::Table> examples;
  examples["t"] = MakeTable({{"0", "1"}, {"1", "2"}, {"2", "0"}});
  db::MigratorOptions opts;
  opts.table_limits.max_states = 5;  // trips in the first DFA construction

  db::Migrator tolerant(schema);
  auto report = tolerant.LearnTolerant(example, examples, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const db::TableReport* t = report->Find("t");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->outcome, db::TableOutcome::kFailed);

  // The strict call is the tolerant one plus a mapping: a failed table
  // surfaces its own decisive status.
  db::Migrator strict(schema);
  Status learned = strict.Learn(example, examples, opts);
  ASSERT_FALSE(learned.ok());
  EXPECT_EQ(learned.ToString(), t->status.ToString());
}

}  // namespace
}  // namespace mitra
