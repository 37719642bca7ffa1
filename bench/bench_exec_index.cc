/// Frozen-index execution benchmark (succinct HDT index): measures
/// rows/sec of the optimized executor on descendant-heavy programs over
/// the synthetic DBLP and MONDIAL generators, walk (unfrozen tree, DFS
/// navigation) vs. indexed (frozen tree: posting-list subranges, CSR
/// children, dictionary-encoded predicates), at ~10^5 and ~10^6
/// elements. Also reports the one-time FreezeIndex cost so the
/// break-even point is visible. Emits BENCH_exec_index.json.
///
/// Flags: --elements N (largest target size, default 1000000)
///        --reps R     (timed repetitions per cell, min is kept; default 3)
///        --json PATH  (report path, default BENCH_exec_index.json)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_builder.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "dsl/ast.h"
#include "hdt/hdt.h"
#include "obs/metrics.h"
#include "workload/datasets.h"
#include "xml/xml_parser.h"

namespace mitra {
namespace {

struct BenchProgram {
  std::string name;
  dsl::Program program;
};

dsl::ColumnExtractor Desc(const std::string& tag) {
  return {{{dsl::ColOp::kDescendants, tag, 0}}};
}

/// ((λn. parent(n)) t[0]) = ((λn. parent(n)) t[1]) — the classic
/// same-record join between two field columns.
dsl::Atom ParentJoin() {
  dsl::Atom a;
  a.lhs_path.steps.push_back({dsl::NodeOp::kParent, "", 0});
  a.lhs_col = 0;
  a.op = dsl::CmpOp::kEq;
  a.rhs_path.steps.push_back({dsl::NodeOp::kParent, "", 0});
  a.rhs_col = 1;
  return a;
}

/// ((λn. n) t[0]) ⋈ c — a constant filter (dictionary-encoded on frozen
/// trees: evaluated once per distinct leaf value, not once per row; kEq
/// additionally compares 32-bit dictionary ids).
dsl::Atom Const(dsl::CmpOp op, const std::string& c) {
  dsl::Atom a;
  a.lhs_col = 0;
  a.op = op;
  a.rhs_is_const = true;
  a.rhs_const = c;
  return a;
}

dsl::Program OneColumn(const std::string& tag) {
  dsl::Program p;
  p.columns.push_back(Desc(tag));
  return p;
}

dsl::Program JoinProgram(const std::string& tag_a, const std::string& tag_b) {
  dsl::Program p;
  p.columns.push_back(Desc(tag_a));
  p.columns.push_back(Desc(tag_b));
  p.atoms.push_back(ParentJoin());
  p.formula = dsl::Dnf{{{dsl::Literal{0, false}}}};
  return p;
}

dsl::Program FilterProgram(const std::string& tag, dsl::CmpOp op,
                           const std::string& c) {
  dsl::Program p;
  p.columns.push_back(Desc(tag));
  p.atoms.push_back(Const(op, c));
  p.formula = dsl::Dnf{{{dsl::Literal{0, false}}}};
  return p;
}

std::vector<BenchProgram> DblpPrograms() {
  return {
      {"authors_scan", OneColumn("author")},
      {"title_year_join", JoinProgram("title", "year")},
      {"year_ge_filter", FilterProgram("year", dsl::CmpOp::kGe, "2000")},
      // Selective: ~2% of years match, so output materialization (a cost
      // both sides share) is negligible and navigation+predicate dominate.
      {"year_eq_filter", FilterProgram("year", dsl::CmpOp::kEq, "1999")},
  };
}

std::vector<BenchProgram> MondialPrograms() {
  return {
      {"cities_scan", OneColumn("city")},
      {"ciname_cipop_join", JoinProgram("ciname", "cipop")},
      {"cipop_ge_filter",
       FilterProgram("cipop", dsl::CmpOp::kGe, "1000000")},
      {"citype_eq_filter",
       FilterProgram("citype", dsl::CmpOp::kEq, "metro")},
  };
}

/// Best-of-reps execution time; `rows` receives the emitted row count.
double TimeExecute(const core::OptimizedExecutor& exec, const hdt::Hdt& tree,
                   int reps, size_t* rows) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    bench::Timer t;
    auto result = exec.ExecuteNodes(tree);
    double s = t.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   result.status().ToString().c_str());
      *rows = 0;
      return -1.0;
    }
    *rows = result->size();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

/// Times every program on `spec` at each target size and appends one object
/// per program to the open `cases` array.
void RunDataset(const workload::DatasetSpec& spec,
                const std::vector<BenchProgram>& programs, long max_elements,
                int reps, JsonBuilder* cases) {
  // Calibrate scale -> elements with a small instance (sizes are linear
  // in scale), then hit each target element count.
  const int probe_scale = 500;
  auto probe = xml::ParseXml(spec.generate(probe_scale, /*seed=*/1));
  if (!probe.ok()) {
    std::fprintf(stderr, "%s: probe parse failed: %s\n", spec.name.c_str(),
                 probe.status().ToString().c_str());
    return;
  }
  const double per_scale =
      static_cast<double>(probe->NumElements()) / probe_scale;

  for (long target : {100'000L, 1'000'000L}) {
    if (target > max_elements) continue;
    const int scale = std::max(2, static_cast<int>(target / per_scale));
    std::string doc = spec.generate(scale, /*seed=*/1);
    bench::Timer parse_timer;
    auto tree = xml::ParseXml(doc);
    double parse_s = parse_timer.Seconds();
    if (!tree.ok()) {
      std::fprintf(stderr, "%s: parse failed\n", spec.name.c_str());
      continue;
    }
    const size_t elements = tree->NumElements();
    std::printf("== %s, %zu elements (parse %.2f s) ==\n", spec.name.c_str(),
                elements, parse_s);
    std::printf("%-22s %12s %12s %12s %9s\n", "program", "walk(s)",
                "indexed(s)", "rows/s idx", "speedup");

    // Walk measurements first, then freeze the same tree in place — no
    // second copy of a million-node arena.
    std::vector<double> walk_s(programs.size());
    std::vector<size_t> walk_rows(programs.size());
    for (size_t i = 0; i < programs.size(); ++i) {
      core::OptimizedExecutor exec(programs[i].program);
      walk_s[i] = TimeExecute(exec, *tree, reps, &walk_rows[i]);
    }

    bench::Timer freeze_timer;
    tree->FreezeIndex();
    const double freeze_s = freeze_timer.Seconds();

    for (size_t i = 0; i < programs.size(); ++i) {
      core::OptimizedExecutor exec(programs[i].program);
      size_t rows = 0;
      double idx_s = TimeExecute(exec, *tree, reps, &rows);
      if (walk_s[i] < 0 || idx_s < 0) continue;
      if (rows != walk_rows[i]) {
        std::fprintf(stderr, "  %s: ROW COUNT MISMATCH walk=%zu indexed=%zu\n",
                     programs[i].name.c_str(), walk_rows[i], rows);
        continue;
      }
      const double speedup = idx_s > 0 ? walk_s[i] / idx_s : 0.0;
      const double idx_rate = idx_s > 0 ? rows / idx_s : 0.0;
      const double walk_rate = walk_s[i] > 0 ? rows / walk_s[i] : 0.0;
      std::printf("%-22s %12.4f %12.4f %12.0f %8.2fx\n",
                  programs[i].name.c_str(), walk_s[i], idx_s, idx_rate,
                  speedup);
      cases->BeginObject()
          .Key("dataset").String(spec.name)
          .Key("program").String(programs[i].name)
          .Key("elements").Int(elements)
          .Key("rows").Int(rows)
          .Key("walk_seconds").Double(walk_s[i])
          .Key("indexed_seconds").Double(idx_s)
          .Key("freeze_seconds").Double(freeze_s)
          .Key("walk_rows_per_sec").Double(walk_rate)
          .Key("indexed_rows_per_sec").Double(idx_rate)
          .Key("speedup").Double(speedup)
          .EndObject();
    }
    std::printf("freeze: %.3f s (one-time, shared across all programs)\n\n",
                freeze_s);
  }
}

}  // namespace

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  const long max_elements = args.Int("elements", 1'000'000);
  const int reps = static_cast<int>(args.Int("reps", 3));

  JsonBuilder json;
  json.BeginObject()
      .Key("hardware_concurrency").Int(common::ThreadPool::HardwareThreads())
      .Key("max_elements").Int(max_elements)
      .Key("reps").Int(reps)
      .Key("cases").BeginArray();
  RunDataset(workload::Dblp(), DblpPrograms(), max_elements, reps, &json);
  RunDataset(workload::Mondial(), MondialPrograms(), max_elements, reps,
             &json);
  json.EndArray()
      .Key("metrics").Raw(obs::MetricsJson(obs::SnapshotMetrics()))
      .EndObject();
  bench::WriteFileOrWarn(args.Str("json", "BENCH_exec_index.json"),
                         json.Take() + "\n");
  return 0;
}

}  // namespace mitra

int main(int argc, char** argv) { return mitra::Run(argc, argv); }
