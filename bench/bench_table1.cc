/// Reproduces **Table 1** of the paper: the 98-task StackOverflow-style
/// benchmark summary. For each format (XML/JSON) and target-column bucket
/// (≤2, 3, 4, ≥5) it reports the task count, how many the synthesizer
/// solved, median/average synthesis time, example sizes, the average
/// number of atomic predicates in the synthesized programs, and the LOC
/// of the generated XSLT/JavaScript code. The paper's published numbers
/// are printed alongside for shape comparison (absolute times differ:
/// different corpus instantiation and hardware).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_builder.h"
#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "json/js_codegen.h"
#include "json/json_parser.h"
#include "workload/corpus.h"
#include "xml/xml_parser.h"
#include "xml/xslt_codegen.h"

namespace mitra {
namespace {

struct BucketStats {
  int total = 0;
  int solved = 0;
  std::vector<double> synth_times;  // solved tasks
  std::vector<double> elements;     // all tasks
  std::vector<double> rows;         // all tasks
  std::vector<double> preds;        // solved tasks
  std::vector<double> loc;          // solved tasks
};

struct PaperRow {
  const char* label;
  double median_s, avg_s, med_elems, avg_elems, med_rows, avg_rows,
      avg_preds, avg_loc;
  int total, solved;
};

// Table 1 reference values from the paper.
const PaperRow kPaperXml[] = {
    {"<=2", 0.34, 0.38, 12.0, 15.9, 3.0, 4.3, 1.0, 13.2, 17, 15},
    {"3", 0.63, 3.67, 19.5, 47.7, 4.0, 3.8, 2.0, 17.2, 12, 12},
    {"4", 1.25, 3.56, 16.0, 20.5, 2.0, 2.7, 3.1, 19.5, 12, 11},
    {">=5", 3.48, 6.80, 24.0, 27.2, 2.5, 2.6, 4.1, 23.3, 10, 10},
    {"Total", 0.82, 3.27, 16.5, 27.2, 3.0, 3.5, 2.4, 17.8, 51, 48},
};
const PaperRow kPaperJson[] = {
    {"<=2", 0.12, 0.27, 6.0, 7.4, 2.0, 2.7, 0.9, 21.3, 11, 11},
    {"3", 0.48, 1.13, 7.0, 10.5, 3.0, 3.5, 2.0, 23.0, 11, 11},
    {"4", 0.26, 12.10, 6.0, 7.9, 2.0, 2.8, 3.0, 26.5, 11, 11},
    {">=5", 3.20, 3.85, 6.0, 8.1, 2.0, 2.5, 4.9, 28.0, 14, 11},
    {"Total", 0.31, 4.33, 6.0, 8.5, 2.0, 2.9, 2.7, 24.7, 47, 44},
};
const PaperRow kPaperOverall = {"Overall", 0.52, 3.78, 11.0, 18.7,
                                3.0,       3.2,  2.6,  21.6, 98, 92};

const char* BucketLabel(int bucket) {
  switch (bucket) {
    case 2:
      return "<=2";
    case 3:
      return "3";
    case 4:
      return "4";
    default:
      return ">=5";
  }
}

void PrintRow(const char* format, const char* label, const BucketStats& s,
              const PaperRow* paper) {
  std::printf(
      "%-5s %-6s %5d %7d   %7.2f %7.2f   %7.1f %7.1f   %5.1f %5.1f   "
      "%5.1f %6.1f",
      format, label, s.total, s.solved, bench::MedianOf(s.synth_times),
      bench::AvgOf(s.synth_times), bench::MedianOf(s.elements),
      bench::AvgOf(s.elements), bench::MedianOf(s.rows),
      bench::AvgOf(s.rows), bench::AvgOf(s.preds), bench::AvgOf(s.loc));
  if (paper != nullptr) {
    std::printf("   | %2d/%2d %6.2f %5.2f %5.1f %5.1f", paper->solved,
                paper->total, paper->median_s, paper->avg_s,
                paper->avg_preds, paper->avg_loc);
  }
  std::printf("\n");
}

void Accumulate(BucketStats* dst, const BucketStats& src) {
  dst->total += src.total;
  dst->solved += src.solved;
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&dst->synth_times, src.synth_times);
  append(&dst->elements, src.elements);
  append(&dst->rows, src.rows);
  append(&dst->preds, src.preds);
  append(&dst->loc, src.loc);
}

}  // namespace

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  // --threads 0 (default) = hardware concurrency; any value yields the
  // same synthesized programs, so Table 1's shape is thread-invariant.
  const int num_threads = static_cast<int>(args.Int("threads", 0));
  std::map<std::pair<bool, int>, BucketStats> buckets;  // (is_json, bucket)

  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    bool is_json = task.format == workload::DocFormat::kJson;
    BucketStats& s = buckets[{is_json, task.Bucket()}];
    ++s.total;

    auto tree = is_json ? json::ParseJson(task.document)
                        : xml::ParseXml(task.document);
    if (!tree.ok()) {
      std::fprintf(stderr, "%s: parse error: %s\n", task.id.c_str(),
                   tree.status().ToString().c_str());
      continue;
    }
    s.elements.push_back(static_cast<double>(tree->NumElements()));
    s.rows.push_back(static_cast<double>(task.output.size()));

    auto table = hdt::Table::FromRows(task.output);
    if (!table.ok()) continue;

    core::SynthesisOptions opts;
    opts.time_limit_seconds = 60.0;
    opts.num_threads = num_threads;
    bench::Timer timer;
    auto result = core::LearnTransformation(*tree, *table, opts);
    double secs = timer.Seconds();
    if (!result.ok()) {
      if (task.expect_solvable) {
        std::fprintf(stderr, "%s: UNEXPECTEDLY unsolved: %s\n",
                     task.id.c_str(), result.status().ToString().c_str());
      }
      continue;
    }
    if (!task.expect_solvable) {
      std::fprintf(stderr, "%s: UNEXPECTEDLY solved\n", task.id.c_str());
    }
    ++s.solved;
    s.synth_times.push_back(secs);
    s.preds.push_back(static_cast<double>(result->program.NumUsedAtoms()));
    std::string code = is_json ? json::GenerateJavaScript(result->program)
                               : xml::GenerateXslt(result->program);
    int loc = is_json ? json::CountEffectiveLoc(code)
                      : xml::CountEffectiveLoc(code);
    s.loc.push_back(static_cast<double>(loc));
  }

  std::printf(
      "== Table 1: synthesis over the 98-task corpus "
      "(paper reference at right) ==\n");
  std::printf(
      "fmt   #cols  total  solved   med(s)  avg(s)   elems-m elems-a   "
      "rows-m rows-a  preds    LOC   | paper: solved  med(s) avg(s) "
      "preds  LOC\n");

  BucketStats overall;
  for (bool is_json : {false, true}) {
    BucketStats total;
    const PaperRow* paper_rows = is_json ? kPaperJson : kPaperXml;
    int idx = 0;
    for (int bucket : {2, 3, 4, 5}) {
      const BucketStats& s = buckets[{is_json, bucket}];
      PrintRow(is_json ? "JSON" : "XML", BucketLabel(bucket), s,
               &paper_rows[idx++]);
      Accumulate(&total, s);
    }
    PrintRow(is_json ? "JSON" : "XML", "Total", total, &paper_rows[4]);
    Accumulate(&overall, total);
    std::printf("\n");
  }
  PrintRow("", "Overall", overall, &kPaperOverall);

  std::printf(
      "\nShape checks: solved %d/%d (paper: 92/98); per-bucket solved "
      "counts match Table 1 by construction of the corpus.\n",
      overall.solved, overall.total);

  // --json FILE: machine-readable summary with the run's observability
  // counters embedded, so a CI archive of BENCH_table1.json carries the
  // search-space numbers (candidates enumerated, DFA sizes, memo hits)
  // alongside the wall-clock ones.
  std::string json_path = args.Str("json", "");
  if (!json_path.empty()) {
    std::string json =
        JsonBuilder()
            .BeginObject()
            .Key("bench").String("table1")
            .Key("tasks_total").Int(overall.total)
            .Key("tasks_solved").Int(overall.solved)
            .Key("median_synth_seconds")
            .Double(bench::MedianOf(overall.synth_times))
            .Key("avg_synth_seconds")
            .Double(bench::AvgOf(overall.synth_times))
            .Key("threads").Int(num_threads)
            .Key("metrics").Raw(obs::MetricsJson(obs::SnapshotMetrics()))
            .EndObject()
            .Take();
    bench::WriteFileOrWarn(json_path, json + "\n");
  }
  return 0;
}

}  // namespace mitra

int main(int argc, char** argv) { return mitra::Run(argc, argv); }
