/// Ablation A1 (DESIGN.md): the Appendix-C program optimization.
///
/// The paper motivates optimizing synthesized programs because the naive
/// semantics materializes the full column cross product before filtering
/// (§6 "Program optimization"; the two >1 h outliers of §7.1 are blamed
/// on "inefficiencies in the generated code"). This benchmark runs
/// join-heavy synthesized programs both ways at growing document sizes:
///
///   naive     — Fig. 7 reference evaluator, dsl/reference_eval.h (cross
///               product, then filter)
///   optimized — hash-join executor (memoized columns, early predicates)
///
/// The shape to observe: naive grows with the *product* of column sizes
/// (quadratic/cubic in document size), optimized stays near-linear.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "dsl/reference_eval.h"
#include "workload/corpus.h"
#include "workload/docgen.h"
#include "xml/xml_parser.h"

namespace mitra {
namespace {

struct Scenario {
  const char* corpus_id;
};

const Scenario kScenarios[] = {
    {"xml-09-emp-dept"},      // value-reference join
    {"xml-21-enrollments"},   // two-link join
    {"xml-45-hr-records"},    // 5-column multi-reference join
};

const workload::CorpusTask* FindTask(const std::string& id) {
  static const std::vector<workload::CorpusTask> corpus =
      workload::XmlCorpus();
  for (const auto& t : corpus) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

}  // namespace

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int max_factor = static_cast<int>(args.Int("max-factor", 250));

  std::printf(
      "== Ablation A1: naive cross-product evaluation vs optimized "
      "execution (App. C) ==\n");
  std::printf("%-22s %8s %10s %12s %12s %9s\n", "task", "factor",
              "elements", "naive(s)", "optimized(s)", "speedup");

  for (const Scenario& sc : kScenarios) {
    const workload::CorpusTask* task = FindTask(sc.corpus_id);
    if (task == nullptr) continue;
    auto tree = xml::ParseXml(task->document);
    auto table = hdt::Table::FromRows(task->output);
    if (!tree.ok() || !table.ok()) continue;
    auto result = core::LearnTransformation(*tree, *table);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: synthesis failed\n", task->id.c_str());
      continue;
    }
    std::set<std::string> preserve;
    for (const dsl::Atom& a : result->program.atoms) {
      if (a.rhs_is_const) preserve.insert(a.rhs_const);
    }
    for (int factor = 10; factor <= max_factor; factor *= 5) {
      hdt::Hdt big = workload::ReplicateDocument(
          *tree, factor, /*mutate_strings=*/true, &preserve);

      dsl::ReferenceEvalOptions naive_opts;
      naive_opts.max_intermediate_tuples = 50'000'000;
      bench::Timer naive_timer;
      auto naive = dsl::ReferenceEvalProgram(big, result->program, naive_opts);
      double naive_s = naive_timer.Seconds();

      core::OptimizedExecutor exec(result->program);
      bench::Timer opt_timer;
      auto fast = exec.Execute(big);
      double opt_s = opt_timer.Seconds();

      std::printf("%-22s %8d %10zu %12.3f %12.3f %8.1fx%s\n",
                  task->id.c_str(), factor, big.NumElements(),
                  naive.ok() ? naive_s : -1.0, opt_s,
                  naive.ok() && opt_s > 0 ? naive_s / opt_s : 0.0,
                  naive.ok() ? "" : "  (naive exceeded budget)");
    }
  }
  std::printf(
      "\n(The naive column reproduces the paper's outlier behaviour — "
      "cross-product growth; the optimized column is the shipped "
      "executor.)\n");
  return 0;
}

}  // namespace mitra

int main(int argc, char** argv) { return mitra::Run(argc, argv); }
