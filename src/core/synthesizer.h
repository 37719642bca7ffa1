#ifndef MITRA_CORE_SYNTHESIZER_H_
#define MITRA_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "core/column_learner.h"
#include "core/example.h"
#include "core/executor.h"
#include "core/predicate_learner.h"
#include "dsl/ast.h"

/// \file synthesizer.h
/// The top-level synthesis algorithm LearnTransformation (Algorithm 1):
///
///   1. learn a candidate extractor set Πj per output column (§5.1);
///   2. iterate table extractors ψ ∈ Π1 × … × Πk in increasing cost;
///   3. for each ψ, learn a filtering predicate φ (§5.2);
///   4. among all consistent programs, return the one minimizing the
///      Occam cost θ (fewest atoms, then fewest extractor constructs).
///
/// Every returned program is verified against all examples before being
/// accepted (Theorem 3's soundness, checked end-to-end by VerifyOnExample
/// with the same optimized executor that migrations run).

namespace mitra::core {

struct SynthesisOptions {
  ColumnLearnOptions column;
  PredicateLearnOptions predicate;
  /// Cap on the number of table extractors ψ explored (cheapest-first).
  size_t max_table_extractors = 64;
  /// Stop after this many consistent programs have been found and ranked
  /// (ψ are explored cheapest-first, so later candidates rarely win on
  /// the θ ranking; the paper's running example found 4).
  size_t max_consistent_programs = 6;
  /// Wall-clock budget; the paper used 120 s for the database experiment.
  /// Folded into `limits.time_limit_seconds` when that one is unset, so
  /// existing callers keep working unchanged.
  double time_limit_seconds = 120.0;
  /// Aggregate resource budgets (states, rows, memory, time) enforced
  /// cooperatively through a Governor threaded into every phase. The
  /// per-phase caps in `column`/`predicate` remain the *deterministic*
  /// enforcement layer; these are global guards whose exact trip point
  /// may vary with thread count but always yields kResourceExhausted.
  common::ResourceLimits limits;
  /// External governor (not owned; must outlive the call). When null,
  /// LearnTransformation creates one per call from `limits` (with
  /// `time_limit_seconds` as its deadline). Supplying one lets a caller
  /// — e.g. the migrator — share a deadline and cancellation token
  /// across several synthesis runs; `limits`/`time_limit_seconds` are
  /// then ignored in favour of the supplied governor's.
  common::Governor* governor = nullptr;
  /// Worker threads for Phase 1 (the k independent per-column learners)
  /// and Phase 2 (wave-based evaluation of candidate table extractors).
  /// 1 = the sequential path; 0 = hardware concurrency. Every value
  /// synthesizes the *same* program: waves are popped in the sequential
  /// frontier order and merged back in that order, so ranking, pruning,
  /// and stopping decisions replay the single-threaded run exactly
  /// (modulo the wall-clock time limit, which is inherently timing-
  /// dependent).
  int num_threads = 1;
};

/// Per-synthesis statistics, reported by the evaluation harness.
struct SynthesisStats {
  std::vector<size_t> candidates_per_column;
  size_t table_extractors_tried = 0;
  size_t table_extractors_consistent = 0;
  size_t max_universe_size = 0;
  /// Cross-candidate memo traffic: χᵢ and constant-pool lookups (column
  /// extractions count under exec/column_cache/* in `metrics`).
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  /// Whether the returned program's predicate came from a set cover
  /// proven minimal (Thm 2). False when branch and bound exhausted its
  /// node budget and kept the best cover found (seeded by the greedy
  /// one), or when `predicate.exact_cover` is off.
  bool cover_optimal = true;
  double seconds = 0.0;
  /// Governor accounting for the run (all-zero when an external governor
  /// was supplied — its owner reads the shared usage directly).
  common::BudgetUsage usage;
  /// Observability snapshot (ISSUE 7): per-run delta of every `obs`
  /// counter that moved during this LearnTransformation call, keyed by
  /// the `layer/phase/name` scheme (see DESIGN.md). The underlying
  /// registry is process-global, so concurrent synthesis runs in other
  /// threads mix into the delta; single-run callers (the CLI, benches,
  /// tests) get exact per-run numbers. Empty when MITRA_OBS=0.
  std::map<std::string, std::uint64_t> metrics;
};

struct SynthesisResult {
  dsl::Program program;
  SynthesisStats stats;
};

/// What VerifyOnExample learns about a program that reproduces an example.
struct VerifiedExample {
  /// The surviving node tuples (the executor's order), one per raw row.
  std::vector<dsl::NodeTuple> tuples;
  /// Raw rows minus distinct rows: duplicates appear when distinct node
  /// tuples project to the same data row. A program that keeps extra
  /// witnesses on the training example (typically via a coincidental
  /// data-level equality) will mis-pair rows at scale, so the ranking
  /// prefers the smaller value.
  size_t excess = 0;
  /// Sum over tuples of the tree distance from t[0] to every other
  /// component: rows are relations between tree nodes (§1), and among
  /// otherwise-equal programs the one whose witness nodes sit close
  /// together is the intended relation, not a coincidental value match
  /// pulled from a distant subtree.
  size_t spread = 0;
};

/// Checks ⟦P⟧T = R on one example as row sets (Theorem 3's soundness):
/// runs `p` on `tree` with the optimized executor — the engine migrations
/// use, so the verified program is the one that runs — and compares its
/// distinct rows with `want_norm`, which must be the example table already
/// Dedup()ed and SortRows()ed. `eval.max_intermediate_tuples` caps the
/// emitted rows and `eval.governor` is charged and polled; `columns`, when
/// given, must be bound to `tree` and serves the column extractions.
/// kSynthesisFailure when the rows differ; the executor's error (a cap or
/// a tripped governor) when it fails.
Result<VerifiedExample> VerifyOnExample(const hdt::Hdt& tree,
                                        const hdt::Table& want_norm,
                                        const dsl::Program& p,
                                        const dsl::EvalOptions& eval,
                                        ColumnCache* columns = nullptr);

/// Synthesizes the simplest DSL program consistent with all examples.
/// Fails with kSynthesisFailure if no explored program is consistent and
/// kResourceExhausted on budget overrun with no solution found.
Result<SynthesisResult> LearnTransformation(const Examples& examples,
                                            const SynthesisOptions& opts = {});

/// Convenience wrapper: single example.
Result<SynthesisResult> LearnTransformation(const hdt::Hdt& tree,
                                            const hdt::Table& table,
                                            const SynthesisOptions& opts = {});

/// Best-effort synthesis (the paper's §9 future work): when no DSL
/// program satisfies *all* examples, return a program satisfying as many
/// as possible, together with the indices it satisfies. Subsets are
/// explored largest-first; a program found for a subset is additionally
/// checked against the left-out examples (it may satisfy them anyway).
struct BestEffortResult {
  dsl::Program program;
  /// Indices into the input example vector that the program reproduces.
  std::vector<size_t> satisfied;
  SynthesisStats stats;
};

Result<BestEffortResult> LearnBestEffortTransformation(
    const Examples& examples, const SynthesisOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_SYNTHESIZER_H_
