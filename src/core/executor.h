#ifndef MITRA_CORE_EXECUTOR_H_
#define MITRA_CORE_EXECUTOR_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "dsl/ast.h"
#include "dsl/eval.h"
#include "hdt/hdt.h"
#include "hdt/table.h"

/// \file executor.h
/// Optimized program execution (§6 "Program optimization", Appendix C).
///
/// The naive semantics materializes the full cross product π1 × … × πk and
/// filters afterwards. This executor instead plans each DNF clause as a
/// nested-loop enumeration with:
///  - each column evaluated once and cached (the paper's memoization of
///    shared computations);
///  - unary literals applied as upfront column filters;
///  - every literal checked at the outermost loop level where all its
///    columns are bound (early filtering);
///  - one positive equality literal per level used as a *hash join*: the
///    level's candidates are indexed by the literal's key so enumeration
///    probes instead of scanning — this subsumes Appendix C's
///    shared-prefix rewriting (both avoid enumerating pairs that violate
///    the equality; the hash index additionally works when the equated
///    extractors do not share a syntactic prefix).
///
/// This is the library's only program evaluator: synthesis verifies every
/// candidate with it (VerifyOnExample), the migrator derives example
/// tuples and migrates documents with it. Equivalence with the naive
/// Fig.-7 oracle (dsl/reference_eval.h) is property-tested.

namespace mitra::common {
class ThreadPool;
}  // namespace mitra::common

namespace mitra::core {

/// The one column-extraction cache (the paper's §6 memoization, shared
/// across programs as its §9 future work suggests): the per-table
/// programs of a migration share one per document (every IMDB table
/// program scans `descendants(s, movies)`), and synthesis shares one per
/// example tree across its candidate ψ (ExtractorMemoCache). A cache is
/// bound to the tree it serves, which must outlive it, and is keyed by
/// extractor value; the executor rejects a cache bound to another tree.
///
/// Thread-safe: the migrator executes per-table programs concurrently
/// against one shared cache. Insertion is first-wins (extractions are pure
/// functions of the tree, so concurrent computes yield equal values) and
/// never invalidates previously returned references (unordered_map nodes
/// are stable). Lookups count under exec/column_cache/{hits,misses}.
class ColumnCache {
 public:
  explicit ColumnCache(const hdt::Hdt& tree) : tree_(&tree) {}

  /// dsl::EvalColumn(tree(), pi), computed on first request.
  const std::vector<hdt::NodeId>& Get(const dsl::ColumnExtractor& pi);
  const hdt::Hdt& tree() const { return *tree_; }
  size_t size() const;
  /// Number of Get hits (for the memoization benchmark).
  size_t hits() const;

 private:
  const hdt::Hdt* tree_;
  mutable std::mutex mu_;
  std::unordered_map<dsl::ColumnExtractor, std::vector<hdt::NodeId>,
                     dsl::ColumnExtractorHash>
      cache_;
  size_t hits_ = 0;
};

struct ExecuteOptions {
  /// Safety cap on emitted result rows.
  uint64_t max_output_rows = 100'000'000;
  /// Optional resource governor: emitted rows are charged in batches and
  /// the scan loops poll for cancellation/deadline every few thousand
  /// iterations (bounded-latency checks, including on clauses that emit
  /// nothing).
  common::Governor* governor = nullptr;
  /// Optional cross-program column cache (see ColumnCache); it must be
  /// bound to the executed tree. Without one, identical columns within
  /// the program are still evaluated once.
  ColumnCache* column_cache = nullptr;
  /// Optional worker pool (not owned): each clause's outermost loop level
  /// is chunked into contiguous candidate ranges enumerated concurrently
  /// and merged back in range order, so the emitted tuple sequence is
  /// identical to the sequential run. nullptr = sequential.
  common::ThreadPool* pool = nullptr;
};

/// A compiled execution plan for one program. Reusable across input trees.
class OptimizedExecutor {
 public:
  explicit OptimizedExecutor(const dsl::Program& program);

  /// Runs the plan, returning surviving node tuples. kInvalidArgument
  /// when `opts.column_cache` is bound to a different tree.
  Result<std::vector<dsl::NodeTuple>> ExecuteNodes(
      const hdt::Hdt& tree, const ExecuteOptions& opts = {}) const;

  /// Runs the plan, returning the data-projected table.
  Result<hdt::Table> Execute(const hdt::Hdt& tree,
                             const ExecuteOptions& opts = {}) const;

  /// Human-readable plan description (per clause: filters, joins, checks)
  /// for debugging and the ablation benchmark.
  std::string DescribePlan() const;

 private:
  struct Driver {
    int literal_index = -1;   ///< index into the clause
    int probe_col = 0;        ///< already-bound column supplying the key
    bool probe_is_lhs = false;  ///< atom side bound before this level
  };
  struct LevelPlan {
    int column = 0;  ///< which program column this loop level binds
    std::vector<int> unary_literals;  ///< literals over this column only
    std::vector<int> check_literals;  ///< binary literals resolved here
    Driver driver;                    ///< hash-join driver (optional)
    bool has_driver = false;
  };
  struct ClausePlan {
    std::vector<dsl::Literal> literals;
    std::vector<LevelPlan> levels;
  };

  /// Plans one clause. Loop levels follow a join-graph order: each next
  /// column is preferably connected to an already-bound column by a
  /// positive equality literal, so its candidates come from a hash probe
  /// instead of a full scan — without this, a program whose equalities
  /// all involve the last column would enumerate the full cross product
  /// of the earlier ones.
  void PlanClause(const std::vector<dsl::Literal>& clause);

  dsl::Program program_;
  std::vector<ClausePlan> clauses_;
};

/// One-shot convenience wrapper.
Result<hdt::Table> ExecuteOptimized(const hdt::Hdt& tree,
                                    const dsl::Program& program,
                                    const ExecuteOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_EXECUTOR_H_
