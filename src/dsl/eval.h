#ifndef MITRA_DSL_EVAL_H_
#define MITRA_DSL_EVAL_H_

#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "dsl/ast.h"
#include "hdt/hdt.h"
#include "hdt/table.h"

/// \file eval.h
/// The DSL's semantics (Figure 7) below the program level: column and
/// node extractors, atomic predicates, data projection, and the
/// intermediate cross product ψ(τ) the predicate learner builds E+/E-
/// from. Whole programs run only in the optimized executor
/// (core/executor.h), which synthesis verification, the migrator and
/// every front end share; dsl/reference_eval.h is the independent naive
/// oracle the executor is property-tested against.

namespace mitra::dsl {

/// A tuple of tree nodes — one row of the intermediate table ψ(τ).
using NodeTuple = std::vector<hdt::NodeId>;

/// Evaluates a column extractor on {root(τ)}. Returns the extracted node
/// *set* in document order (ascending NodeId; ids are assigned in
/// preorder, so id order is document order).
std::vector<hdt::NodeId> EvalColumn(const hdt::Hdt& tree,
                                    const ColumnExtractor& pi);

/// Evaluates a node extractor on one node; kInvalidNode encodes ⊥.
hdt::NodeId EvalNodeExtractor(const hdt::Hdt& tree, const NodeExtractor& phi,
                              hdt::NodeId n);

/// Evaluates an atomic predicate on a tuple (Fig. 7 comparison rules:
/// leaf-leaf compares data — numerically when both sides parse as numbers;
/// internal-internal supports only `=`, meaning node identity; mixed or ⊥
/// yields false).
bool EvalAtom(const hdt::Hdt& tree, const Atom& atom, const NodeTuple& t);

/// Resource bounds for learn-time evaluation on the example.
struct EvalOptions {
  /// Maximum number of tuples to enumerate before giving up with
  /// kResourceExhausted: the predicate learner's cross product, and the
  /// output rows when a program is verified or run on its example.
  /// Mirrors MITRA's out-of-memory failure mode on oversized
  /// intermediate tables.
  uint64_t max_intermediate_tuples = 10'000'000;
  /// Optional resource governor: the cross product and the executor
  /// runs charge their rows to it and check it for cancellation.
  common::Governor* governor = nullptr;
};

/// Hard cap on a program's column count accepted by every evaluator
/// (reference, cross product, optimized executor). Mirrors the parsers'
/// kMaxNestingDepth guard: recursion over columns is bounded by this.
inline constexpr size_t kMaxEvalColumns = 256;

/// kResourceExhausted when `num_columns` exceeds kMaxEvalColumns.
Status CheckColumnCount(size_t num_columns);

/// The intermediate table ψ(τ) = π1(τ) × … × πk(τ) of already-evaluated
/// columns (the predicate learner passes memoized extractions to build
/// E+/E-). Rows are in odometer order, column 0 outermost (Fig. 4b).
/// Enforces kMaxEvalColumns and `max_intermediate_tuples`, charges the
/// governor for the whole product up front and polls it while
/// materializing.
Result<std::vector<NodeTuple>> CrossProduct(
    const std::vector<const std::vector<hdt::NodeId>*>& columns,
    const EvalOptions& opts = {});

/// Projects node tuples to their data strings (nil data → empty string).
hdt::Row ProjectData(const hdt::Hdt& tree, const NodeTuple& t);

}  // namespace mitra::dsl

#endif  // MITRA_DSL_EVAL_H_
