#ifndef MITRA_TESTING_ORACLES_H_
#define MITRA_TESTING_ORACLES_H_

#include <string>

#include "dsl/ast.h"
#include "hdt/hdt.h"
#include "testing/rng.h"

/// \file oracles.h
/// The three oracle classes of the differential-testing subsystem:
///
///  1. differential execution — the optimized executor (sequential,
///     pooled, column-cached) must produce tuple-identical results to the
///     independent naive reference evaluator in dsl/reference_eval;
///  2. round-trip properties — writer∘parser is the identity on
///     parser-image HDTs (XML and JSON) and printer∘parser is the
///     identity on DSL programs;
///  3. synthesis soundness — synthesizing from (d, ⟦P⟧d) yields a program
///     that reproduces ⟦P⟧d on d; the check is then repeated on an
///     enlarged d' with its re-derived example table (d', ⟦P⟧d').
///
/// Every check returns a CheckResult whose failure string is
/// self-contained (document dump + program text + both outputs), so a
/// test can print it together with the generating seed as a replayable
/// reproducer.

namespace mitra::common {
class ThreadPool;
}  // namespace mitra::common

namespace mitra::testing {

struct CheckResult {
  bool ok = true;
  /// True when the generated case was vacuous for this oracle (e.g. the
  /// derived example table is empty, so synthesis has nothing to learn
  /// from). Skipped cases count toward neither pass nor fail.
  bool skipped = false;
  std::string failure;

  static CheckResult Pass() { return {}; }
  static CheckResult Skip() { return {true, true, {}}; }
  static CheckResult Fail(std::string msg) {
    return {false, false, std::move(msg)};
  }
};

/// Oracle 1: all execution paths agree on `program` over `tree`.
/// Compares, as sorted tuple multisets: the reference evaluator, the
/// optimized executor (sequential), the optimized
/// executor on `pool` (when non-null), and the optimized executor with a
/// shared ColumnCache (run twice, so the second run exercises hits).
/// Additionally requires the pooled tuple *sequence* to be identical to
/// the sequential one (the parallel merge is order-preserving).
CheckResult CheckExecutionEquivalence(const hdt::Hdt& tree,
                                      const dsl::Program& program,
                                      common::ThreadPool* pool = nullptr);

/// Oracle 2a: XML writer∘parser identity on a parser-image tree, plus
/// write-normal-form idempotence, for pretty and compact output.
CheckResult CheckXmlRoundTrip(const hdt::Hdt& tree);

/// Oracle 2b: JSON writer∘parser identity, same structure as 2a.
CheckResult CheckJsonRoundTrip(const hdt::Hdt& tree);

/// Oracle 2c: DSL printer∘parser identity (exact AST equality).
CheckResult CheckDslRoundTrip(const dsl::Program& program);

/// Oracle 3: synthesis soundness. Derives ⟦P⟧d with the reference
/// evaluator, synthesizes from the example, and checks that the result,
/// run by the optimized executor, reproduces ⟦P⟧d on d; then enlarges d
/// to d' (from *rng, which must be seeded deterministically), derives
/// ⟦P⟧d', re-synthesizes from the enlarged example, and checks that
/// result on d'. (The program learned from d alone is *not* required to
/// match on d': when a cheaper program agrees on d and diverges on d',
/// Occam ranking legitimately picks it — only the enlarged example pins
/// the behavior down.) Skips cases whose derived table is empty,
/// oversized (> 24 rows), or contains nil-data cells (not learnable
/// targets, §4).
CheckResult CheckSynthesisSoundness(const hdt::Hdt& tree,
                                    const dsl::Program& program, Rng* rng,
                                    double time_limit_seconds = 20.0);

}  // namespace mitra::testing

#endif  // MITRA_TESTING_ORACLES_H_
