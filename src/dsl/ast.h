#ifndef MITRA_DSL_AST_H_
#define MITRA_DSL_AST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file ast.h
/// Abstract syntax for the paper's tree-to-table DSL (Figure 6):
///
///   Program    P := λτ. filter(ψ, λt. φ)
///   TableExt   ψ := (λs.π){root(τ)} | ψ1 × ψ2
///   ColumnExt  π := s | children(π,tag) | pchildren(π,tag,pos)
///                 | descendants(π,tag)
///   Predicate  φ := ((λn.ϕ) t[i]) ⋈ c | ((λn.ϕ1) t[i]) ⋈ ((λn.ϕ2) t[j])
///                 | φ∧φ | φ∨φ | ¬φ
///   NodeExt    ϕ := n | parent(ϕ) | child(ϕ,tag,pos)
///
/// Because both π and ϕ are linear (each operator's first argument is the
/// nested extractor), they are represented as operator *sequences* — which
/// is also exactly the word-view the DFA learner needs (§5.1).

namespace mitra::dsl {

/// Version tag for the DSL's *concrete syntax* (the printer/parser pair).
/// The on-disk program cache (src/pipeline) keys entries on this string, so
/// bump it whenever ToString output or ParseProgram acceptance changes in a
/// way that is not round-trip compatible — stale cache entries then miss
/// instead of being mis-parsed.
inline constexpr std::string_view kDslVersion = "mitra-dsl-1";

// ---------------------------------------------------------------------------
// Column extractors
// ---------------------------------------------------------------------------

/// One column-extractor operator application.
enum class ColOp : uint8_t {
  kChildren,     ///< children(π, tag)
  kPChildren,    ///< pchildren(π, tag, pos)
  kDescendants,  ///< descendants(π, tag)
};

/// A single step of a column extractor.
struct ColStep {
  ColOp op;
  std::string tag;
  int32_t pos = 0;  ///< Only meaningful for kPChildren.

  bool operator==(const ColStep&) const = default;
};

/// A column extractor π, applied to the singleton set {root(τ)}.
/// An empty step list is the base case `s` (the root itself).
struct ColumnExtractor {
  std::vector<ColStep> steps;

  bool operator==(const ColumnExtractor&) const = default;
  /// Number of DSL constructs (used by the cost function θ).
  int NumConstructs() const { return static_cast<int>(steps.size()); }
};

/// Value hash of a column extractor (consistent with operator==): the key
/// every column-extraction cache uses, so no lookup renders ToString.
struct ColumnExtractorHash {
  size_t operator()(const ColumnExtractor& pi) const noexcept;
};

// ---------------------------------------------------------------------------
// Node extractors
// ---------------------------------------------------------------------------

/// One node-extractor operator application.
enum class NodeOp : uint8_t {
  kParent,  ///< parent(ϕ)
  kChild,   ///< child(ϕ, tag, pos)
};

/// A single step of a node extractor.
struct NodeStep {
  NodeOp op;
  std::string tag;  ///< Only meaningful for kChild.
  int32_t pos = 0;  ///< Only meaningful for kChild.

  bool operator==(const NodeStep&) const = default;
};

/// A node extractor ϕ, applied to one tree node. Empty = identity (`n`).
struct NodeExtractor {
  std::vector<NodeStep> steps;

  bool operator==(const NodeExtractor&) const = default;
  int NumConstructs() const { return static_cast<int>(steps.size()); }
};

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

/// Comparison operator ⋈.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the operator with swapped operand order (e.g. < becomes >).
CmpOp SwapCmpOp(CmpOp op);
/// Returns the logical negation (e.g. < becomes >=).
CmpOp NegateCmpOp(CmpOp op);

/// An atomic predicate: either `((λn.ϕ) t[i]) ⋈ c` (constant form) or
/// `((λn.ϕ1) t[i]) ⋈ ((λn.ϕ2) t[j])` (node-node form).
struct Atom {
  NodeExtractor lhs_path;
  int lhs_col = 0;  ///< i — 0-based tuple index.
  CmpOp op = CmpOp::kEq;

  bool rhs_is_const = false;
  std::string rhs_const;       ///< Used when rhs_is_const.
  NodeExtractor rhs_path;      ///< Used when !rhs_is_const.
  int rhs_col = 0;             ///< j — used when !rhs_is_const.

  bool operator==(const Atom&) const = default;
  int NumConstructs() const {
    return 1 + lhs_path.NumConstructs() +
           (rhs_is_const ? 0 : rhs_path.NumConstructs());
  }
};

/// A literal in a DNF clause: an atom index, possibly negated.
struct Literal {
  int atom = 0;
  bool negated = false;

  bool operator==(const Literal&) const = default;
};

/// A predicate in disjunctive normal form: OR over AND-clauses of
/// literals. An empty clause list means `false`; a DNF containing an
/// empty clause means `true`. This is the exact shape the learner
/// produces (§5.2: smallest DNF over the minimum atom set).
struct Dnf {
  std::vector<std::vector<Literal>> clauses;

  bool operator==(const Dnf&) const = default;
  static Dnf True() { return Dnf{{{}}}; }
  static Dnf False() { return Dnf{}; }
  bool IsTrue() const {
    for (const auto& c : clauses) {
      if (c.empty()) return true;
    }
    return false;
  }
  /// Total number of literals (used by θ as a tie-breaker).
  int NumLiterals() const {
    int n = 0;
    for (const auto& c : clauses) n += static_cast<int>(c.size());
    return n;
  }
};

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// A complete program λτ. filter(π1 × … × πk, λt. φ). The atoms referenced
/// by `formula` live in the shared `atoms` pool.
struct Program {
  std::vector<ColumnExtractor> columns;
  std::vector<Atom> atoms;
  Dnf formula = Dnf::True();

  size_t NumCols() const { return columns.size(); }
  /// Number of *distinct* atoms actually referenced by the formula
  /// (the paper's primary cost-function component).
  int NumUsedAtoms() const;
  /// Canonicalizes the atom set to match the printed form (which is the
  /// program-cache serialization): atoms are deduplicated and reordered
  /// by first appearance in the formula, unreferenced atoms are dropped,
  /// and literals are re-indexed. Evaluation semantics are unchanged.
  /// After Normalize(), ParseProgram(ToString(*this)) reproduces this
  /// AST exactly — the round-trip invariant fuzz_regression_test pins.
  void Normalize();
};

// ---------------------------------------------------------------------------
// Cost function θ (§6 "Cost function")
// ---------------------------------------------------------------------------

/// Lexicographic program cost: fewer atoms first, then fewer column-
/// extractor constructs, then smaller formula / node extractors.
struct Cost {
  int atoms = 0;
  int col_constructs = 0;
  int detail = 0;  ///< literals + node-extractor steps (tie-breaker)

  auto operator<=>(const Cost&) const = default;
  /// The "infinite" cost assigned to ⊥ (no program).
  static Cost Max();
};

/// Computes θ(P).
Cost ProgramCost(const Program& p);

// ---------------------------------------------------------------------------
// Pretty-printing (paper-style concrete syntax)
// ---------------------------------------------------------------------------

/// Renders e.g. "pchildren(children(s, Person), name, 0)".
std::string ToString(const ColumnExtractor& pi);
/// Renders e.g. "child(parent(n), id, 0)".
std::string ToString(const NodeExtractor& phi);
/// Renders "=", "!=", "<", "<=", ">", ">=".
std::string ToString(CmpOp op);
/// Renders e.g. "((λn. parent(n)) t[0]) = ((λn. parent(n)) t[2])".
std::string ToString(const Atom& a);
/// Renders the DNF over the given atom pool.
std::string ToString(const Dnf& f, const std::vector<Atom>& atoms);
/// Renders the whole program in the paper's λ-notation.
std::string ToString(const Program& p);

}  // namespace mitra::dsl

#endif  // MITRA_DSL_AST_H_
