#include "dsl/ast.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "common/strings.h"

namespace mitra::dsl {

size_t ColumnExtractorHash::operator()(
    const ColumnExtractor& pi) const noexcept {
  uint64_t h = pi.steps.size();
  for (const ColStep& st : pi.steps) {
    h = HashCombine(h, static_cast<uint64_t>(st.op));
    h = HashCombine(h, std::hash<std::string>{}(st.tag));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(st.pos)));
  }
  return static_cast<size_t>(h);
}

CmpOp SwapCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

CmpOp NegateCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return op;
}

int Program::NumUsedAtoms() const {
  std::set<int> used;
  for (const auto& clause : formula.clauses) {
    for (const Literal& lit : clause) used.insert(lit.atom);
  }
  return static_cast<int>(used.size());
}

void Program::Normalize() {
  std::vector<Atom> kept;
  for (auto& clause : formula.clauses) {
    for (Literal& lit : clause) {
      const Atom& a = atoms[static_cast<size_t>(lit.atom)];
      int idx = -1;
      for (size_t i = 0; i < kept.size(); ++i) {
        if (kept[i] == a) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(kept.size());
        kept.push_back(a);
      }
      lit.atom = idx;
    }
  }
  atoms = std::move(kept);
}

Cost Cost::Max() {
  return Cost{std::numeric_limits<int>::max(),
              std::numeric_limits<int>::max(),
              std::numeric_limits<int>::max()};
}

Cost ProgramCost(const Program& p) {
  Cost c;
  c.atoms = p.NumUsedAtoms();
  for (const auto& col : p.columns) c.col_constructs += col.NumConstructs();
  c.detail = p.formula.NumLiterals();
  std::set<int> used;
  for (const auto& clause : p.formula.clauses) {
    for (const Literal& lit : clause) used.insert(lit.atom);
  }
  for (int ai : used) c.detail += p.atoms[ai].NumConstructs();
  return c;
}

std::string ToString(const ColumnExtractor& pi) {
  std::string out = "s";
  for (const ColStep& st : pi.steps) {
    switch (st.op) {
      case ColOp::kChildren:
        out = "children(" + out + ", " + st.tag + ")";
        break;
      case ColOp::kPChildren:
        out = "pchildren(" + out + ", " + st.tag + ", " +
              std::to_string(st.pos) + ")";
        break;
      case ColOp::kDescendants:
        out = "descendants(" + out + ", " + st.tag + ")";
        break;
    }
  }
  return out;
}

std::string ToString(const NodeExtractor& phi) {
  std::string out = "n";
  for (const NodeStep& st : phi.steps) {
    switch (st.op) {
      case NodeOp::kParent:
        out = "parent(" + out + ")";
        break;
      case NodeOp::kChild:
        out = "child(" + out + ", " + st.tag + ", " +
              std::to_string(st.pos) + ")";
        break;
    }
  }
  return out;
}

std::string ToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ToString(const Atom& a) {
  std::string out = "((\xce\xbbn. " + ToString(a.lhs_path) + ") t[" +
                    std::to_string(a.lhs_col) + "]) " + ToString(a.op) + " ";
  if (a.rhs_is_const) {
    // Backslash-escape so constants containing '"' or '\' round-trip
    // through the concrete-syntax parser.
    out += '"';
    for (char c : a.rhs_const) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  } else {
    out += "((\xce\xbbn. " + ToString(a.rhs_path) + ") t[" +
           std::to_string(a.rhs_col) + "])";
  }
  return out;
}

std::string ToString(const Dnf& f, const std::vector<Atom>& atoms) {
  if (f.clauses.empty()) return "false";
  if (f.IsTrue()) return "true";
  std::string out;
  for (size_t ci = 0; ci < f.clauses.size(); ++ci) {
    if (ci > 0) out += " \xe2\x88\xa8 ";
    const auto& clause = f.clauses[ci];
    std::string cs;
    for (size_t li = 0; li < clause.size(); ++li) {
      if (li > 0) cs += " \xe2\x88\xa7 ";
      if (clause[li].negated) cs += "\xc2\xac";
      cs += '(';
      cs += ToString(atoms[clause[li].atom]);
      cs += ')';
    }
    if (f.clauses.size() > 1 && clause.size() > 1) {
      out += '(';
      out += cs;
      out += ')';
    } else {
      out += cs;
    }
  }
  return out;
}

std::string ToString(const Program& p) {
  std::string out = "\xce\xbb\xcf\x84. filter(";
  for (size_t i = 0; i < p.columns.size(); ++i) {
    if (i > 0) out += " \xc3\x97 ";
    out += "(\xce\xbbs." + ToString(p.columns[i]) + "){root(\xcf\x84)}";
  }
  out += ", \xce\xbbt. " + ToString(p.formula, p.atoms) + ")";
  return out;
}

}  // namespace mitra::dsl
