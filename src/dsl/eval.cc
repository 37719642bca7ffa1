#include "dsl/eval.h"

#include <algorithm>

#include "common/strings.h"

namespace mitra::dsl {

std::vector<hdt::NodeId> EvalColumn(const hdt::Hdt& tree,
                                    const ColumnExtractor& pi) {
  if (tree.empty()) return {};
  std::vector<hdt::NodeId> cur{tree.root()};
  // Scratch reused across steps (swap-and-clear): the per-step allocation
  // dominated profile on long extractors over large documents.
  std::vector<hdt::NodeId> next;
  const bool frozen = tree.frozen();
  for (const ColStep& st : pi.steps) {
    next.clear();
    auto tag = tree.LookupTag(st.tag);
    if (!tag) return {};  // tag absent from this tree: empty set
    switch (st.op) {
      case ColOp::kChildren:
        if (frozen) {
          size_t total = 0;
          for (hdt::NodeId n : cur) {
            total += tree.ChildrenWithTagSpan(n, *tag).size();
          }
          next.reserve(total);
          for (hdt::NodeId n : cur) {
            auto s = tree.ChildrenWithTagSpan(n, *tag);
            next.insert(next.end(), s.begin(), s.end());
          }
        } else {
          for (hdt::NodeId n : cur) tree.ChildrenWithTag(n, *tag, &next);
        }
        break;
      case ColOp::kPChildren:
        for (hdt::NodeId n : cur) {
          hdt::NodeId c = tree.ChildWithTagPos(n, *tag, st.pos);
          if (c != hdt::kInvalidNode) next.push_back(c);
        }
        break;
      case ColOp::kDescendants:
        if (frozen) {
          size_t total = 0;
          for (hdt::NodeId n : cur) {
            total += tree.DescendantsWithTagSpan(n, *tag).size();
          }
          next.reserve(total);
          for (hdt::NodeId n : cur) {
            auto s = tree.DescendantsWithTagSpan(n, *tag);
            next.insert(next.end(), s.begin(), s.end());
          }
        } else {
          for (hdt::NodeId n : cur) tree.DescendantsWithTag(n, *tag, &next);
        }
        break;
    }
    // Set semantics: sort (document order) and dedup. Children of distinct
    // parents are distinct, but descendants of overlapping subtrees are not.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    std::swap(cur, next);
    if (cur.empty()) break;
  }
  return cur;
}

hdt::NodeId EvalNodeExtractor(const hdt::Hdt& tree, const NodeExtractor& phi,
                              hdt::NodeId n) {
  for (const NodeStep& st : phi.steps) {
    if (n == hdt::kInvalidNode) return hdt::kInvalidNode;
    switch (st.op) {
      case NodeOp::kParent:
        n = tree.Parent(n);
        break;
      case NodeOp::kChild: {
        auto tag = tree.LookupTag(st.tag);
        if (!tag) return hdt::kInvalidNode;
        n = tree.ChildWithTagPos(n, *tag, st.pos);
        break;
      }
    }
  }
  return n;
}

namespace {

bool ApplyCmp(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace

bool EvalAtom(const hdt::Hdt& tree, const Atom& atom, const NodeTuple& t) {
  if (atom.lhs_col < 0 || static_cast<size_t>(atom.lhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n1 = EvalNodeExtractor(tree, atom.lhs_path, t[atom.lhs_col]);
  if (n1 == hdt::kInvalidNode) return false;

  if (atom.rhs_is_const) {
    // ⟦((λn.ϕ) t[i]) ⋈ c⟧ = n'.data ⋈ c  (nil data never satisfies).
    if (!tree.HasData(n1)) return false;
    return ApplyCmp(atom.op, CompareData(tree.Data(n1), atom.rhs_const));
  }

  if (atom.rhs_col < 0 || static_cast<size_t>(atom.rhs_col) >= t.size()) {
    return false;
  }
  hdt::NodeId n2 = EvalNodeExtractor(tree, atom.rhs_path, t[atom.rhs_col]);
  if (n2 == hdt::kInvalidNode) return false;

  bool leaf1 = tree.IsLeaf(n1);
  bool leaf2 = tree.IsLeaf(n2);
  if (leaf1 && leaf2) {
    return ApplyCmp(atom.op, CompareData(tree.Data(n1), tree.Data(n2)));
  }
  if (!leaf1 && !leaf2 && atom.op == CmpOp::kEq) {
    return n1 == n2;  // node identity (Fig. 7)
  }
  return false;
}

Status CheckColumnCount(size_t num_columns) {
  if (num_columns <= kMaxEvalColumns) return Status::OK();
  return Status::ResourceExhausted(
      "program has " + std::to_string(num_columns) + " columns (limit " +
      std::to_string(kMaxEvalColumns) + ")");
}

Result<std::vector<NodeTuple>> CrossProduct(
    const std::vector<const std::vector<hdt::NodeId>*>& columns,
    const EvalOptions& opts) {
  MITRA_RETURN_IF_ERROR(CheckColumnCount(columns.size()));
  uint64_t total = 1;
  for (const std::vector<hdt::NodeId>* col : columns) {
    total *= col->size();
    if (col->empty()) return std::vector<NodeTuple>{};
    if (total > opts.max_intermediate_tuples) {
      return Status::ResourceExhausted(
          "intermediate table would have " + std::to_string(total) +
          " tuples (limit " + std::to_string(opts.max_intermediate_tuples) +
          ")");
    }
  }
  if (opts.governor != nullptr) {
    // The size is known exactly before materialization; charge it all up
    // front so an over-budget product is rejected before allocation.
    MITRA_RETURN_IF_ERROR(
        opts.governor->ChargeRows(total, "eval/cross-product"));
    MITRA_RETURN_IF_ERROR(opts.governor->ChargeBytes(
        total * columns.size() * sizeof(hdt::NodeId),
        "alloc/cross-product"));
  }
  std::vector<NodeTuple> out;
  if (columns.empty()) return out;
  out.reserve(static_cast<size_t>(total));
  NodeTuple t(columns.size());
  // Odometer enumeration: column 0 is the outermost loop, matching the
  // row order of the paper's intermediate-table figure (Fig. 4b).
  std::vector<size_t> idx(columns.size(), 0);
  while (true) {
    if (opts.governor != nullptr && (out.size() & 0xFFF) == 0xFFF) {
      MITRA_GOV_CHECK(opts.governor, "eval/cross-product");
    }
    for (size_t i = 0; i < columns.size(); ++i) t[i] = (*columns[i])[idx[i]];
    out.push_back(t);
    size_t i = columns.size();
    while (i > 0) {
      --i;
      if (++idx[i] < columns[i]->size()) break;
      idx[i] = 0;
      if (i == 0) return out;
    }
  }
}

hdt::Row ProjectData(const hdt::Hdt& tree, const NodeTuple& t) {
  hdt::Row row;
  row.reserve(t.size());
  for (hdt::NodeId n : t) row.emplace_back(tree.Data(n));
  return row;
}

}  // namespace mitra::dsl
