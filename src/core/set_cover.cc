#include "core/set_cover.h"

#include <algorithm>
#include <deque>

#include "obs/obs.h"

namespace mitra::core {

namespace {

/// Greedy cover: repeatedly pick the set covering the most uncovered
/// elements (ties → lower index). Guaranteed to terminate with a cover
/// when one exists.
std::vector<int> GreedyCover(const std::vector<DynBitset>& sets,
                             size_t num_elements) {
  DynBitset covered(num_elements);
  std::vector<int> chosen;
  size_t remaining = num_elements;
  while (remaining > 0) {
    int best = -1;
    size_t best_gain = 0;
    for (size_t k = 0; k < sets.size(); ++k) {
      size_t gain = sets[k].CountAndNot(covered);
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(k);
      }
    }
    if (best < 0) return {};  // uncoverable (caller pre-checks)
    chosen.push_back(best);
    covered |= sets[best];
    remaining -= best_gain;
  }
  return chosen;
}

/// Branch & bound over the reduced family. Per-node work is kept small:
/// the pivot is the first uncovered element in a static
/// fewest-candidates-first order, branching uses element→candidate-set
/// lists built the first time an element is a pivot, and the lower bound
/// uses the static maximum set size (an upper bound on any future gain).
///
/// A parent runs each child's prologue (Enter) before materialising the
/// child's covered set, so a child cut by the bound costs no copy; a
/// surviving child's covered set lives in a per-depth frame reused by its
/// siblings. Every counter and the search order are those of the plain
/// recursion "count the node, poll, test, bound, branch".
struct BnB {
  BnB(const std::vector<DynBitset>& sets, size_t num_elements,
      uint64_t budget, common::Governor* governor, std::vector<int> incumbent)
      : sets(sets),
        num_elements(num_elements),
        budget(budget),
        governor(governor),
        best(std::move(incumbent)) {}

  const std::vector<DynBitset>& sets;
  size_t num_elements;
  uint64_t budget;
  common::Governor* governor;
  uint64_t nodes = 0;
  uint64_t bounded = 0;  ///< subtrees cut by the lower-bound test
  bool exhausted = false;

  std::vector<uint32_t> num_candidates;         // element → #sets holding it
  std::vector<std::vector<int>> candidates_of;  // element → set ids (lazy)
  std::vector<size_t> element_order;            // fewest candidates first
  size_t max_set_size = 1;

  std::vector<int> best;         // best cover found
  std::vector<int> current;      // current partial selection
  std::deque<DynBitset> frames;  // covered set per depth (stable refs)

  void Init() {
    num_candidates.assign(num_elements, 0);
    for (const DynBitset& s : sets) {
      s.ForEachSetBit([&](size_t e) { ++num_candidates[e]; });
      max_set_size = std::max(max_set_size, s.Count());
    }
    candidates_of.assign(num_elements, {});
    element_order.resize(num_elements);
    for (size_t e = 0; e < num_elements; ++e) element_order[e] = e;
    std::stable_sort(element_order.begin(), element_order.end(),
                     [&](size_t a, size_t b) {
                       return num_candidates[a] < num_candidates[b];
                     });
  }

  /// The sets holding `e`, in increasing index. Every element has at
  /// least one (MinSetCover checks feasibility), so empty means unbuilt.
  const std::vector<int>& Candidates(size_t e) {
    std::vector<int>& list = candidates_of[e];
    if (list.empty()) {
      list.reserve(num_candidates[e]);
      for (size_t k = 0; k < sets.size(); ++k) {
        if (sets[k].Test(e)) list.push_back(static_cast<int>(k));
      }
    }
    return list;
  }

  /// A node's prologue, for the selection in `current` leaving
  /// `remaining` elements uncovered: counts it against the budget, polls
  /// the governor, records a complete cover and applies the lower bound.
  /// True when the node must still be branched on.
  bool Enter(size_t remaining) {
    if (++nodes > budget) {
      exhausted = true;
      return false;
    }
    if (governor != nullptr && (nodes & 0x3FF) == 0 &&
        !governor->Check("cover/branch-bound").ok()) {
      exhausted = true;  // incumbent stays valid; caller surfaces the cause
      return false;
    }
    if (remaining == 0) {
      if (best.empty() || current.size() < best.size()) best = current;
      return false;
    }
    // Lower bound with the static max set size.
    size_t lb = (remaining + max_set_size - 1) / max_set_size;
    if (!best.empty() && current.size() + lb >= best.size()) {
      ++bounded;
      return false;
    }
    return true;
  }

  /// Branches on the node whose covered set is `frames[depth]`. Every
  /// element before position `start` of `element_order` is covered.
  void Branch(size_t depth, size_t remaining, size_t start) {
    const DynBitset& covered = frames[depth];
    // Pivot: first uncovered element in static most-constrained order.
    size_t pos = start;
    while (covered.Test(element_order[pos])) ++pos;  // remaining > 0
    if (frames.size() == depth + 1) frames.emplace_back(num_elements);

    for (int k : Candidates(element_order[pos])) {
      if (exhausted) return;
      const DynBitset& set = sets[static_cast<size_t>(k)];
      size_t gain = set.CountAndNot(covered);  // >= 1: `set` holds the pivot
      current.push_back(k);
      if (Enter(remaining - gain)) {
        DynBitset& next = frames[depth + 1];
        next = covered;
        next |= set;
        // The pivot is covered by `set`, so the child's scan starts after.
        Branch(depth + 1, remaining - gain, pos + 1);
      }
      current.pop_back();
    }
  }

  void Solve() {
    Init();
    frames.emplace_back(num_elements);
    if (Enter(num_elements)) Branch(0, num_elements, 0);
  }
};

}  // namespace

Result<SetCoverResult> MinSetCover(const std::vector<DynBitset>& sets,
                                   size_t num_elements,
                                   const SetCoverOptions& opts) {
  MITRA_SPAN(span, "setcover/solve");
  SetCoverResult result;
  if (num_elements == 0) {
    result.optimal = true;
    return result;
  }
  // Feasibility: every element must be covered by some set.
  DynBitset all(num_elements);
  for (const DynBitset& s : sets) all |= s;
  for (size_t e = 0; e < num_elements; ++e) {
    if (!all.Test(e)) {
      return Status::SynthesisFailure(
          "set cover infeasible: element " + std::to_string(e) +
          " is covered by no set");
    }
  }

  std::vector<int> greedy = GreedyCover(sets, num_elements);
  if (!opts.exact) {
    result.chosen = std::move(greedy);
    result.optimal = false;
    std::sort(result.chosen.begin(), result.chosen.end());
    return result;
  }

  // Domination reduction: a set contained in another can be swapped for
  // its superset in any cover, so dropping it preserves the minimum
  // cardinality. (Skipped for very large families, where the quadratic
  // pass would cost more than it saves.)
  std::vector<int> keep;
  keep.reserve(sets.size());
  constexpr size_t kDominationLimit = 4096;
  if (sets.size() <= kDominationLimit) {
    std::vector<size_t> counts(sets.size());
    for (size_t i = 0; i < sets.size(); ++i) counts[i] = sets[i].Count();
    for (size_t i = 0; i < sets.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < sets.size() && !dominated; ++j) {
        if (i == j || counts[j] < counts[i]) continue;
        if (counts[j] == counts[i] && j > i) continue;  // ties: keep lower
        if (sets[i].IsSubsetOf(sets[j])) dominated = true;
      }
      if (!dominated) keep.push_back(static_cast<int>(i));
    }
  } else {
    for (size_t i = 0; i < sets.size(); ++i) {
      keep.push_back(static_cast<int>(i));
    }
  }
  std::vector<DynBitset> reduced;
  reduced.reserve(keep.size());
  for (int i : keep) reduced.push_back(sets[static_cast<size_t>(i)]);

  // Map the greedy incumbent into reduced indices (replace each dominated
  // pick with a dominating kept set).
  std::vector<int> incumbent;
  for (int g : greedy) {
    int replacement = -1;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (sets[static_cast<size_t>(g)].IsSubsetOf(reduced[i])) {
        replacement = static_cast<int>(i);
        break;
      }
    }
    incumbent.push_back(replacement);
  }
  std::sort(incumbent.begin(), incumbent.end());
  incumbent.erase(std::unique(incumbent.begin(), incumbent.end()),
                  incumbent.end());

  BnB solver(reduced, num_elements, opts.max_nodes, opts.governor,
             std::move(incumbent));
  solver.Solve();
  MITRA_COUNT("setcover/bnb/calls", 1);
  MITRA_COUNT("setcover/bnb/nodes_expanded", solver.nodes);
  MITRA_COUNT("setcover/bnb/nodes_bounded", solver.bounded);
  if (solver.exhausted) MITRA_COUNT("setcover/bnb/exhausted", 1);
  result.optimal = !solver.exhausted;
  result.chosen.reserve(solver.best.size());
  for (int i : solver.best) {
    result.chosen.push_back(keep[static_cast<size_t>(i)]);
  }
  std::sort(result.chosen.begin(), result.chosen.end());
  return result;
}

}  // namespace mitra::core
