#ifndef MITRA_CORE_EXTRACTOR_MEMO_H_
#define MITRA_CORE_EXTRACTOR_MEMO_H_

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/example.h"
#include "core/executor.h"
#include "core/node_extractor_enum.h"
#include "core/predicate_universe.h"
#include "dsl/ast.h"

/// \file extractor_memo.h
/// Cross-candidate memoization for the synthesizer's Phase 2. Consecutive
/// table extractors ψ ∈ Π1 × … × Πk drawn from the cheapest-first frontier
/// share almost all of their column extractors, yet the predicate learner
/// would re-derive per-column work from scratch for every combo: EvalColumn
/// node lists, the enumerated node-extractor set χᵢ, and the per-target
/// facts (leaf-ness, data, parsed number) that atom evaluation reads.
/// ExtractorMemoCache serves the column extractions from one ColumnCache
/// per example tree (executor.h: the one column-extraction cache, counted
/// under exec/column_cache/*) and keys χᵢ with its facts on the column
/// extractor's value, so a ψ that reuses a column extractor from any
/// previous combo pays nothing. χᵢ and the constant pool count under
/// memo/extractor/*.
///
/// Thread safety: all methods are safe to call concurrently (the
/// synthesizer's wave evaluation does). A χᵢ being computed by one thread
/// blocks other requesters for the same extractor ("single-flight"), so
/// heavy enumeration work is never duplicated. Cached values are pure
/// functions of the (examples, options) bound at construction, so
/// memoization cannot change any result — only its cost.
///
/// Lifetime: the synthesizer scopes one cache per LearnTransformation
/// call. Examples must outlive the cache (facts hold string_views into the
/// trees).

namespace mitra::core {

/// Pre-extracted facts about one target node (the result of applying a
/// node extractor to one column value): everything atom evaluation needs.
struct TargetFacts {
  hdt::NodeId node = hdt::kInvalidNode;
  bool is_leaf = false;
  bool has_data = false;
  std::string_view data;
  std::optional<double> number;
  /// Dictionary id of `data` when the source tree is frozen, else
  /// hdt::kInvalidData. Enables 32-bit equality in atom evaluation.
  hdt::DataId data_id = hdt::kInvalidData;
};

/// One enumerated node extractor with pre-extracted facts per target.
struct ExtractorWithFacts {
  dsl::NodeExtractor extractor;
  /// facts[e][v] = facts of applying the extractor to the v'th column
  /// value of example e (aligned with ColumnCache::Get on tree e).
  std::vector<std::vector<TargetFacts>> facts;
};

/// The enumerated χᵢ for one column extractor, facts included.
struct EnumeratedEntry {
  Status status;  ///< enumeration failure (propagated verbatim)
  std::vector<ExtractorWithFacts> extractors;
};

class ExtractorMemoCache {
 public:
  /// Binds the examples and the enumeration options every lookup uses:
  /// `opts.node_enum` capped at `opts.max_extractors_per_column` for χᵢ,
  /// and `opts.max_constants` for the constant pool.
  ExtractorMemoCache(const Examples& examples,
                     const PredicateUniverseOptions& opts);

  const Examples& examples() const { return examples_; }

  /// The column-extraction cache bound to example `e`'s tree.
  ColumnCache& Columns(size_t e) { return columns_[e]; }

  /// Enumerated node extractors (χᵢ) for `pi` with pre-extracted target
  /// facts, computed once per distinct extractor.
  std::shared_ptr<const EnumeratedEntry> Extractors(
      const dsl::ColumnExtractor& pi);

  /// The deduplicated constant pool (rule 4) over the examples' data
  /// values; identical for every candidate ψ, so computed once.
  const std::vector<std::string>& Constants();

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  void CountLookup(bool hit);

  const Examples examples_;
  NodeExtractorEnumOptions enum_opts_;
  const size_t max_constants_;
  std::deque<ColumnCache> columns_;  ///< one per example, never resized

  std::mutex mu_;
  std::unordered_map<
      dsl::ColumnExtractor,
      std::shared_future<std::shared_ptr<const EnumeratedEntry>>,
      dsl::ColumnExtractorHash>
      extractors_;
  std::once_flag constants_once_;
  std::vector<std::string> constants_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace mitra::core

#endif  // MITRA_CORE_EXTRACTOR_MEMO_H_
