#include "core/extractor_memo.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

/// Extracts the facts atom evaluation needs from one tree node.
TargetFacts FactsFor(const hdt::Hdt& tree, hdt::NodeId node) {
  TargetFacts tf;
  tf.node = node;
  tf.is_leaf = tree.IsLeaf(node);
  tf.has_data = tree.HasData(node);
  tf.data = tree.Data(node);
  if (tf.has_data) {
    tf.data_id = tree.GetDataId(node);
    // On a frozen tree the parse result is precomputed per dictionary
    // entry; fall back to parsing for unfrozen trees.
    if (tf.data_id != hdt::kInvalidData) {
      if (tree.DictIsNumber(tf.data_id)) tf.number = tree.DictNumber(tf.data_id);
    } else {
      tf.number = ParseNumber(tf.data);
    }
  }
  return tf;
}

}  // namespace

ExtractorMemoCache::ExtractorMemoCache(const Examples& examples,
                                       const PredicateUniverseOptions& opts)
    : examples_(examples),
      enum_opts_(opts.node_enum),
      max_constants_(opts.max_constants) {
  enum_opts_.max_extractors = opts.max_extractors_per_column;
  for (const Example& e : examples_) columns_.emplace_back(*e.tree);
}

void ExtractorMemoCache::CountLookup(bool hit) {
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("memo/extractor/hits", 1);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("memo/extractor/misses", 1);
  }
}

std::shared_ptr<const EnumeratedEntry> ExtractorMemoCache::Extractors(
    const dsl::ColumnExtractor& pi) {
  // Single-flight: find-or-start the computation for `pi`; exactly one
  // caller computes, everyone else blocks on its future.
  std::promise<std::shared_ptr<const EnumeratedEntry>> promise;
  std::shared_future<std::shared_ptr<const EnumeratedEntry>> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = extractors_.try_emplace(pi);
    if (inserted) it->second = promise.get_future().share();
    future = it->second;
    owner = inserted;
  }
  CountLookup(!owner);
  if (!owner) {
#if MITRA_OBS
    // Single-flight collision: another thread owns this key and has not
    // published the value yet, so this requester will block on the future.
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      MITRA_COUNT("memo/extractor/collisions", 1);
    }
#endif
    return future.get();
  }
  try {
    EnumeratedEntry entry;
    std::vector<const hdt::Hdt*> trees;
    std::vector<std::vector<hdt::NodeId>> sources;
    trees.reserve(examples_.size());
    sources.reserve(examples_.size());
    for (size_t e = 0; e < examples_.size(); ++e) {
      trees.push_back(examples_[e].tree);
      sources.push_back(columns_[e].Get(pi));
    }
    auto enumerated =
        EnumerateNodeExtractorsFromSources(trees, sources, enum_opts_);
    if (!enumerated.ok()) {
      entry.status = enumerated.status();
    } else {
      entry.extractors.reserve(enumerated->size());
      for (EnumeratedExtractor& ee : *enumerated) {
        ExtractorWithFacts ef;
        ef.extractor = std::move(ee.extractor);
        ef.facts.resize(examples_.size());
        for (size_t e = 0; e < examples_.size(); ++e) {
          const hdt::Hdt& tree = *examples_[e].tree;
          ef.facts[e].reserve(ee.targets[e].size());
          for (hdt::NodeId m : ee.targets[e]) {
            ef.facts[e].push_back(FactsFor(tree, m));
          }
        }
        entry.extractors.push_back(std::move(ef));
      }
    }
    promise.set_value(std::make_shared<const EnumeratedEntry>(std::move(entry)));
  } catch (...) {
    // Library code is Status-based and should not throw, but a stuck
    // future would deadlock every other requester of this key.
    promise.set_exception(std::current_exception());
  }
  return future.get();
}

const std::vector<std::string>& ExtractorMemoCache::Constants() {
  bool computed = false;
  std::call_once(constants_once_, [&] {
    computed = true;
    // First-seen order over all example trees.
    std::unordered_set<std::string> seen;
    for (const Example& e : examples_) {
      for (std::string& v : e.tree->AllDataValues()) {
        if (constants_.size() >= max_constants_) break;
        if (seen.insert(v).second) constants_.push_back(std::move(v));
      }
    }
  });
  CountLookup(!computed);
  return constants_;
}

}  // namespace mitra::core
