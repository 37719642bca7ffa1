/// Frozen-index equivalence suite (succinct HDT index): proves that
/// freezing a tree — preorder intervals, CSR children, per-(parent,tag)
/// slices, per-tag postings, leaf-data dictionary — changes *nothing*
/// observable:
///
///  - navigation (ChildrenWithTag / ChildWithTagPos / DescendantsWithTag,
///    span and vector forms) returns identical node sequences frozen
///    (compact and non-compact) and unfrozen, over fuzz-generated
///    XML- and JSON-shaped documents;
///  - program results are bit-identical: the reference evaluator and
///    OptimizedExecutor (sequential and 8-thread pool) emit the exact
///    same row vectors frozen vs. walk;
///  - the full 98-task §7.1 corpus synthesizes the same program on a
///    frozen tree as on an unfrozen one, and executes byte-identically;
///  - the freeze/thaw contract holds (mutation thaws, copies share the
///    index, pos assignment survives a thaw);
///  - governor check sites keep firing inside indexed scans.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "dsl/reference_eval.h"
#include "test_util.h"
#include "testing/generators.h"
#include "testing/rng.h"
#include "workload/corpus.h"

namespace mitra {
namespace {

using hdt::Hdt;
using hdt::NodeId;
using hdt::TagId;

std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

/// Exhaustively compares every navigation query on `a` (reference, never
/// frozen here) against `b` (frozen compact or non-compact, or a thawed
/// copy): all (node, tag) pairs, all valid pchildren positions, plus the
/// whole-tree vocabularies.
void ExpectNavigationIdentical(const Hdt& a, const Hdt& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.tags().size(), b.tags().size());
  const auto num_tags = static_cast<TagId>(a.tags().size());
  for (NodeId n = 0; n < static_cast<NodeId>(a.size()); ++n) {
    EXPECT_EQ(a.Parent(n), b.Parent(n));
    EXPECT_EQ(a.Data(n), b.Data(n));
    EXPECT_EQ(a.HasData(n), b.HasData(n));
    EXPECT_EQ(a.NumChildren(n), b.NumChildren(n));
    EXPECT_EQ(a.IsLeaf(n), b.IsLeaf(n));
    EXPECT_EQ(a.Depth(n), b.Depth(n));
    EXPECT_EQ(ToVec(a.Children(n)), ToVec(b.Children(n)));
    for (TagId t = 0; t < num_tags; ++t) {
      std::vector<NodeId> ca, cb, da, db;
      a.ChildrenWithTag(n, t, &ca);
      b.ChildrenWithTag(n, t, &cb);
      EXPECT_EQ(ca, cb) << "node " << n << " tag " << a.TagName(t);
      a.DescendantsWithTag(n, t, &da);
      b.DescendantsWithTag(n, t, &db);
      EXPECT_EQ(da, db) << "node " << n << " tag " << a.TagName(t);
      if (b.frozen()) {
        EXPECT_EQ(cb, ToVec(b.ChildrenWithTagSpan(n, t)));
        EXPECT_EQ(db, ToVec(b.DescendantsWithTagSpan(n, t)));
      }
      for (int32_t pos = 0; pos <= static_cast<int32_t>(ca.size()); ++pos) {
        EXPECT_EQ(a.ChildWithTagPos(n, t, pos), b.ChildWithTagPos(n, t, pos));
      }
    }
  }
  EXPECT_EQ(a.AllTags(), b.AllTags());
  EXPECT_EQ(a.AllTagPosPairs(), b.AllTagPosPairs());
  EXPECT_EQ(a.AllDataValues(), b.AllDataValues());
}

/// The frozen data dictionary must mirror AllDataValues() (same values,
/// first-seen order) and round-trip through GetDataId / LookupDataId.
void ExpectDictConsistent(const Hdt& t) {
  ASSERT_TRUE(t.frozen());
  const std::vector<std::string> values = t.AllDataValues();
  ASSERT_EQ(t.DictSize(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(t.DictValue(static_cast<hdt::DataId>(i)), values[i]);
    auto id = t.LookupDataId(values[i]);
    ASSERT_TRUE(id.has_value()) << values[i];
    EXPECT_EQ(*id, static_cast<hdt::DataId>(i));
  }
  EXPECT_FALSE(t.LookupDataId("\x01 definitely-not-a-leaf-value \x01"));
  for (NodeId n = 0; n < static_cast<NodeId>(t.size()); ++n) {
    if (t.HasData(n)) {
      ASSERT_NE(t.GetDataId(n), hdt::kInvalidData) << n;
      EXPECT_EQ(t.DictValue(t.GetDataId(n)), t.Data(n)) << n;
    } else {
      EXPECT_EQ(t.GetDataId(n), hdt::kInvalidData) << n;
    }
  }
}

TEST(IndexEquivalence, FuzzNavigation) {
  for (bool xml_shape : {true, false}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE((xml_shape ? "xml seed " : "json seed ") +
                   std::to_string(seed));
      testing::Rng rng(seed * (xml_shape ? 1 : 0x9E3779B9u));
      testing::DocGenOptions opts;
      opts.xml_shape = xml_shape;
      opts.max_nodes = 10 + static_cast<int>(seed) * 5;
      Hdt reference = testing::GenerateDocument(&rng, opts);

      Hdt compact = reference;
      compact.FreezeIndex(/*compact=*/true);
      ASSERT_TRUE(compact.frozen());
      ASSERT_TRUE(compact.compacted());
      ExpectNavigationIdentical(reference, compact);
      ExpectDictConsistent(compact);

      Hdt loose = reference;
      loose.FreezeIndex(/*compact=*/false);
      ASSERT_TRUE(loose.frozen());
      ASSERT_FALSE(loose.compacted());
      ExpectNavigationIdentical(reference, loose);
      ExpectDictConsistent(loose);

      // Upgrade in place: non-compact → compact must be seamless.
      loose.FreezeIndex(/*compact=*/true);
      ASSERT_TRUE(loose.compacted());
      ExpectNavigationIdentical(reference, loose);
    }
  }
}

TEST(IndexEquivalence, FuzzProgramResults) {
  common::ThreadPool pool(8);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testing::Rng rng(seed);
    testing::DocGenOptions dopts;
    dopts.xml_shape = (seed % 2 == 0);
    dopts.max_nodes = 40;
    Hdt walk = testing::GenerateDocument(&rng, dopts);
    Hdt frozen = walk;
    frozen.FreezeIndex();

    for (int p = 0; p < 4; ++p) {
      dsl::Program prog = testing::GenerateProgram(&rng, walk);
      SCOPED_TRACE(dsl::ToString(prog));

      auto naive_walk = dsl::ReferenceEvalProgram(walk, prog);
      auto naive_frozen = dsl::ReferenceEvalProgram(frozen, prog);
      ASSERT_TRUE(naive_walk.ok()) << naive_walk.status().ToString();
      ASSERT_TRUE(naive_frozen.ok()) << naive_frozen.status().ToString();
      // Bit-identical, including row order — not just set-equal.
      EXPECT_EQ(naive_walk->rows(), naive_frozen->rows());

      core::OptimizedExecutor exec(prog);
      auto opt_walk = exec.Execute(walk);
      auto opt_frozen = exec.Execute(frozen);
      ASSERT_TRUE(opt_walk.ok()) << opt_walk.status().ToString();
      ASSERT_TRUE(opt_frozen.ok()) << opt_frozen.status().ToString();
      EXPECT_EQ(opt_walk->rows(), opt_frozen->rows());

      core::ExecuteOptions popts;
      popts.pool = &pool;
      auto opt_frozen_mt = exec.Execute(frozen, popts);
      ASSERT_TRUE(opt_frozen_mt.ok()) << opt_frozen_mt.status().ToString();
      EXPECT_EQ(opt_walk->rows(), opt_frozen_mt->rows());
    }
  }
}

TEST(IndexEquivalence, MutationThaws) {
  testing::Rng rng(7);
  Hdt tree = testing::GenerateDocument(&rng);
  Hdt reference = tree;  // never frozen

  tree.FreezeIndex(/*compact=*/true);
  ASSERT_TRUE(tree.compacted());

  // AddChild must thaw, restore the per-node child vectors from the CSR
  // layout, and keep pos assignment consistent with a never-frozen build.
  NodeId a = tree.AddChild(tree.root(), "thaw_probe", "v1");
  NodeId b = reference.AddChild(reference.root(), "thaw_probe", "v1");
  EXPECT_FALSE(tree.frozen());
  EXPECT_FALSE(tree.compacted());
  EXPECT_EQ(a, b);
  NodeId a2 = tree.AddChild(tree.root(), "thaw_probe", "v2");
  NodeId b2 = reference.AddChild(reference.root(), "thaw_probe", "v2");
  EXPECT_EQ(tree.node(a2).pos, reference.node(b2).pos);
  ExpectNavigationIdentical(reference, tree);

  // Refreezing after the mutation picks up the new nodes.
  tree.FreezeIndex();
  ExpectNavigationIdentical(reference, tree);
  ExpectDictConsistent(tree);

  // SetLeafData thaws too (the dictionary would otherwise go stale).
  NodeId leaf = tree.AddChild(tree.root(), "fresh_leaf");
  tree.FreezeIndex();
  ASSERT_TRUE(tree.frozen());
  tree.SetLeafData(leaf, "late-data");
  EXPECT_FALSE(tree.frozen());
  tree.FreezeIndex();
  ASSERT_TRUE(tree.LookupDataId("late-data").has_value());
}

TEST(IndexEquivalence, CopiesShareIndex) {
  testing::Rng rng(11);
  Hdt original = testing::GenerateDocument(&rng);
  original.FreezeIndex(/*compact=*/true);

  Hdt copy = original;
  EXPECT_TRUE(copy.frozen());
  EXPECT_EQ(copy.index(), original.index());  // shared, not rebuilt

  // Mutating the copy thaws only the copy; the original keeps its index.
  copy.AddChild(copy.root(), "copy_only");
  EXPECT_FALSE(copy.frozen());
  EXPECT_TRUE(original.frozen());
  EXPECT_TRUE(original.compacted());
  EXPECT_EQ(copy.size(), original.size() + 1);
}

TEST(IndexEquivalence, GovernorFiresInIndexedScan) {
  // Descendant-heavy program over a frozen tree: the indexed scan must
  // still hit the governor's check/charge sites, so a tiny row budget
  // cancels the run instead of materialising everything.
  Hdt tree;
  NodeId root = tree.AddRoot("db");
  for (int i = 0; i < 200; ++i) {
    NodeId rec = tree.AddChild(root, "rec");
    for (int j = 0; j < 30; ++j) {
      tree.AddChild(rec, "f", "v" + std::to_string(j));
    }
  }
  tree.FreezeIndex();

  dsl::Program prog;
  prog.columns.push_back({{{dsl::ColOp::kDescendants, "f", 0}}});
  prog.formula = dsl::Dnf::True();

  common::ResourceLimits limits;
  limits.max_rows = 16;
  common::Governor gov(limits);
  core::ExecuteOptions opts;
  opts.governor = &gov;
  auto result = core::ExecuteOptimized(tree, prog, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_GT(gov.Usage().checks, 0u);
}

// --- corpus-wide bit-identity ---------------------------------------------

core::SynthesisOptions CorpusOptions() {
  core::SynthesisOptions opts;
  opts.time_limit_seconds = 30.0;
  return opts;
}

Hdt ParseTaskDoc(const workload::CorpusTask& task, const std::string& doc) {
  if (task.format == workload::DocFormat::kXml) {
    return test::ParseXmlOrDie(doc);
  }
  return test::ParseJsonOrDie(doc);
}

class CorpusIndexIdentityTest : public ::testing::TestWithParam<size_t> {};

/// For every §7.1 benchmark task: synthesis on a frozen tree must find
/// the *same program* as on an unfrozen one, and executing that program
/// must emit byte-identical rows frozen vs. walk, naive vs. optimized,
/// sequential vs. 8-thread pool.
TEST_P(CorpusIndexIdentityTest, FrozenMatchesWalk) {
  const workload::CorpusTask task = workload::FullCorpus()[GetParam()];
  SCOPED_TRACE(task.id);
  Hdt walk = ParseTaskDoc(task, task.document);
  Hdt frozen = ParseTaskDoc(task, task.document);
  frozen.FreezeIndex();

  hdt::Table table = test::MakeTable(task.output);
  auto r_walk = core::LearnTransformation(walk, table, CorpusOptions());
  auto r_frozen = core::LearnTransformation(frozen, table, CorpusOptions());
  ASSERT_EQ(r_walk.ok(), r_frozen.ok())
      << "walk: " << r_walk.status().ToString()
      << "\nfrozen: " << r_frozen.status().ToString();
  if (!task.expect_solvable) {
    EXPECT_FALSE(r_frozen.ok());
    return;
  }
  ASSERT_TRUE(r_frozen.ok()) << r_frozen.status().ToString();
  EXPECT_EQ(dsl::ToString(r_walk->program), dsl::ToString(r_frozen->program));

  const dsl::Program& prog = r_walk->program;
  auto naive_walk = dsl::ReferenceEvalProgram(walk, prog);
  auto naive_frozen = dsl::ReferenceEvalProgram(frozen, prog);
  ASSERT_TRUE(naive_walk.ok()) << naive_walk.status().ToString();
  ASSERT_TRUE(naive_frozen.ok()) << naive_frozen.status().ToString();
  EXPECT_EQ(naive_walk->rows(), naive_frozen->rows());

  core::OptimizedExecutor exec(prog);
  auto opt_walk = exec.Execute(walk);
  auto opt_frozen = exec.Execute(frozen);
  ASSERT_TRUE(opt_walk.ok()) << opt_walk.status().ToString();
  ASSERT_TRUE(opt_frozen.ok()) << opt_frozen.status().ToString();
  EXPECT_EQ(opt_walk->rows(), opt_frozen->rows());

  common::ThreadPool pool(8);
  core::ExecuteOptions popts;
  popts.pool = &pool;
  auto opt_frozen_mt = exec.Execute(frozen, popts);
  ASSERT_TRUE(opt_frozen_mt.ok()) << opt_frozen_mt.status().ToString();
  EXPECT_EQ(opt_walk->rows(), opt_frozen_mt->rows());

  if (!task.generalization_document.empty()) {
    Hdt other = ParseTaskDoc(task, task.generalization_document);
    other.FreezeIndex();
    hdt::Table want = test::MakeTable(task.generalization_output);
    test::ExpectProgramYields(other, prog, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTasks, CorpusIndexIdentityTest, ::testing::Range<size_t>(0, 98),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = workload::FullCorpus()[info.param].id;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mitra
