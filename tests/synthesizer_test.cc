#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "test_util.h"

namespace mitra::core {
namespace {

using test::ExpectProgramYields;
using test::MakeTable;
using test::ParseJsonOrDie;
using test::ParseXmlOrDie;
using test::SynthesizeOrDie;

TEST(Synthesizer, FlatProjection) {
  hdt::Hdt t = ParseXmlOrDie(R"(
<people>
  <person><name>A</name><city>X</city></person>
  <person><name>B</name><city>Y</city></person>
</people>
)");
  hdt::Table r = MakeTable({{"A", "X"}, {"B", "Y"}});
  auto result = SynthesizeOrDie(t, r);
  ExpectProgramYields(t, result.program, r);
}

TEST(Synthesizer, ReportsWhetherTheCoverIsProvenMinimal) {
  // Names × cities has spurious pairs, so a predicate (and a set cover)
  // is needed. The exact solver proves this tiny cover minimal (Thm 2);
  // the greedy cover never claims to be.
  hdt::Hdt t = ParseXmlOrDie(R"(
<people>
  <person><name>A</name><city>X</city></person>
  <person><name>B</name><city>Y</city></person>
</people>
)");
  hdt::Table r = MakeTable({{"A", "X"}, {"B", "Y"}});
  auto exact = LearnTransformation(t, r);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_FALSE(exact->program.formula.IsTrue());
  EXPECT_TRUE(exact->stats.cover_optimal);

  SynthesisOptions greedy;
  greedy.predicate.exact_cover = false;
  auto approx = LearnTransformation(t, r, greedy);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  ExpectProgramYields(t, approx->program, r);
  EXPECT_FALSE(approx->stats.cover_optimal);
}

TEST(Synthesizer, ConstantFilter) {
  // Keep items with price < 20. The kept skus {ant, cat} are neither a
  // lexicographic interval nor a single equality, so the only single-atom
  // classifiers are price thresholds — and every admissible threshold
  // learned from the example (price < 25 or price <= 15) classifies the
  // generalization data below identically.
  hdt::Hdt t = ParseXmlOrDie(R"(
<items>
  <item><sku>ant</sku><price>5</price></item>
  <item><sku>bee</sku><price>25</price></item>
  <item><sku>cat</sku><price>15</price></item>
  <item><sku>dog</sku><price>30</price></item>
</items>
)");
  hdt::Table r = MakeTable({{"ant"}, {"cat"}});
  auto result = SynthesizeOrDie(t, r);
  EXPECT_EQ(result.program.NumUsedAtoms(), 1);

  hdt::Hdt t2 = ParseXmlOrDie(R"(
<items>
  <item><sku>eel</sku><price>12</price></item>
  <item><sku>fox</sku><price>28</price></item>
</items>
)");
  auto got = dsl::ReferenceEvalProgram(t2, result.program);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->NumRows(), 1u) << dsl::ToString(result.program);
  EXPECT_EQ(got->row(0)[0], "eel");
}

TEST(Synthesizer, JsonJoinParentChild) {
  hdt::Hdt t = ParseJsonOrDie(R"(
{"depts": [
  {"dept": "eng", "members": [{"who": "A"}, {"who": "B"}]},
  {"dept": "ops", "members": [{"who": "C"}]}
]})");
  hdt::Table r = MakeTable({{"eng", "A"}, {"eng", "B"}, {"ops", "C"}});
  auto result = SynthesizeOrDie(t, r);
  ExpectProgramYields(t, result.program, r);
}

TEST(Synthesizer, MultipleExamples) {
  hdt::Hdt t1 = ParseXmlOrDie("<r><p><n>A</n></p></r>");
  hdt::Hdt t2 = ParseXmlOrDie("<r><p><n>B</n></p><p><n>C</n></p></r>");
  hdt::Table r1 = MakeTable({{"A"}});
  hdt::Table r2 = MakeTable({{"B"}, {"C"}});
  Examples ex{{&t1, &r1}, {&t2, &r2}};
  auto result = LearnTransformation(ex);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectProgramYields(t1, result->program, r1);
  ExpectProgramYields(t2, result->program, r2);
}

TEST(Synthesizer, OccamPrefersNoPredicates) {
  // The whole column is wanted: best program needs zero atoms.
  hdt::Hdt t = ParseXmlOrDie("<r><x>1</x><x>2</x><x>3</x></r>");
  hdt::Table r = MakeTable({{"1"}, {"2"}, {"3"}});
  auto result = SynthesizeOrDie(t, r);
  EXPECT_EQ(result.program.NumUsedAtoms(), 0);
  EXPECT_TRUE(result.program.formula.IsTrue());
}

TEST(Synthesizer, PositionBasedExtraction) {
  // Second element only → pchildren with pos 1 (no predicate needed).
  hdt::Hdt t = ParseXmlOrDie("<r><x>1</x><x>2</x><x>3</x></r>");
  hdt::Table r = MakeTable({{"2"}});
  auto result = SynthesizeOrDie(t, r);
  ExpectProgramYields(t, result.program, r);
  EXPECT_EQ(result.program.NumUsedAtoms(), 0);
}

TEST(Synthesizer, ErrorsOnEmptyExamples) {
  Examples ex;
  EXPECT_FALSE(LearnTransformation(ex).ok());
}

TEST(Synthesizer, ErrorsOnMismatchedArity) {
  hdt::Hdt t1 = ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Hdt t2 = ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Table r1 = MakeTable({{"1"}});
  hdt::Table r2 = MakeTable({{"1", "1"}});
  Examples ex{{&t1, &r1}, {&t2, &r2}};
  auto result = LearnTransformation(ex);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Synthesizer, FailsWhenValueAbsent) {
  hdt::Hdt t = ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Table r = MakeTable({{"42"}});
  auto result = LearnTransformation(t, r);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
}

TEST(Synthesizer, StatsArePopulated) {
  hdt::Hdt t = ParseXmlOrDie("<r><x>1</x><x>2</x></r>");
  hdt::Table r = MakeTable({{"1"}, {"2"}});
  auto result = SynthesizeOrDie(t, r);
  EXPECT_EQ(result.stats.candidates_per_column.size(), 1u);
  EXPECT_GE(result.stats.table_extractors_tried, 1u);
  EXPECT_GE(result.stats.table_extractors_consistent, 1u);
  EXPECT_GE(result.stats.seconds, 0.0);
}

TEST(Synthesizer, SoundnessPropertyOnVariedTasks) {
  // Theorem 3: the synthesized program reproduces every training example.
  struct Task {
    const char* doc;
    std::vector<hdt::Row> rows;
  };
  const Task tasks[] = {
      {"<r><a><b>1</b><c>x</c></a><a><b>2</b><c>y</c></a></r>",
       {{"1", "x"}, {"2", "y"}}},
      {"<r><g><m>A</m><m>B</m></g><g><m>C</m></g></r>",
       {{"A"}, {"B"}, {"C"}}},
      {"<r><u k=\"1\"><v>p</v></u><u k=\"2\"><v>q</v></u></r>",
       {{"1", "p"}, {"2", "q"}}},
  };
  for (const Task& task : tasks) {
    hdt::Hdt t = ParseXmlOrDie(task.doc);
    hdt::Table r = MakeTable(task.rows);
    auto result = SynthesizeOrDie(t, r);
    ExpectProgramYields(t, result.program, r);
  }
}

}  // namespace
}  // namespace mitra::core

namespace mitra::core {
namespace {

TEST(BestEffort, AllExamplesSatisfiableReturnsAll) {
  hdt::Hdt t1 = test::ParseXmlOrDie("<r><p><n>A</n></p></r>");
  hdt::Hdt t2 = test::ParseXmlOrDie("<r><p><n>B</n></p><p><n>C</n></p></r>");
  hdt::Table r1 = test::MakeTable({{"A"}});
  hdt::Table r2 = test::MakeTable({{"B"}, {"C"}});
  Examples ex{{&t1, &r1}, {&t2, &r2}};
  auto result = LearnBestEffortTransformation(ex);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->satisfied, (std::vector<size_t>{0, 1}));
}

TEST(BestEffort, DropsTheUnsatisfiableExample) {
  hdt::Hdt t1 = test::ParseXmlOrDie("<r><p><n>A</n></p></r>");
  hdt::Hdt t2 = test::ParseXmlOrDie("<r><p><n>B</n></p></r>");
  // Example 3 demands a value that does not exist in its tree.
  hdt::Hdt t3 = test::ParseXmlOrDie("<r><p><n>C</n></p></r>");
  hdt::Table r1 = test::MakeTable({{"A"}});
  hdt::Table r2 = test::MakeTable({{"B"}});
  hdt::Table r3 = test::MakeTable({{"IMPOSSIBLE"}});
  Examples ex{{&t1, &r1}, {&t2, &r2}, {&t3, &r3}};

  auto strict = LearnTransformation(ex);
  EXPECT_FALSE(strict.ok());

  auto result = LearnBestEffortTransformation(ex);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->satisfied, (std::vector<size_t>{0, 1}));
  test::ExpectProgramYields(t1, result->program, r1);
  test::ExpectProgramYields(t2, result->program, r2);
}

TEST(BestEffort, NothingSatisfiableFails) {
  hdt::Hdt t = test::ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Table r = test::MakeTable({{"NOPE"}});
  Examples ex{{&t, &r}};
  auto result = LearnBestEffortTransformation(ex);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace mitra::core
