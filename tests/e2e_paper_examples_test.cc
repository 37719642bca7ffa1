/// End-to-end reproduction of the paper's worked examples:
///  - the §2 motivating example (Figs. 2-4): the social-network XML to the
///    (Person, Friend-with, years) relation, including generalization to a
///    larger document than the training example;
///  - Example 3 (Fig. 8): object/text extraction with a constant
///    comparison (id < 20) and a nesting predicate;
///  - Example 2 (Fig. 5): the JSON rendering of the same social network.

#include <gtest/gtest.h>

#include "core/executor.h"
#include "test_util.h"

namespace mitra {
namespace {

using test::ExpectProgramYields;
using test::MakeTable;
using test::ParseJsonOrDie;
using test::ParseXmlOrDie;
using test::SynthesizeOrDie;

// ---------------------------------------------------------------------------
// §2 motivating example
// ---------------------------------------------------------------------------

constexpr char kSocialNetworkXml[] = R"(
<SocialNetwork>
  <Person id="1">
    <name>Alice</name>
    <Friendship>
      <Friend fid="2" years="3"/>
      <Friend fid="3" years="5"/>
    </Friendship>
  </Person>
  <Person id="2">
    <name>Bob</name>
    <Friendship>
      <Friend fid="1" years="3"/>
    </Friendship>
  </Person>
  <Person id="3">
    <name>Carol</name>
    <Friendship>
      <Friend fid="1" years="5"/>
    </Friendship>
  </Person>
</SocialNetwork>
)";

// A larger "production" document with the same schema: the synthesized
// program must generalize to it (the paper's usage scenario).
constexpr char kSocialNetworkBigXml[] = R"(
<SocialNetwork>
  <Person id="1">
    <name>Alice</name>
    <Friendship>
      <Friend fid="2" years="3"/>
      <Friend fid="4" years="7"/>
    </Friendship>
  </Person>
  <Person id="2">
    <name>Bob</name>
    <Friendship>
      <Friend fid="1" years="3"/>
      <Friend fid="3" years="2"/>
    </Friendship>
  </Person>
  <Person id="3">
    <name>Carol</name>
    <Friendship>
      <Friend fid="2" years="2"/>
    </Friendship>
  </Person>
  <Person id="4">
    <name>Dave</name>
    <Friendship>
      <Friend fid="1" years="7"/>
    </Friendship>
  </Person>
</SocialNetwork>
)";

TEST(MotivatingExample, SynthesizesAndMatchesTrainingExample) {
  hdt::Hdt tree = ParseXmlOrDie(kSocialNetworkXml);
  hdt::Table table = MakeTable({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);
  ExpectProgramYields(tree, result.program, table);
}

TEST(MotivatingExample, GeneralizesToLargerDocument) {
  hdt::Hdt tree = ParseXmlOrDie(kSocialNetworkXml);
  hdt::Table table = MakeTable({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);

  hdt::Hdt big = ParseXmlOrDie(kSocialNetworkBigXml);
  hdt::Table want = MakeTable({{"Alice", "Bob", "3"},
                               {"Alice", "Dave", "7"},
                               {"Bob", "Alice", "3"},
                               {"Bob", "Carol", "2"},
                               {"Carol", "Bob", "2"},
                               {"Dave", "Alice", "7"}});
  ExpectProgramYields(big, result.program, want);
}

TEST(MotivatingExample, LearnsTwoAtomConjunction) {
  // The paper's ranked-best program uses exactly two atomic predicates
  // (φ1 ∧ φ2 in Fig. 3). The Occam cost function must not settle for a
  // larger classifier.
  hdt::Hdt tree = ParseXmlOrDie(kSocialNetworkXml);
  hdt::Table table = MakeTable({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);
  EXPECT_LE(result.program.NumUsedAtoms(), 2)
      << dsl::ToString(result.program);
  EXPECT_EQ(result.program.NumCols(), 3u);
}

TEST(MotivatingExample, OptimizedExecutorAgrees) {
  hdt::Hdt tree = ParseXmlOrDie(kSocialNetworkXml);
  hdt::Table table = MakeTable({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);

  hdt::Hdt big = ParseXmlOrDie(kSocialNetworkBigXml);
  auto naive = dsl::ReferenceEvalProgram(big, result.program);
  auto fast = core::ExecuteOptimized(big, result.program);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  hdt::Table a = std::move(naive).value(), b = std::move(fast).value();
  a.Dedup();
  a.SortRows();
  b.Dedup();
  b.SortRows();
  EXPECT_EQ(a.rows(), b.rows());
}

// ---------------------------------------------------------------------------
// Example 3 (Fig. 8): id < 20 constant predicate + direct nesting
// ---------------------------------------------------------------------------

constexpr char kObjectsXml[] = R"(
<root>
  <object id="1">A
    <object id="21">B</object>
    <object id="2">C
      <object id="3">D</object>
    </object>
  </object>
  <object id="30">E
    <object id="4">F</object>
  </object>
</root>
)";

TEST(PaperExample3, NestedObjectTextPairs) {
  hdt::Hdt tree = ParseXmlOrDie(kObjectsXml);
  // Rows: text of each object with id < 20 paired with the text of its
  // immediately nested objects.
  hdt::Table table = MakeTable({{"A", "B"}, {"A", "C"}, {"C", "D"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);
  ExpectProgramYields(tree, result.program, table);

  // Generalization: a new document, same schema.
  hdt::Hdt other = ParseXmlOrDie(R"(
<root>
  <object id="19">X
    <object id="20">Y</object>
  </object>
  <object id="25">Z
    <object id="5">W</object>
  </object>
</root>
)");
  hdt::Table want = MakeTable({{"X", "Y"}});
  ExpectProgramYields(other, result.program, want);
}

// ---------------------------------------------------------------------------
// Example 2 (Fig. 5): the JSON rendering of the social network
// ---------------------------------------------------------------------------

constexpr char kSocialNetworkJson[] = R"({
  "Person": [
    { "id": 1, "name": "Alice",
      "Friendship": { "Friend": [ {"fid": 2, "years": 3},
                                  {"fid": 3, "years": 5} ] } },
    { "id": 2, "name": "Bob",
      "Friendship": { "Friend": [ {"fid": 1, "years": 3} ] } },
    { "id": 3, "name": "Carol",
      "Friendship": { "Friend": [ {"fid": 1, "years": 5} ] } }
  ]
})";

TEST(PaperExample2, JsonSocialNetwork) {
  hdt::Hdt tree = ParseJsonOrDie(kSocialNetworkJson);
  hdt::Table table = MakeTable({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
  core::SynthesisResult result = SynthesizeOrDie(tree, table);
  ExpectProgramYields(tree, result.program, table);
}

}  // namespace
}  // namespace mitra
