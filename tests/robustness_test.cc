/// Failure-injection and budget tests: every configurable resource limit
/// must fail cleanly with the right status code (never crash, hang, or
/// return a wrong program), and ambiguous examples must be fixable by
/// adding a second example — the paper's user workflow ("we updated the
/// original input-output example at most once").

#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "dsl/reference_eval.h"
#include "test_util.h"

namespace mitra::core {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

const char* kDoc = R"(
<r>
  <p id="1"><n>A</n></p>
  <p id="2"><n>B</n></p>
</r>
)";

TEST(Budgets, DfaStateCap) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A", "1"}, {"B", "2"}});
  SynthesisOptions opts;
  opts.column.dfa.max_states = 1;
  auto result = LearnTransformation(t, r, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Budgets, TimeLimitZero) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A", "1"}, {"B", "2"}});
  SynthesisOptions opts;
  opts.time_limit_seconds = 0.0;
  auto result = LearnTransformation(t, r, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Budgets, IntermediateTupleCap) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A", "1"}, {"B", "2"}});
  SynthesisOptions opts;
  opts.predicate.eval.max_intermediate_tuples = 1;
  auto result = LearnTransformation(t, r, opts);
  EXPECT_FALSE(result.ok());
}

TEST(Budgets, MaxTableExtractorsOne) {
  // Only the single cheapest ψ gets explored; it must still be verified.
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A", "1"}, {"B", "2"}});
  SynthesisOptions opts;
  opts.max_table_extractors = 1;
  auto result = LearnTransformation(t, r, opts);
  if (result.ok()) {
    test::ExpectProgramYields(t, result->program, r);
  }
}

TEST(Budgets, TinyAtomUniverseFailsCleanly) {
  hdt::Hdt t = ParseXmlOrDie(kDoc);
  hdt::Table r = MakeTable({{"A", "1"}, {"B", "2"}});
  SynthesisOptions opts;
  opts.predicate.universe.max_atoms = 0;
  auto result = LearnTransformation(t, r, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
}

TEST(Budgets, ShallowNodeExtractorsMayLoseTasks) {
  // The motivating example needs depth-3 node extractors; with depth 1
  // synthesis must fail cleanly rather than return a wrong program.
  hdt::Hdt t = ParseXmlOrDie(R"(
<SocialNetwork>
  <Person id="1"><name>Alice</name>
    <Friendship><Friend fid="2" years="3"/></Friendship>
  </Person>
  <Person id="2"><name>Bob</name>
    <Friendship><Friend fid="1" years="3"/></Friendship>
  </Person>
</SocialNetwork>)");
  hdt::Table r = MakeTable({{"Alice", "Bob", "3"}, {"Bob", "Alice", "3"}});
  SynthesisOptions opts;
  opts.predicate.universe.node_enum.max_depth = 1;
  auto result = LearnTransformation(t, r, opts);
  if (result.ok()) {
    // Whatever it found must still reproduce the example.
    test::ExpectProgramYields(t, result->program, r);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
  }
}

TEST(MultiExample, SecondExampleDisambiguates) {
  // One example admits both "price < threshold" and a lexicographic
  // split of the names; a second example kills the coincidences.
  hdt::Hdt t1 = ParseXmlOrDie(R"(
<items>
  <item><sku>alpha</sku><price>5</price></item>
  <item><sku>beta</sku><price>25</price></item>
</items>)");
  hdt::Table r1 = MakeTable({{"alpha"}});  // price < 20
  // Second example: cheap item late in the alphabet, expensive early.
  hdt::Hdt t2 = ParseXmlOrDie(R"(
<items>
  <item><sku>aaa</sku><price>90</price></item>
  <item><sku>zzz</sku><price>3</price></item>
</items>)");
  hdt::Table r2 = MakeTable({{"zzz"}});

  Examples ex{{&t1, &r1}, {&t2, &r2}};
  auto result = LearnTransformation(ex);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  test::ExpectProgramYields(t1, result->program, r1);
  test::ExpectProgramYields(t2, result->program, r2);

  // The learned program must behave like a price threshold on new data.
  hdt::Hdt t3 = ParseXmlOrDie(R"(
<items>
  <item><sku>mmm</sku><price>4</price></item>
  <item><sku>nnn</sku><price>80</price></item>
</items>)");
  auto got = dsl::ReferenceEvalProgram(t3, result->program);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->NumRows(), 1u) << dsl::ToString(result->program);
  EXPECT_EQ(got->row(0)[0], "mmm");
}

TEST(MultiExample, ConflictingExamplesFail) {
  hdt::Hdt t1 = ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Hdt t2 = ParseXmlOrDie("<r><x>1</x></r>");
  hdt::Table keep = MakeTable({{"1"}});
  hdt::Table drop(1);  // same tree, but wants no rows
  Examples ex{{&t1, &keep}, {&t2, &drop}};
  auto result = LearnTransformation(ex);
  EXPECT_FALSE(result.ok());
}

TEST(Robustness, HugeConstantsPoolIsCapped) {
  // A document with hundreds of distinct values must not blow up the
  // predicate universe (constants are capped, first-seen order).
  std::string doc = "<r>";
  for (int i = 0; i < 400; ++i) {
    doc += "<v><a>k" + std::to_string(i) + "</a><b>" + std::to_string(i) +
           "</b></v>";
  }
  doc += "</r>";
  hdt::Hdt t = ParseXmlOrDie(doc);
  hdt::Table r = MakeTable({{"k1", "1"}, {"k2", "2"}});
  SynthesisOptions opts;
  opts.time_limit_seconds = 30.0;
  auto result = LearnTransformation(t, r, opts);
  // Solvable or not, it must terminate quickly and not crash.
  if (result.ok()) {
    test::ExpectProgramYields(t, result->program, r);
  }
}

}  // namespace
}  // namespace mitra::core
