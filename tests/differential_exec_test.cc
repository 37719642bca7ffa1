// Differential execution suite (ISSUE tentpole, oracle 1): over >= 10,000
// seeded random (document, program) cases, every execution path — the
// independent naive reference evaluator and the optimized executor
// sequentially, on a thread pool, and with a shared column cache — must
// produce identical tuple multisets. Round-trip
// property shards (oracle 2) ride in the same binary since they share the
// generators.
//
// Every failure prints the generating seed and a shrunk reproducer; replay
// with the seed through testing::Rng on any platform.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/shrink.h"

namespace mitra::testing {
namespace {

// 20 shards x 500 seeds = 10,000 differential cases. Sharding keeps each
// ctest unit a few seconds and lets `ctest -j` spread the suite.
constexpr int kShards = 20;
constexpr int kCasesPerShard = 500;

// Seed-space offsets so the suites draw disjoint streams.
constexpr uint64_t kExecBase = 0x0DD5EED00000000ULL;
constexpr uint64_t kRoundTripBase = 0x0DD5EED10000000ULL;

common::ThreadPool* SharedPool() {
  static common::ThreadPool pool(4);
  return &pool;
}

class DifferentialExec : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialExec, AllExecutionPathsAgree) {
  const int shard = GetParam();
  for (int i = 0; i < kCasesPerShard; ++i) {
    const uint64_t seed =
        kExecBase + static_cast<uint64_t>(shard) * kCasesPerShard + i;
    Rng rng(seed);
    DocGenOptions dopts;
    dopts.xml_shape = (seed % 2) == 0;  // alternate XML- and JSON-shaped
    hdt::Hdt doc = GenerateDocument(&rng, dopts);
    dsl::Program prog = GenerateProgram(&rng, doc);

    CheckResult r = CheckExecutionEquivalence(doc, prog, SharedPool());
    if (!r.ok) {
      auto still_fails = [](const hdt::Hdt& d, const dsl::Program& p) {
        return !CheckExecutionEquivalence(d, p, nullptr).ok;
      };
      ShrunkCase small = ShrinkCase(doc, prog, still_fails);
      FAIL() << "differential mismatch, seed=" << seed << "\n"
             << r.failure << "\nshrunk reproducer (" << small.edits
             << " edits):\n"
             << DescribeCase(small.doc, small.program);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialExec,
                         ::testing::Range(0, kShards));

class RoundTripProps : public ::testing::TestWithParam<int> {};

// 20 shards x 100 seeds: each case checks the matching document
// round-trip (XML or JSON shape) and the DSL print/parse round-trip of a
// generated program.
TEST_P(RoundTripProps, WriterParserIdentityOnGeneratedCases) {
  const int shard = GetParam();
  for (int i = 0; i < 100; ++i) {
    const uint64_t seed =
        kRoundTripBase + static_cast<uint64_t>(shard) * 100 + i;
    Rng rng(seed);
    DocGenOptions dopts;
    dopts.xml_shape = (seed % 2) == 0;
    hdt::Hdt doc = GenerateDocument(&rng, dopts);

    CheckResult r =
        dopts.xml_shape ? CheckXmlRoundTrip(doc) : CheckJsonRoundTrip(doc);
    ASSERT_TRUE(r.ok) << (dopts.xml_shape ? "XML" : "JSON")
                      << " round-trip failed, seed=" << seed << "\n"
                      << r.failure;

    dsl::Program prog = GenerateProgram(&rng, doc);
    CheckResult pr = CheckDslRoundTrip(prog);
    ASSERT_TRUE(pr.ok) << "DSL round-trip failed, seed=" << seed << "\n"
                       << pr.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProps, ::testing::Range(0, 20));

}  // namespace
}  // namespace mitra::testing
