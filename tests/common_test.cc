#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json_builder.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/subprocess.h"

namespace mitra {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MITRA_ASSIGN_OR_RETURN(int h, Half(x));
  MITRA_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(Strings, Split) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(Strings, ParseNumber) {
  EXPECT_DOUBLE_EQ(*ParseNumber("3"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-2.5e2"), -250.0);
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("3a").has_value());
  EXPECT_FALSE(ParseNumber("abc").has_value());
}

TEST(Strings, CompareDataNumericAware) {
  EXPECT_EQ(CompareData("3", "3.0"), 0);    // numeric equality
  EXPECT_LT(CompareData("9", "10"), 0);     // numeric, not lexicographic
  EXPECT_GT(CompareData("b", "a"), 0);      // lexicographic fallback
  EXPECT_LT(CompareData("10x", "9x"), 0);   // non-numeric → lexicographic
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(Strings, Crc32KnownVectorsAndChaining) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining: feeding a prefix's CRC as the seed of the suffix must equal
  // the one-shot CRC (the journal chains per-table shard bytes this way).
  std::uint32_t part = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, part), Crc32("123456789", 9));
  EXPECT_NE(Crc32("12345678 ", 9), Crc32("123456789", 9));
}

TEST(Status, UnavailableIsTheTransientClass) {
  Status u = Status::Unavailable("socket hiccup");
  EXPECT_EQ(u.code(), StatusCode::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: socket hiccup");
  EXPECT_TRUE(common::IsTransient(u));
  EXPECT_FALSE(common::IsTransient(Status::OK()));
  EXPECT_FALSE(common::IsTransient(Status::InvalidArgument("bad")));
  EXPECT_FALSE(common::IsTransient(Status::ResourceExhausted("full")));
  EXPECT_FALSE(common::IsTransient(Status::ParseError("syntax")));
}

TEST(Retry, BackoffIsDeterministicJitteredAndCapped) {
  common::RetryOptions opts;
  opts.initial_backoff_ms = 10.0;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_ms = 35.0;
  opts.jitter = 0.5;
  opts.seed = 42;
  common::RetryPolicy a(opts), b(opts);
  for (int k = 1; k <= 6; ++k) {
    // Same (seed, attempt) → bit-identical backoff.
    EXPECT_DOUBLE_EQ(a.BackoffMs(k), b.BackoffMs(k)) << "attempt " << k;
    double base = std::min(10.0 * std::pow(2.0, k - 1), 35.0);
    EXPECT_GE(a.BackoffMs(k), base * 0.5) << "attempt " << k;
    EXPECT_LE(a.BackoffMs(k), base * 1.5) << "attempt " << k;
  }
  // A different seed shifts the jitter somewhere in the schedule.
  opts.seed = 43;
  common::RetryPolicy c(opts);
  bool any_differs = false;
  for (int k = 1; k <= 6; ++k) any_differs |= c.BackoffMs(k) != a.BackoffMs(k);
  EXPECT_TRUE(any_differs);
  // jitter = 0 → the exact exponential schedule.
  opts.jitter = 0.0;
  common::RetryPolicy exact(opts);
  EXPECT_DOUBLE_EQ(exact.BackoffMs(1), 10.0);
  EXPECT_DOUBLE_EQ(exact.BackoffMs(2), 20.0);
  EXPECT_DOUBLE_EQ(exact.BackoffMs(3), 35.0);  // capped
  EXPECT_DOUBLE_EQ(exact.BackoffMs(4), 35.0);
}

TEST(Retry, RecoversAfterTransientFailures) {
  common::RetryOptions opts;
  opts.max_attempts = 5;
  std::vector<double> slept;
  opts.sleep_ms = [&](double ms) { slept.push_back(ms); };
  common::RetryPolicy policy(opts);
  int calls = 0;
  common::RetryResult res = policy.Run([&]() -> Status {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.attempts, 3);
  EXPECT_TRUE(res.recovered());
  EXPECT_FALSE(res.exhausted);
  ASSERT_EQ(res.trail.size(), 2u);
  EXPECT_NE(res.trail[0].find("attempt 1"), std::string::npos);
  EXPECT_NE(res.trail[0].find("flaky"), std::string::npos);
  // The injected sleep saw exactly the deterministic schedule.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], policy.BackoffMs(1));
  EXPECT_DOUBLE_EQ(slept[1], policy.BackoffMs(2));
}

TEST(Retry, PermanentErrorIsNotRetried) {
  common::RetryOptions opts;
  opts.max_attempts = 5;
  opts.sleep_ms = [](double) { FAIL() << "must not sleep"; };
  int calls = 0;
  common::RetryResult res = common::RetryPolicy(opts).Run([&]() -> Status {
    ++calls;
    return Status::InvalidArgument("poison");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_FALSE(res.exhausted);
  EXPECT_FALSE(res.recovered());
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);
}

TEST(Retry, TransientExhaustionStopsAtMaxAttempts) {
  common::RetryOptions opts;
  opts.max_attempts = 4;
  opts.sleep_ms = [](double) {};
  int calls = 0;
  common::RetryResult res = common::RetryPolicy(opts).Run([&]() -> Status {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(res.attempts, 4);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(res.trail.size(), 4u);
}

TEST(Fs, TempPathRoundTrip) {
  EXPECT_EQ(common::TempPathFor("/a/b.csv"), "/a/b.csv.mitra-tmp");
  EXPECT_TRUE(common::IsTempPath("/a/b.csv.mitra-tmp"));
  EXPECT_FALSE(common::IsTempPath("/a/b.csv"));
  EXPECT_FALSE(common::IsTempPath("tmp"));
}

TEST(MemoryFs, WriteFileAtomicCommitsAndLeavesNoTemp) {
  common::MemoryFileSystem fs;
  EXPECT_TRUE(fs.WriteFile("/d/x", "old").ok());
  EXPECT_TRUE(fs.WriteFileAtomic("/d/x", "new").ok());
  EXPECT_EQ(*fs.ReadFile("/d/x"), "new");
  EXPECT_FALSE(fs.Exists(common::TempPathFor("/d/x")));
}

// A filesystem whose rename phase always fails: WriteFileAtomic must roll
// the staging temp back and leave the destination untouched.
class RenameFailsFileSystem : public common::MemoryFileSystem {
 public:
  Status Rename(const std::string& from, const std::string& to) override {
    return Status::Unavailable("rename refused: " + from + " -> " + to);
  }
};

TEST(MemoryFs, WriteFileAtomicRollsBackWhenRenameFails) {
  RenameFailsFileSystem fs;
  EXPECT_TRUE(fs.WriteFile("/d/x", "old").ok());
  Status st = fs.WriteFileAtomic("/d/x", "new");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(*fs.ReadFile("/d/x"), "old");          // destination untouched
  EXPECT_FALSE(fs.Exists(common::TempPathFor("/d/x")));  // temp rolled back
}

TEST(MemoryFs, ListDirEdgeCases) {
  common::MemoryFileSystem fs;
  // Missing and empty directories list as empty, not as errors.
  EXPECT_EQ(fs.ListDir("/nowhere")->size(), 0u);
  EXPECT_TRUE(fs.WriteFile("/d/a.csv", "1").ok());
  EXPECT_TRUE(fs.WriteFile("/d/b.csv", "2").ok());
  EXPECT_TRUE(fs.WriteFile("/d/sub/c.csv", "3").ok());      // not direct
  EXPECT_TRUE(fs.WriteFile("/d/e.csv.mitra-tmp", "x").ok());  // staging
  auto listed = fs.ListDir("/d");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"/d/a.csv", "/d/b.csv"}));
}

TEST(DiskFs, AtomicWriteListDirAndLifecycle) {
  namespace stdfs = std::filesystem;
  common::FileSystem* fs = common::RealFileSystem();
  stdfs::path root =
      stdfs::temp_directory_path() /
      ("mitra_fs_test_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  const std::string dir = root.string();

  // Missing directory is an explicit error on disk.
  EXPECT_FALSE(fs->ListDir(dir).ok());

  const std::string path = dir + "/out.csv";
  EXPECT_TRUE(fs->WriteFileAtomic(path, "r1\n").ok());  // creates parents
  EXPECT_EQ(*fs->ReadFile(path), "r1\n");
  EXPECT_TRUE(fs->WriteFileAtomic(path, "r2\n").ok());  // atomic overwrite
  EXPECT_EQ(*fs->ReadFile(path), "r2\n");
  EXPECT_FALSE(fs->Exists(common::TempPathFor(path)));

  // ListDir: skips subdirectories and atomic-staging temp files, sorts.
  EXPECT_TRUE(fs->WriteFile(dir + "/a.csv", "a").ok());
  EXPECT_TRUE(fs->WriteFile(dir + "/sub/c.csv", "c").ok());
  EXPECT_TRUE(fs->WriteFile(dir + "/b.csv.mitra-tmp", "b").ok());
  auto listed = fs->ListDir(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed,
            (std::vector<std::string>{dir + "/a.csv", dir + "/out.csv"}));
  auto empty = fs->ListDir(dir + "/empty_missing");
  EXPECT_FALSE(empty.ok());
  stdfs::create_directories(root / "empty");
  EXPECT_EQ(fs->ListDir(dir + "/empty")->size(), 0u);

  // Exists / Rename / idempotent Remove.
  EXPECT_TRUE(fs->Exists(path));
  EXPECT_TRUE(fs->Rename(path, dir + "/moved.csv").ok());
  EXPECT_FALSE(fs->Exists(path));
  EXPECT_EQ(*fs->ReadFile(dir + "/moved.csv"), "r2\n");
  EXPECT_TRUE(fs->Remove(dir + "/moved.csv").ok());
  EXPECT_FALSE(fs->Exists(dir + "/moved.csv"));
  EXPECT_TRUE(fs->Remove(dir + "/moved.csv").ok());  // missing → still OK

  // A write whose parent "directory" is a regular file reports the open
  // failure instead of silently succeeding.
  EXPECT_FALSE(fs->WriteFile(dir + "/a.csv/impossible", "x").ok());

  stdfs::remove_all(root);
}

TEST(DiskFs, ReadFileErrorsAndBinaryContent) {
  namespace stdfs = std::filesystem;
  common::FileSystem* fs = common::RealFileSystem();
  stdfs::path root =
      stdfs::temp_directory_path() /
      ("mitra_read_test_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  const std::string dir = root.string();

  // Missing file keeps the MemoryFileSystem message shape (callers match
  // on "cannot open").
  auto missing = fs->ReadFile(dir + "/absent.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.status().message().find("cannot open"),
            std::string::npos);

  // A path through a regular file (ENOTDIR) reads as the same class.
  ASSERT_TRUE(fs->WriteFileAtomic(dir + "/plain", "x").ok());
  EXPECT_FALSE(fs->ReadFile(dir + "/plain/below").ok());

  // Binary content with embedded NULs round-trips exactly (the fd-based
  // read path is size-faithful, not line-oriented).
  std::string blob;
  for (int i = 0; i < 4096; ++i) blob += static_cast<char>(i % 256);
  ASSERT_TRUE(fs->WriteFileAtomic(dir + "/blob.bin", blob).ok());
  auto back = fs->ReadFile(dir + "/blob.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);

  // Empty file reads as empty string, not an error.
  ASSERT_TRUE(fs->WriteFileAtomic(dir + "/empty", "").ok());
  EXPECT_EQ(*fs->ReadFile(dir + "/empty"), "");

  stdfs::remove_all(root);
}

TEST(Subprocess, EchoFramesThroughCat) {
  common::SubprocessOptions opts;
  opts.argv = {"/bin/cat"};
  auto proc = common::Subprocess::Spawn(opts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  // cat copies stdin to stdout byte-for-byte: whatever frames go in must
  // come out intact, including binary payloads.
  std::string payload = "hello";
  payload.push_back('\0');
  payload += "\xff\x01world";
  ASSERT_TRUE(common::WriteFrame((*proc)->in_fd(), 'X', payload).ok());
  ASSERT_TRUE(common::WriteFrame((*proc)->in_fd(), 'Y', "").ok());
  (*proc)->CloseIn();

  auto first = common::ReadFrame((*proc)->out_fd());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->first, 'X');
  EXPECT_EQ((*first)->second, payload);
  auto second = common::ReadFrame((*proc)->out_fd());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->first, 'Y');
  EXPECT_EQ((*second)->second, "");
  auto eof = common::ReadFrame((*proc)->out_fd());
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());  // clean EOF, not an error

  common::ExitInfo info = (*proc)->Wait();
  EXPECT_FALSE(info.signaled);
  EXPECT_EQ(info.exit_code, 0);
}

TEST(Subprocess, ExitCodeSignalKillAndEnv) {
  // Exit code propagates.
  common::SubprocessOptions false_opts;
  false_opts.argv = {"/bin/false"};
  auto failing = common::Subprocess::Spawn(false_opts);
  ASSERT_TRUE(failing.ok());
  common::ExitInfo info = (*failing)->Wait();
  EXPECT_FALSE(info.signaled);
  EXPECT_EQ(info.exit_code, 1);

  // Kill is reported as a signal death with the right number.
  common::SubprocessOptions cat_opts;
  cat_opts.argv = {"/bin/cat"};
  auto victim = common::Subprocess::Spawn(cat_opts);
  ASSERT_TRUE(victim.ok());
  EXPECT_FALSE((*victim)->TryWait().has_value());  // still running
  (*victim)->Kill(SIGKILL);
  info = (*victim)->Wait();
  EXPECT_TRUE(info.signaled);
  EXPECT_EQ(info.signal, SIGKILL);
  EXPECT_EQ(common::SignalName(info.signal), "SIGKILL");

  // opts.env merges over the parent environment.
  common::SubprocessOptions env_opts;
  env_opts.argv = {"/bin/sh", "-c", "printf '%s' \"$MITRA_SUBPROC_TEST\""};
  env_opts.env = {"MITRA_SUBPROC_TEST=marker42"};
  auto sh = common::Subprocess::Spawn(env_opts);
  ASSERT_TRUE(sh.ok());
  std::string out;
  char buf[64];
  ssize_t n;
  while ((n = ::read((*sh)->out_fd(), buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(out, "marker42");
  EXPECT_EQ((*sh)->Wait().exit_code, 0);

  // A missing executable fails the exec path: exit 127, never a hang.
  common::SubprocessOptions bad_opts;
  bad_opts.argv = {"/no/such/binary"};
  auto bad = common::Subprocess::Spawn(bad_opts);
  ASSERT_TRUE(bad.ok());  // fork succeeded; exec failure is the child's
  EXPECT_EQ((*bad)->Wait().exit_code, 127);
}

TEST(Subprocess, CpuRlimitDeliversSigxcpu) {
  common::SubprocessOptions opts;
  // A pure-CPU spin; the 1-second soft RLIMIT_CPU ends it with SIGXCPU.
  opts.argv = {"/bin/sh", "-c", "while :; do :; done"};
  opts.rlimit_cpu_seconds = 1;
  auto proc = common::Subprocess::Spawn(opts);
  ASSERT_TRUE(proc.ok());
  common::ExitInfo info = (*proc)->Wait();
  EXPECT_TRUE(info.signaled);
  EXPECT_EQ(info.signal, SIGXCPU);
  EXPECT_GE(info.user_seconds + info.system_seconds, 0.5);
}

TEST(FrameBuffer, ReassemblesSplitFramesAndRejectsOversize) {
  // One frame fed a byte at a time must come out exactly once.
  std::string payload = "abc";
  std::string wire;
  wire.push_back(3);  // u32 LE payload length
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back('T');
  wire += payload;
  common::FrameBuffer buf;
  for (size_t i = 0; i < wire.size(); ++i) {
    buf.Append(wire.data() + i, 1);
    auto frame = buf.Next();
    ASSERT_TRUE(frame.ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(frame->has_value()) << "frame complete too early at " << i;
      EXPECT_TRUE(buf.MidFrame());  // partial bytes are buffered
    } else {
      ASSERT_TRUE(frame->has_value());
      EXPECT_EQ((*frame)->first, 'T');
      EXPECT_EQ((*frame)->second, payload);
      EXPECT_FALSE(buf.MidFrame());
    }
  }

  // Two frames in one append drain in order.
  buf.Append(wire.data(), wire.size());
  buf.Append(wire.data(), wire.size());
  for (int i = 0; i < 2; ++i) {
    auto frame = buf.Next();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->has_value());
    EXPECT_EQ((*frame)->second, payload);
  }
  EXPECT_FALSE(buf.Next()->has_value());

  // An oversize length header poisons the stream permanently (a
  // corrupted or malicious worker, not a recoverable state).
  std::string huge(5, '\xff');  // 0xffffffff length + a type byte
  buf.Append(huge.data(), huge.size());
  EXPECT_FALSE(buf.Next().ok());
  EXPECT_FALSE(buf.Next().ok());  // still poisoned
  buf.Reset();
  buf.Append(wire.data(), wire.size());
  EXPECT_TRUE(buf.Next().ok());  // Reset un-poisons for a fresh stream
}

TEST(JsonBuilder, NestsContainersAndPlacesCommas) {
  JsonBuilder json;
  json.BeginObject()
      .Key("a").Int(1)
      .Key("empty_object").BeginObject().EndObject()
      .Key("empty_array").BeginArray().EndArray()
      .Key("list").BeginArray()
      .Int(2)
      .BeginObject().Key("x").Bool(true).Key("y").Bool(false).EndObject()
      .BeginArray().EndArray()
      .String("s")
      .Raw("{\"spliced\":[1,2]}")
      .EndArray()
      .Key("last").String("")
      .EndObject();
  EXPECT_EQ(json.Take(),
            "{\"a\":1,\"empty_object\":{},\"empty_array\":[],"
            "\"list\":[2,{\"x\":true,\"y\":false},[],\"s\","
            "{\"spliced\":[1,2]}],"
            "\"last\":\"\"}");
  EXPECT_EQ(JsonBuilder().BeginObject().EndObject().Take(), "{}");
  EXPECT_EQ(JsonBuilder().BeginArray().EndArray().Take(), "[]");
}

TEST(JsonBuilder, EscapesKeysAndStrings) {
  // Quote, backslash, a bare control byte, newline, and UTF-8 (é, €),
  // which passes through unescaped.
  const std::string hostile = "q\"b\\c\x01n\n\xc3\xa9\xe2\x82\xac";
  const std::string escaped = "q\\\"b\\\\c\\u0001n\\n\xc3\xa9\xe2\x82\xac";
  EXPECT_EQ(JsonBuilder().BeginObject().Key(hostile).String(hostile)
                .EndObject().Take(),
            "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonBuilder, IntegersAreExactAtTheLimits) {
  EXPECT_EQ(JsonBuilder()
                .BeginArray()
                .Int(std::numeric_limits<std::int64_t>::min())
                .Int(std::numeric_limits<std::uint64_t>::max())
                .Int(0)
                .Int(-1)
                .Int(std::size_t{42})
                .EndArray()
                .Take(),
            "[-9223372036854775808,18446744073709551615,0,-1,42]");
}

TEST(JsonBuilder, DoublesAreShortestRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(JsonBuilder()
                .BeginArray()
                .Double(0.1)
                .Double(1.5)
                .Double(-2.0)
                .Double(0.0)
                .Double(1234.567)
                .Double(std::numeric_limits<double>::quiet_NaN())
                .Double(std::numeric_limits<double>::infinity())
                .Double(-std::numeric_limits<double>::infinity())
                .EndArray()
                .Take(),
            "[0.1,1.5,-2,0,1234.567,null,null,null]");
  for (double v : {1.0 / 3.0, 6.02214076e23, 5e-324, 0.000373099,
                   std::numeric_limits<double>::max()}) {
    const std::string text = JsonBuilder().Double(v).Take();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

}  // namespace
}  // namespace mitra
