#ifndef MITRA_OBS_METRICS_H_
#define MITRA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file metrics.h
/// Process-global metrics registry (ISSUE 7): cheap thread-safe counters,
/// gauges, and histograms, addressed by slash-separated names following the
/// `layer/phase/name` scheme (e.g. "synth/phase2/candidates_enumerated").
///
/// Design goals, in priority order:
///  1. Hot-path cost: `Counter::Add` is one relaxed fetch_add on a
///     cache-line-padded shard chosen per thread — no locks, no hashing.
///     Callers cache the `Counter*` (the `MITRA_COUNT` macro does this with
///     a function-local static), so name lookup happens once per call site.
///  2. Zero dependencies: this library uses only the C++ standard library so
///     every layer (common included) can link it.
///  3. Exactness: `Counter::Value` sums all shards; concurrent adds are never
///     lost (verified under 8-thread contention in obs_test).
///
/// Instrumentation call sites should go through the macros in obs.h, which
/// compile to nothing when `MITRA_OBS=0`; the classes below are identical
/// under both settings so mixed builds stay ODR-clean.

namespace mitra::obs {

/// Number of independent shards per counter. Threads are assigned shards
/// round-robin at first use; 16 padded shards keep an 8-way contended add
/// mostly uncontended while costing 1 KiB per counter.
inline constexpr int kCounterShards = 16;

/// Monotonic counter. Add is wait-free; Value/Reset are O(shards).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n` to this thread's shard (relaxed; no ordering implied).
  void Add(std::uint64_t n = 1) noexcept {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards. Exact once writers have quiesced; a lower bound
  /// while they are still running.
  std::uint64_t Value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Zeroes every shard (test/reset support; not linearizable vs. Add).
  void Reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static int ThisThreadShard() noexcept;

  Shard shards_[kCounterShards];
};

/// Last-value + high-watermark gauge (e.g. queue depth, universe size).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::uint64_t v) noexcept {
    last_.store(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t last() const noexcept {
    return last_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept {
    last_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> last_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Log2-bucketed histogram for durations/sizes. Observe is wait-free.
class Histogram {
 public:
  /// Number of buckets: bucket b counts values v with floor(log2(v)) == b
  /// (bucket 0 also takes v == 0).
  static constexpr int kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::uint64_t v) noexcept {
    int b = v == 0 ? 0 : 63 - CountLeadingZeros(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t BucketCount(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void Reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  static int CountLeadingZeros(std::uint64_t v) noexcept {
    return __builtin_clzll(v);
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Flat name → value snapshot of every registered metric. Counters appear
/// under their name; gauges add `<name>/last` and `<name>/max`; histograms
/// add `<name>/count` and `<name>/sum`.
using MetricsSnapshot = std::map<std::string, std::uint64_t>;

/// Name → metric registry. Get* registers on first use and returns a stable
/// pointer (metrics are never removed, so cached pointers stay valid for the
/// process lifetime — `ResetAllMetrics` zeroes values, not registrations).
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Lookup without registering; nullptr when the name was never created.
  /// (The MITRA_OBS=0 no-op test uses this to prove instrumentation is
  /// compiled out.)
  const Counter* FindCounter(std::string_view name) const;

  MetricsSnapshot Snapshot() const;
  /// Zeroes every metric value, keeping registrations (and therefore every
  /// cached pointer) intact.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Convenience wrappers over Registry::Global().
Counter* GetCounter(std::string_view name);
Gauge* GetGauge(std::string_view name);
Histogram* GetHistogram(std::string_view name);
MetricsSnapshot SnapshotMetrics();
void ResetAllMetrics();

/// Snapshot minus an earlier snapshot: per-key max(0, now - before), keys
/// absent from `before` kept as-is, zero-delta keys dropped. Used to report
/// per-run metrics from the process-global registry.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before);

/// Flat compact JSON object `{"name":value,...}` with escaped keys, sorted
/// by name.
std::string MetricsJson(const MetricsSnapshot& snapshot);
/// MetricsJson over the current global snapshot.
std::string MetricsJson();

/// Fast per-site counter cache for call sites whose name arrives as a
/// `const char*` literal chosen at runtime (the governor's check sites).
/// Keys on pointer identity — distinct literals with equal contents simply
/// resolve to the same registry counter — so the hot path is one hash of
/// the pointer plus a relaxed add, with no string handling.
class SiteCounterCache {
 public:
  /// `prefix` is prepended to the site name on first registration, e.g.
  /// SiteCounterCache("gov/check/") maps site "dfa/construct" to the
  /// counter "gov/check/dfa/construct".
  explicit SiteCounterCache(const char* prefix) : prefix_(prefix) {}

  void Add(const char* site, std::uint64_t n = 1) noexcept;

 private:
  struct Entry {
    const char* key;
    Counter* counter;
  };
  static constexpr int kSlots = 256;  // power of two

  std::atomic<Entry*> slots_[kSlots] = {};
  const char* prefix_;
};

}  // namespace mitra::obs

#endif  // MITRA_OBS_METRICS_H_
