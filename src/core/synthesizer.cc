#include "core/synthesizer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>

#include "common/thread_pool.h"
#include "core/extractor_memo.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

/// Number of edges between two nodes of the same tree.
size_t TreeDistance(const hdt::Hdt& tree, hdt::NodeId a, hdt::NodeId b) {
  int da = tree.Depth(a), db = tree.Depth(b);
  size_t dist = 0;
  while (da > db) {
    a = tree.Parent(a);
    --da;
    ++dist;
  }
  while (db > da) {
    b = tree.Parent(b);
    --db;
    ++dist;
  }
  while (a != b) {
    a = tree.Parent(a);
    b = tree.Parent(b);
    dist += 2;
  }
  return dist;
}

/// VerifyOnExample on every example, summing `excess` and `spread`. The
/// per-example column caches are the memo's, so verification reuses
/// Phase 2's extractions. `want_norm[i]` is examples[i].table normalized
/// once by the caller (invariant across candidates).
bool VerifyProgram(const Examples& examples,
                   const std::vector<hdt::Table>& want_norm,
                   const dsl::Program& p, const dsl::EvalOptions& eval,
                   ExtractorMemoCache* memo, size_t* excess, size_t* spread) {
  *excess = 0;
  *spread = 0;
  for (size_t ei = 0; ei < examples.size(); ++ei) {
    auto verified = VerifyOnExample(*examples[ei].tree, want_norm[ei], p,
                                    eval, &memo->Columns(ei));
    if (!verified.ok()) return false;
    *excess += verified->excess;
    *spread += verified->spread;
  }
  return true;
}

/// Ranking key: θ's atom count first, then semantic tightness and
/// structural cohesion, then θ's syntactic components.
struct RankedCost {
  int atoms;
  size_t excess;
  size_t spread;
  int col_constructs;
  int detail;

  auto operator<=>(const RankedCost&) const = default;
  static RankedCost Max() {
    return RankedCost{std::numeric_limits<int>::max(), SIZE_MAX, SIZE_MAX,
                      std::numeric_limits<int>::max(),
                      std::numeric_limits<int>::max()};
  }
};

}  // namespace

Result<VerifiedExample> VerifyOnExample(const hdt::Hdt& tree,
                                        const hdt::Table& want_norm,
                                        const dsl::Program& p,
                                        const dsl::EvalOptions& eval,
                                        ColumnCache* columns) {
  ExecuteOptions exec;
  exec.max_output_rows = eval.max_intermediate_tuples;
  exec.governor = eval.governor;
  exec.column_cache = columns;
  VerifiedExample out;
  MITRA_ASSIGN_OR_RETURN(out.tuples,
                         OptimizedExecutor(p).ExecuteNodes(tree, exec));
  hdt::Table got(p.columns.size());
  for (const dsl::NodeTuple& t : out.tuples) {
    MITRA_RETURN_IF_ERROR(got.AppendRow(dsl::ProjectData(tree, t)));
    for (size_t i = 1; i < t.size(); ++i) {
      out.spread += TreeDistance(tree, t[0], t[i]);
    }
  }
  got.Dedup();
  got.SortRows();
  out.excess = out.tuples.size() - got.NumRows();
  if (got.rows() != want_norm.rows()) {
    return Status::SynthesisFailure(
        "program is inconsistent with the example");
  }
  return out;
}

Result<SynthesisResult> LearnTransformation(const Examples& examples,
                                            const SynthesisOptions& opts) {
  MITRA_SPAN(span_learn, "synth/learn_transformation");
  // Per-run metrics = global-registry delta across this call (exact for
  // single-run callers; see SynthesisStats::metrics).
  obs::MetricsSnapshot metrics_before = obs::SnapshotMetrics();
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  if (examples.empty()) {
    return Status::InvalidArgument("no examples provided");
  }
  const size_t k = examples[0].table->NumCols();
  if (k == 0) {
    return Status::InvalidArgument("output table has no columns");
  }
  for (const Example& e : examples) {
    if (e.table->NumCols() != k) {
      return Status::InvalidArgument(
          "all output examples must have the same number of columns");
    }
  }

  // Resource governance: one governor per run, shared by every phase and
  // every worker thread. An external governor (migrator rungs) takes
  // precedence; otherwise one is created from opts.limits with the legacy
  // time_limit_seconds as its deadline.
  std::optional<common::Governor> owned_gov;
  common::Governor* gov = opts.governor;
  if (gov == nullptr) {
    common::ResourceLimits limits = opts.limits;
    if (!limits.has_deadline()) {
      limits.time_limit_seconds = opts.time_limit_seconds;
    }
    owned_gov.emplace(limits);
    gov = &*owned_gov;
  }
  MITRA_GOV_CHECK(gov, "synth/start");

  SynthesisResult best;
  RankedCost best_cost = RankedCost::Max();
  bool found = false;
  SynthesisStats stats;

  const unsigned threads =
      opts.num_threads == 0
          ? common::ThreadPool::HardwareThreads()
          : static_cast<unsigned>(std::max(1, opts.num_threads));
  std::optional<common::ThreadPool> pool_storage;
  common::ThreadPool* tpool = nullptr;
  if (threads > 1) {
    pool_storage.emplace(threads);
    tpool = &*pool_storage;
  }

  // Phase 1: column extractors (Alg. 1 lines 4-5). The k learners are
  // independent; under the pool each gets its own ColSymbolPool, which is
  // safe because EnumerateAcceptedPrograms orders symbols by content, not
  // by interned id, so per-column pools yield the same candidate lists as
  // the shared pool.
  ColumnLearnOptions copts = opts.column;
  copts.dfa.governor = gov;
  copts.enumerate.governor = gov;
  std::vector<std::vector<dsl::ColumnExtractor>> candidates(k);
  {
    MITRA_SPAN(span_phase1, "synth/phase1");
    if (tpool != nullptr && k > 1) {
      MITRA_RETURN_IF_ERROR(common::ParallelForStatus(
          tpool, k,
          [&](size_t j) -> Status {
            ColSymbolPool col_pool;
            MITRA_ASSIGN_OR_RETURN(
                candidates[j],
                LearnColumnExtractors(examples, static_cast<int>(j), &col_pool,
                                      copts));
            return Status::OK();
          },
          gov->token()));
    } else {
      ColSymbolPool pool;
      for (size_t j = 0; j < k; ++j) {
        MITRA_GOV_CHECK(gov, "synth/column");
        MITRA_ASSIGN_OR_RETURN(
            candidates[j],
            LearnColumnExtractors(examples, static_cast<int>(j), &pool, copts));
      }
    }
  }
  MITRA_COUNT("synth/phase1/columns", k);
  for (size_t j = 0; j < k; ++j) {
    stats.candidates_per_column.push_back(candidates[j].size());
    MITRA_COUNT("synth/phase1/column_candidates", candidates[j].size());
  }

  // Phase 2: iterate ψ ∈ Π1 × … × Πk cheapest-first (Alg. 1 lines 8-12).
  // Best-first frontier over index vectors ordered by total construct
  // count; candidates[j] are already shortest-first.
  struct Combo {
    int total_cost;
    std::vector<size_t> idx;
    bool operator>(const Combo& o) const { return total_cost > o.total_cost; }
  };
  auto combo_cost = [&](const std::vector<size_t>& idx) {
    int c = 0;
    for (size_t j = 0; j < k; ++j) {
      c += candidates[j][idx[j]].NumConstructs();
    }
    return c;
  };
  std::priority_queue<Combo, std::vector<Combo>, std::greater<>> frontier;
  std::set<std::vector<size_t>> enqueued;
  std::vector<size_t> zero(k, 0);
  frontier.push(Combo{combo_cost(zero), zero});
  enqueued.insert(zero);

  // One governor pointer for the whole run: the memo cache binds the
  // enumeration options (governor included) for every combo, and a shared
  // token is what makes a single overrun stop every in-flight sibling.
  PredicateLearnOptions popts = opts.predicate;
  popts.universe.governor = gov;
  popts.universe.node_enum.governor = gov;
  popts.eval.governor = gov;
  // Cross-candidate memoization: consecutive ψ share almost all column
  // extractors, so EvalColumn results, enumerated node extractors and
  // target facts are cached across combos (see extractor_memo.h). Scoped
  // to this call; purely a performance device.
  ExtractorMemoCache memo(examples, popts.universe);
  popts.universe.memo = &memo;

  // The expected tables normalized once (Dedup + SortRows is invariant
  // across candidates; hoisted out of the per-combo verification).
  std::vector<hdt::Table> want_norm;
  want_norm.reserve(examples.size());
  for (const Example& e : examples) {
    hdt::Table t = *e.table;
    t.Dedup();
    t.SortRows();
    want_norm.push_back(std::move(t));
  }

  /// Everything the merge step needs from evaluating one combo.
  struct Outcome {
    Status failure;         ///< non-OK when LearnPredicate failed
    size_t universe_size = 0;
    bool cover_optimal = true;
    bool verified = false;
    dsl::Program program;   ///< set iff verified
    size_t excess = 0, spread = 0;
  };

  Status last_failure = Status::SynthesisFailure("no table extractor tried");
  const size_t wave_cap = tpool ? static_cast<size_t>(tpool->size()) * 2 : 1;
  bool done = false;
  MITRA_SPAN(span_phase2, "synth/phase2");
  while (!done && !frontier.empty() &&
         stats.table_extractors_tried < opts.max_table_extractors) {
    // Pop a wave of combos. Successors are enqueued at pop time and
    // evaluation never pushes, so the pop/push stream is independent of
    // evaluation results: waves replay the sequential frontier order
    // exactly, whatever the wave size. The wave is additionally bounded
    // by the remaining tried/consistent budgets: each combo yields at
    // most one consistent program, so popping more than the remaining
    // consistent budget guarantees discarded work past the stopping
    // point (costly when predicate learning is expensive).
    const size_t budget_cap = std::max<size_t>(
        1, std::min(
               opts.max_table_extractors - stats.table_extractors_tried,
               opts.max_consistent_programs -
                   stats.table_extractors_consistent));
    std::vector<Combo> wave;
    std::vector<char> skip_eval;
    while (wave.size() < std::min(wave_cap, budget_cap) &&
           !frontier.empty()) {
      Combo combo = frontier.top();
      frontier.pop();
      // Enqueue successors (increment one column's candidate index).
      for (size_t j = 0; j < k; ++j) {
        if (combo.idx[j] + 1 < candidates[j].size()) {
          std::vector<size_t> next = combo.idx;
          ++next[j];
          if (enqueued.insert(next).second) {
            frontier.push(Combo{combo_cost(next), std::move(next)});
          }
        }
      }
      // A combo prunable against the pre-wave incumbent stays prunable
      // at merge time (the prune condition is monotone in best_cost), so
      // its evaluation can be skipped outright — the merge step below
      // re-derives the same `continue`.
      skip_eval.push_back(found && best_cost.atoms == 0 &&
                          best_cost.excess == 0 &&
                          combo.total_cost >= best_cost.col_constructs);
      wave.push_back(std::move(combo));
    }
    MITRA_COUNT("synth/phase2/waves", 1);
    MITRA_HISTOGRAM("synth/phase2/wave_size", wave.size());

    // Evaluate the wave on the pool. Evaluation is speculative: pruning
    // and stopping decisions are re-applied at merge time below, where a
    // late combo's result may simply be discarded — wasted work under
    // contention, never a changed result.
    // Evaluation failures are captured per-outcome (not returned) so the
    // merge below replays the sequential decision order; the token still
    // short-circuits unclaimed wave items once the governor trips.
    std::vector<Outcome> outcomes(wave.size());
    Status wave_status = common::ParallelForStatus(
        tpool, wave.size(), [&](size_t i) -> Status {
      if (skip_eval[i]) return Status::OK();
      Outcome& out = outcomes[i];
      std::vector<dsl::ColumnExtractor> psi;
      psi.reserve(k);
      for (size_t j = 0; j < k; ++j) {
        psi.push_back(candidates[j][wave[i].idx[j]]);
      }
      auto learned = LearnPredicate(examples, psi, popts);
      if (!learned.ok()) {
        out.failure = learned.status();
        return Status::OK();
      }
      out.universe_size = learned->universe_size;
      out.cover_optimal = learned->cover_optimal;
      dsl::Program p;
      p.columns = std::move(psi);
      p.atoms = learned->atoms;
      p.formula = learned->formula;
      if (!VerifyProgram(examples, want_norm, p, popts.eval, &memo,
                         &out.excess, &out.spread)) {
        return Status::OK();
      }
      out.verified = true;
      out.program = std::move(p);
      return Status::OK();
        },
        gov->token());
    // A non-OK wave status can only be the token's cancellation cause
    // (bodies return OK); the merge loop below surfaces it in pop order.
    (void)wave_status;

    // Merge in pop order, replaying the sequential loop's decisions
    // (budget caps, time limit, prune, ranking) combo by combo.
    for (size_t i = 0; i < wave.size(); ++i) {
      if (stats.table_extractors_tried >= opts.max_table_extractors) {
        done = true;
        break;
      }
      // Budget/deadline/cancellation: with a solution in hand, stop and
      // return it (the paper's any-time behaviour); otherwise surface the
      // governor's cause (which budget, which site) as the run's error.
      Status gov_status = gov->Check("synth/merge");
      if (!gov_status.ok()) {
        if (found) {
          done = true;
          break;
        }
        return gov_status;
      }
      // Every combo that reaches this point is "enumerated"; it is then
      // either pruned (cost prune, predicate failure, failed verification)
      // or accepted, so pruned + accepted == enumerated holds exactly.
      // These are counted in the merge loop — which replays the
      // sequential pop order whatever the thread count — so they are
      // bit-identical at --threads=1 and --threads=8.
      MITRA_COUNT("synth/phase2/candidates_enumerated", 1);
      // Prune: even a predicate-free program over this ψ cannot beat the
      // incumbent when its extractor cost alone is not smaller.
      if (found && best_cost.atoms == 0 && best_cost.excess == 0 &&
          wave[i].total_cost >= best_cost.col_constructs) {
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      ++stats.table_extractors_tried;

      Outcome& out = outcomes[i];
      if (!out.failure.ok()) {
        last_failure = out.failure;
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      stats.max_universe_size =
          std::max(stats.max_universe_size, out.universe_size);
      if (!out.verified) {
        last_failure = Status::SynthesisFailure(
            "candidate program failed end-to-end verification");
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      MITRA_COUNT("synth/phase2/candidates_accepted", 1);
      ++stats.table_extractors_consistent;
      dsl::Cost cost = dsl::ProgramCost(out.program);
      RankedCost ranked{cost.atoms, out.excess, out.spread,
                        cost.col_constructs, cost.detail};
      if (ranked < best_cost) {
        best_cost = ranked;
        best.program = std::move(out.program);
        stats.cover_optimal = out.cover_optimal;
        found = true;
      }
      if (stats.table_extractors_consistent >= opts.max_consistent_programs) {
        done = true;
        break;
      }
    }
  }

  stats.memo_hits = memo.hits();
  stats.memo_misses = memo.misses();
  stats.seconds = elapsed();
  if (owned_gov) stats.usage = gov->Usage();
  stats.metrics = obs::SnapshotDelta(metrics_before);
  if (!found) {
    // A tripped governor (budget overrun, cancellation) outranks the
    // generic synthesis failure: the caller must see kResourceExhausted,
    // not a "no program found" that merely reflects truncated search.
    if (gov->token()->cancelled()) {
      return gov->token()->cause();
    }
    return Status::SynthesisFailure(
        "no DSL program consistent with the examples was found (last "
        "failure: " +
        last_failure.message() + ")");
  }
  best.stats = std::move(stats);
  best.stats.seconds = elapsed();
  return best;
}

Result<SynthesisResult> LearnTransformation(const hdt::Hdt& tree,
                                            const hdt::Table& table,
                                            const SynthesisOptions& opts) {
  Examples examples{Example{&tree, &table}};
  return LearnTransformation(examples, opts);
}

namespace {

/// Does program `p` reproduce example `e` (as a row set)?
bool SatisfiesExample(const dsl::Program& p, const Example& e,
                      const dsl::EvalOptions& eval) {
  hdt::Table want = *e.table;
  want.Dedup();
  want.SortRows();
  return VerifyOnExample(*e.tree, want, p, eval).ok();
}

/// Enumerates all size-`k` index subsets of [0, m), lexicographically.
void ForEachSubset(size_t m, size_t k,
                   const std::function<bool(const std::vector<size_t>&)>& fn) {
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    if (!fn(idx)) return;
    // Advance.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] + (k - i) < m) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

}  // namespace

Result<BestEffortResult> LearnBestEffortTransformation(
    const Examples& examples, const SynthesisOptions& opts) {
  if (examples.empty()) {
    return Status::InvalidArgument("no examples provided");
  }
  const size_t m = examples.size();
  constexpr size_t kMaxAttempts = 64;
  size_t attempts = 0;
  Status last = Status::SynthesisFailure("no subset attempted");

  for (size_t size = m; size >= 1; --size) {
    std::optional<BestEffortResult> found;
    ForEachSubset(m, size, [&](const std::vector<size_t>& idx) {
      if (++attempts > kMaxAttempts) return false;
      Examples subset;
      subset.reserve(idx.size());
      for (size_t i : idx) subset.push_back(examples[i]);
      auto result = LearnTransformation(subset, opts);
      if (!result.ok()) {
        last = result.status();
        return true;  // next subset
      }
      BestEffortResult best;
      best.program = std::move(result->program);
      best.stats = std::move(result->stats);
      // The program may satisfy left-out examples too.
      for (size_t i = 0; i < m; ++i) {
        if (SatisfiesExample(best.program, examples[i],
                             opts.predicate.eval)) {
          best.satisfied.push_back(i);
        }
      }
      found = std::move(best);
      return false;  // stop at the first (largest) satisfiable subset
    });
    if (found) return std::move(*found);
    if (attempts > kMaxAttempts) break;
  }
  return Status(last.code(),
                "no DSL program satisfies any explored example subset "
                "(last: " +
                    last.message() + ")");
}

}  // namespace mitra::core
