#include "core/qm.h"

#include <algorithm>
#include <functional>
#include <set>
#include <tuple>

#include "core/set_cover.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

/// A product term: variables in `mask` are fixed to the values in `bits`
/// (bits ⊆ mask); variables outside `mask` are free.
struct Implicant {
  uint32_t bits = 0;
  uint32_t mask = 0;

  bool operator<(const Implicant& o) const {
    return std::tie(mask, bits) < std::tie(o.mask, o.bits);
  }
  bool operator==(const Implicant& o) const {
    return bits == o.bits && mask == o.mask;
  }
  bool Covers(uint32_t row) const { return (row & mask) == bits; }
  int NumLiterals() const { return __builtin_popcount(mask); }
};

/// Enumerates the minimal hitting sets (as variable bitmasks) of the
/// family `diff_sets` (each a non-empty variable bitmask). Bounded by
/// `cap`; returns false if the cap was hit.
bool MinimalHittingSets(std::vector<uint32_t> diff_sets, size_t cap,
                        std::vector<uint32_t>* out) {
  // Dedup and remove supersets (a hitting set of A ⊆ B also hits B).
  std::sort(diff_sets.begin(), diff_sets.end(),
            [](uint32_t a, uint32_t b) {
              return __builtin_popcount(a) < __builtin_popcount(b);
            });
  std::vector<uint32_t> reduced;
  for (uint32_t d : diff_sets) {
    bool dominated = false;
    for (uint32_t r : reduced) {
      if ((r & d) == r) {  // r ⊆ d
        dominated = true;
        break;
      }
    }
    if (!dominated) reduced.push_back(d);
  }

  std::vector<uint32_t> raw;
  bool ok = true;
  // DFS: pick the first not-yet-hit set, branch on each of its variables.
  // `chosen` accumulates the current partial hitting set.
  std::function<void(uint32_t)> rec = [&](uint32_t chosen) {
    if (raw.size() >= cap) {
      ok = false;
      return;
    }
    // Find first set not hit.
    uint32_t unhit = 0;
    bool found = false;
    for (uint32_t d : reduced) {
      if ((d & chosen) == 0) {
        unhit = d;
        found = true;
        break;
      }
    }
    if (!found) {
      raw.push_back(chosen);
      return;
    }
    uint32_t rest = unhit;
    while (rest && ok) {
      uint32_t v = rest & (~rest + 1);  // lowest set bit
      rest &= rest - 1;
      rec(chosen | v);
    }
  };
  rec(0);

  // Keep only minimal sets: sort by popcount (a proper subset always has
  // a smaller popcount), dedup, then accept a set only if no previously
  // accepted set is a subset of it.
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  std::stable_sort(raw.begin(), raw.end(), [](uint32_t a, uint32_t b) {
    return __builtin_popcount(a) < __builtin_popcount(b);
  });
  size_t first_new = out->size();
  for (uint32_t s : raw) {
    bool minimal = true;
    for (size_t i = first_new; i < out->size(); ++i) {
      uint32_t m = (*out)[i];
      if ((m & s) == m) {
        minimal = false;
        break;
      }
    }
    if (minimal) out->push_back(s);
  }
  return ok;
}

}  // namespace

bool EvalVarDnf(const VarDnf& dnf, uint32_t assignment) {
  for (const auto& clause : dnf) {
    bool all = true;
    for (const VarLiteral& lit : clause) {
      bool v = (assignment >> lit.var) & 1;
      if (lit.negated) v = !v;
      if (!v) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

Result<VarDnf> MinimizeDnf(int num_vars, const std::vector<uint32_t>& on_rows,
                           const std::vector<uint32_t>& off_rows,
                           const QmOptions& opts) {
  MITRA_SPAN(span, "qm/minimize");
  if (num_vars < 0 || num_vars > 30) {
    return Status::InvalidArgument("MinimizeDnf supports up to 30 variables");
  }
  std::vector<uint32_t> on = on_rows, off = off_rows;
  std::sort(on.begin(), on.end());
  on.erase(std::unique(on.begin(), on.end()), on.end());
  std::sort(off.begin(), off.end());
  off.erase(std::unique(off.begin(), off.end()), off.end());

  for (uint32_t r : on) {
    if (std::binary_search(off.begin(), off.end(), r)) {
      return Status::SynthesisFailure(
          "truth table contradiction: assignment " + std::to_string(r) +
          " required to be both 1 and 0");
    }
  }
  if (on.empty()) return VarDnf{};                       // constant false
  if (off.empty()) return VarDnf{{}};                    // constant true

  // Prime implicants: minimal hitting sets of difference sets per on-row.
  std::set<Implicant> primes_set;
  for (uint32_t m : on) {
    std::vector<uint32_t> diffs;
    diffs.reserve(off.size());
    for (uint32_t o : off) diffs.push_back(m ^ o);  // never 0 (checked above)
    std::vector<uint32_t> hs;
    if (!MinimalHittingSets(std::move(diffs), opts.max_primes_per_row, &hs)) {
      return Status::ResourceExhausted(
          "prime-implicant enumeration cap exceeded");
    }
    for (uint32_t s : hs) {
      primes_set.insert(Implicant{m & s, s});
      if (primes_set.size() > opts.max_primes) {
        return Status::ResourceExhausted("too many prime implicants");
      }
    }
  }

  // Order primes: fewer literals first (so exact-cover ties favour the
  // cheaper prime), then deterministic.
  std::vector<Implicant> primes(primes_set.begin(), primes_set.end());
  std::stable_sort(primes.begin(), primes.end(),
                   [](const Implicant& a, const Implicant& b) {
                     return a.NumLiterals() < b.NumLiterals();
                   });

  // Exact minimum cover of on-rows by primes (Petrick step).
  std::vector<DynBitset> cover_sets;
  cover_sets.reserve(primes.size());
  for (const Implicant& p : primes) {
    DynBitset bs(on.size());
    for (size_t i = 0; i < on.size(); ++i) {
      if (p.Covers(on[i])) bs.Set(i);
    }
    cover_sets.push_back(std::move(bs));
  }
  MITRA_ASSIGN_OR_RETURN(SetCoverResult cover,
                         MinSetCover(cover_sets, on.size()));

  VarDnf out;
  for (int idx : cover.chosen) {
    const Implicant& p = primes[idx];
    std::vector<VarLiteral> clause;
    for (int v = 0; v < num_vars; ++v) {
      if ((p.mask >> v) & 1) {
        clause.push_back(VarLiteral{v, ((p.bits >> v) & 1) == 0});
      }
    }
    out.push_back(std::move(clause));
  }
  return out;
}

}  // namespace mitra::core
