#include "analytics/pagerank.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace kgq {

std::vector<double> PageRank(const CsrSnapshot& g,
                             const PageRankOptions& opts) {
  KGQ_SPAN("analytics.pagerank");
  KGQ_COUNTER_INC("analytics.pagerank.runs");
  size_t n = g.num_nodes();
  if (n == 0) return {};
  const ParallelOptions& par = opts.parallel;
  // Node-block size: fixed by n alone so reduction chunking (and hence
  // floating-point rounding) is independent of the thread count.
  size_t grain = std::max<size_t>(64, (n + 255) / 256);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  size_t iterations = 0;
  while (iterations < opts.max_iterations) {
    ++iterations;
    double dangling = ParallelReduce(
        0, n, grain, 0.0,
        [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (NodeId v = lo; v < hi; ++v) {
            if (g.OutDegree(v) == 0) s += rank[v];
          }
          return s;
        },
        [](double a, double b) { return a + b; }, par);
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    // Pull form of the update: each node gathers over its in-edges, so
    // node blocks write disjoint slots of `next` and the per-node sum
    // order is fixed regardless of the schedule.
    ParallelFor(
        0, n, grain,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            double sum = base;
            for (const CsrSnapshot::Entry& e : g.In(v)) {
              sum += opts.damping * rank[e.neighbor] /
                     static_cast<double>(g.OutDegree(e.neighbor));
            }
            next[v] = sum;
          }
        },
        par);
    double delta = ParallelReduce(
        0, n, grain, 0.0,
        [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (NodeId v = lo; v < hi; ++v) s += std::fabs(next[v] - rank[v]);
          return s;
        },
        [](double a, double b) { return a + b; }, par);
    rank.swap(next);
    if (delta < opts.tolerance) break;
  }
  // Iterations-to-convergence: the histogram aggregates across runs,
  // the gauge holds the most recent run.
  KGQ_HISTOGRAM_RECORD("analytics.pagerank.iterations", iterations);
  KGQ_GAUGE_SET("analytics.pagerank.last_iterations", iterations);
  return rank;
}

namespace {

/// ceil(a / b) for non-negative 128-bit a, positive b.
inline int64_t CeilDiv128(__int128 a, __int128 b) {
  return static_cast<int64_t>((a + b - 1) / b);
}

/// Node-block size fixed by n alone: chunk boundaries (and hence the
/// reduction tree) never depend on the thread count.
inline size_t FixpointGrain(size_t n) {
  return std::max<size_t>(64, (n + 255) / 256);
}

/// One sweep of the floor-rounded monotone map F (see the header).
/// Integer arithmetic only: associative sums make the result identical
/// for every schedule.
void FixpointSweep(const CsrSnapshot& csr, const std::vector<int64_t>& x,
                   std::vector<int64_t>* out, const ParallelOptions& par) {
  const size_t n = csr.num_nodes();
  const size_t grain = FixpointGrain(n);
  int64_t dangling = ParallelReduce(
      0, n, grain, int64_t{0},
      [&](size_t lo, size_t hi) {
        int64_t s = 0;
        for (NodeId v = lo; v < hi; ++v) {
          if (csr.OutDegree(v) == 0) s += x[v];
        }
        return s;
      },
      [](int64_t a, int64_t b) { return a + b; }, par);
  const __int128 n128 = static_cast<__int128>(n);
  const int64_t base =
      static_cast<int64_t>((15 * static_cast<__int128>(kPageRankScale)) /
                           (100 * n128)) +
      static_cast<int64_t>((85 * static_cast<__int128>(dangling)) /
                           (100 * n128));
  ParallelFor(
      0, n, grain,
      [&](size_t lo, size_t hi) {
        for (NodeId v = lo; v < hi; ++v) {
          __int128 sum = base;
          for (const CsrSnapshot::Entry& e : csr.In(v)) {
            sum += (85 * static_cast<__int128>(x[e.neighbor])) /
                   (100 * static_cast<__int128>(csr.OutDegree(e.neighbor)));
          }
          (*out)[v] = static_cast<int64_t>(sum);
        }
      },
      par);
}

}  // namespace

PageRankFixpoint PageRankFixpointCold(const CsrSnapshot& csr,
                                      const ParallelOptions& par) {
  KGQ_SPAN("analytics.pagerank.fixpoint");
  PageRankFixpoint r;
  const size_t n = csr.num_nodes();
  r.rank.assign(n, 0);
  if (n == 0) return r;
  // Kleene ascent from bottom: F is monotone and the chain is bounded
  // by the fixpoint, so plain iteration terminates at the lfp.
  std::vector<int64_t> next(n);
  for (;;) {
    ++r.iterations;
    FixpointSweep(csr, r.rank, &next, par);
    if (next == r.rank) break;
    r.rank.swap(next);
  }
  KGQ_HISTOGRAM_RECORD("pagerank.cold_iterations", r.iterations);
  return r;
}

PageRankFixpoint PageRankFixpointWarm(
    const CsrSnapshot& prev, const std::vector<int64_t>& prev_rank,
    const CsrSnapshot& csr,
    const std::vector<std::pair<NodeId, NodeId>>& deleted_edges,
    const ParallelOptions& par) {
  const size_t no = prev.num_nodes();
  const size_t nn = csr.num_nodes();
  if (nn == 0 || no == 0 || nn < no || prev_rank.size() != no) {
    return PageRankFixpointCold(csr, par);
  }
  KGQ_SPAN("analytics.pagerank.fixpoint_warm");

  // ----- Damage seeds P: everything that can make a floor-rounded
  // contribution of the old Kleene chain exceed the new chain's.
  auto contrib = [&](NodeId u, size_t deg) -> int64_t {
    return static_cast<int64_t>((85 * static_cast<__int128>(prev_rank[u])) /
                                (100 * static_cast<__int128>(deg)));
  };
  std::vector<int64_t> P(nn, 0);
  // Out-degree increases shrink every surviving edge's contribution:
  // sup over x <= lfp_old of the per-edge floor difference is bounded
  // by its value at lfp_old plus one. Applied to all old out-edges
  // here; deleted ones are corrected to the full deletion seed below.
  for (NodeId u = 0; u < no; ++u) {
    const size_t d_o = prev.OutDegree(u);
    if (d_o == 0) continue;
    const size_t d_n = csr.OutDegree(u);
    if (d_n > d_o) {
      const int64_t drop = contrib(u, d_o) - contrib(u, d_n) + 1;
      for (const CsrSnapshot::Entry& e : prev.Out(u)) {
        P[e.neighbor] += drop;
      }
    }
  }
  // A deleted edge loses its whole old contribution at the target.
  for (const auto& [f, t] : deleted_edges) {
    const size_t d_o = prev.OutDegree(f);
    const size_t d_n = csr.OutDegree(f);
    int64_t seed = contrib(f, d_o) + 1;
    if (d_n > d_o) {
      seed -= contrib(f, d_o) - contrib(f, d_n) + 1;  // undo the loop above
    }
    P[t] += seed;
  }
  // Global seed: teleport-base shrink when n grew, the dangling-sum
  // denominator change, and mass of nodes that stopped dangling.
  __int128 glob = 0;
  if (nn > no) {
    glob += (15 * static_cast<__int128>(kPageRankScale)) /
                (100 * static_cast<__int128>(no)) -
            (15 * static_cast<__int128>(kPageRankScale)) /
                (100 * static_cast<__int128>(nn));
    __int128 dang_o = 0;
    for (NodeId v = 0; v < no; ++v) {
      if (prev.OutDegree(v) == 0) dang_o += prev_rank[v];
    }
    glob += CeilDiv128(85 * dang_o, 100 * static_cast<__int128>(no)) -
            static_cast<int64_t>(85 * dang_o /
                                 (100 * static_cast<__int128>(nn))) +
            1;
  }
  __int128 newly_nondangling = 0;
  for (NodeId v = 0; v < no; ++v) {
    if (prev.OutDegree(v) == 0 && csr.OutDegree(v) > 0) {
      newly_nondangling += prev_rank[v];
    }
  }
  if (newly_nondangling != 0) {
    glob += CeilDiv128(85 * newly_nondangling,
                       100 * static_cast<__int128>(nn));
  }
  if (glob != 0) {
    for (NodeId v = 0; v < nn; ++v) P[v] += static_cast<int64_t>(glob);
  }

  // ----- Damage fixpoint D >= o_k - c_k for every step k of the old
  // and new Kleene chains: Jacobi rounds of the ceil-rounded system
  // D' = P + ceil-dangling-term + sum ceil(85 D[u] / (100 outdeg(u))).
  const size_t grain = FixpointGrain(nn);
  std::vector<int64_t> D = P, Dn(nn);
  constexpr size_t kDamageRoundCap = 500;
  size_t damage_rounds = 0;
  bool capped = false;
  for (;;) {
    ++damage_rounds;
    int64_t dang_dmg = ParallelReduce(
        0, nn, grain, int64_t{0},
        [&](size_t lo, size_t hi) {
          int64_t s = 0;
          for (NodeId v = lo; v < hi; ++v) {
            if (csr.OutDegree(v) == 0) s += D[v];
          }
          return s;
        },
        [](int64_t a, int64_t b) { return a + b; }, par);
    const int64_t gterm =
        dang_dmg != 0
            ? CeilDiv128(85 * static_cast<__int128>(dang_dmg),
                         100 * static_cast<__int128>(nn))
            : 0;
    ParallelFor(
        0, nn, grain,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            __int128 s = P[v] + gterm;
            for (const CsrSnapshot::Entry& e : csr.In(v)) {
              if (D[e.neighbor] != 0) {
                s += CeilDiv128(
                    85 * static_cast<__int128>(D[e.neighbor]),
                    100 * static_cast<__int128>(csr.OutDegree(e.neighbor)));
              }
            }
            Dn[v] = static_cast<int64_t>(s);
          }
        },
        par);
    if (Dn == D) break;
    D.swap(Dn);
    if (damage_rounds > kDamageRoundCap) {
      capped = true;
      break;
    }
  }
  KGQ_HISTOGRAM_RECORD("pagerank.damage_rounds", damage_rounds);
  if (capped) {
    // The damage bound did not settle: cold restart (warm stays false,
    // the caller's fallback counter picks this up).
    return PageRankFixpointCold(csr, par);
  }

  // ----- z = max(0, lfp_old - D) is a provable lower bound of the new
  // lfp; join-ascend x = max(x, F(x)) terminates at exactly the lfp
  // (Knaster–Tarski: the ascent stays below every fixpoint it starts
  // below, and strictly increases until F's least fixpoint holds).
  PageRankFixpoint r;
  r.warm = true;
  r.rank.assign(nn, 0);
  for (NodeId v = 0; v < no; ++v) {
    r.rank[v] = std::max<int64_t>(0, prev_rank[v] - D[v]);
  }
  std::vector<int64_t> next(nn);
  for (;;) {
    ++r.iterations;
    FixpointSweep(csr, r.rank, &next, par);
    bool still = true;
    for (NodeId v = 0; v < nn; ++v) {
      if (next[v] > r.rank[v]) {
        r.rank[v] = next[v];
        still = false;
      }
    }
    if (still) break;
  }
  KGQ_HISTOGRAM_RECORD("pagerank.warm_iterations", r.iterations);
  return r;
}

HitsScores Hits(const CsrSnapshot& g, size_t iterations) {
  size_t n = g.num_nodes();
  HitsScores out;
  out.hub.assign(n, 1.0);
  out.authority.assign(n, 1.0);
  if (n == 0) return out;

  auto normalize = [](std::vector<double>& v) {
    double norm = 0.0;
    for (double x : v) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) return;
    for (double& x : v) x /= norm;
  };

  for (size_t iter = 0; iter < iterations; ++iter) {
    // authority(v) = Σ hub(u) over edges u→v.
    for (NodeId v = 0; v < n; ++v) {
      double score = 0.0;
      for (const CsrSnapshot::Entry& e : g.In(v)) score += out.hub[e.neighbor];
      out.authority[v] = score;
    }
    normalize(out.authority);
    // hub(v) = Σ authority(w) over edges v→w.
    for (NodeId v = 0; v < n; ++v) {
      double score = 0.0;
      for (const CsrSnapshot::Entry& e : g.Out(v)) {
        score += out.authority[e.neighbor];
      }
      out.hub[v] = score;
    }
    normalize(out.hub);
  }
  return out;
}

}  // namespace kgq
