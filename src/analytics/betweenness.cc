#include "analytics/betweenness.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "obs/obs.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "rpq/path_nfa.h"
#include "util/thread_pool.h"

namespace kgq {

namespace {

/// One Brandes source iteration: accumulates dependencies of `s` into
/// `bc` with the given weight. Neighbors are visited in ascending edge
/// id, out-edges before in-edges.
void BrandesFromSource(const CsrSnapshot& g, EdgeDirection dir, NodeId s,
                       double weight, std::vector<double>* bc) {
  size_t n = g.num_nodes();
  std::vector<uint32_t> dist(n, kUnreachable);
  std::vector<double> sigma(n, 0.0);
  std::vector<double> delta(n, 0.0);
  std::vector<std::vector<NodeId>> preds(n);
  std::vector<NodeId> order;

  std::queue<NodeId> work;
  dist[s] = 0;
  sigma[s] = 1.0;
  work.push(s);
  while (!work.empty()) {
    NodeId v = work.front();
    work.pop();
    order.push_back(v);
    auto visit = [&](NodeId w) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        work.push(w);
      }
      if (dist[w] == dist[v] + 1) {
        sigma[w] += sigma[v];
        preds[w].push_back(v);
      }
    };
    for (const CsrSnapshot::Entry& e : g.Out(v)) visit(e.neighbor);
    if (dir == EdgeDirection::kUndirected) {
      for (const CsrSnapshot::Entry& e : g.In(v)) visit(e.neighbor);
    }
  }
  for (size_t i = order.size(); i-- > 0;) {
    NodeId w = order[i];
    for (NodeId v : preds[w]) {
      delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
    }
    if (w != s) (*bc)[w] += weight * delta[w];
  }
  // BFS tree size of this source — the per-source work shape.
  KGQ_HISTOGRAM_RECORD("analytics.brandes.reached_nodes", order.size());
  KGQ_COUNTER_INC("analytics.brandes.sources");
}

/// Source-chunk size for the parallel sweeps. Depends only on the
/// source count (never the thread count) so chunk boundaries — and
/// therefore the merged floating-point sums — are identical for every
/// thread schedule. ≤128 chunks bounds the partial-vector memory.
size_t SourceGrain(size_t num_sources) {
  return std::max<size_t>(1, (num_sources + 127) / 128);
}

/// Element-wise sum of two per-chunk accumulator vectors.
std::vector<double> AddInto(std::vector<double> a,
                            const std::vector<double>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

}  // namespace

std::vector<double> ApproxBetweennessCentrality(const CsrSnapshot& g,
                                                EdgeDirection dir,
                                                size_t num_pivots, Rng* rng,
                                                const ParallelOptions& par) {
  KGQ_SPAN("analytics.brandes_approx");
  size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n == 0 || num_pivots == 0) return bc;
  num_pivots = std::min(num_pivots, n);
  double weight = static_cast<double>(n) / static_cast<double>(num_pivots);
  // Sample pivots without replacement (partial Fisher–Yates). Drawing
  // all pivots up front keeps the rng stream independent of the
  // parallel schedule, so a fixed seed reproduces at any thread count.
  std::vector<NodeId> pool(n);
  for (NodeId v = 0; v < n; ++v) pool[v] = v;
  for (size_t i = 0; i < num_pivots; ++i) {
    size_t j = i + rng->Below(n - i);
    std::swap(pool[i], pool[j]);
  }
  return ParallelReduce(
      0, num_pivots, SourceGrain(num_pivots), std::move(bc),
      [&](size_t lo, size_t hi) {
        std::vector<double> local(n, 0.0);
        for (size_t i = lo; i < hi; ++i) {
          BrandesFromSource(g, dir, pool[i], weight, &local);
        }
        return local;
      },
      AddInto, par);
}

std::vector<double> BetweennessCentrality(const CsrSnapshot& g,
                                          EdgeDirection dir,
                                          const ParallelOptions& par) {
  KGQ_SPAN("analytics.brandes");
  size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n == 0) return bc;
  return ParallelReduce(
      0, n, SourceGrain(n), std::move(bc),
      [&](size_t lo, size_t hi) {
        std::vector<double> local(n, 0.0);
        for (NodeId s = lo; s < hi; ++s) {
          BrandesFromSource(g, dir, s, /*weight=*/1.0, &local);
        }
        return local;
      },
      AddInto, par);
}

Result<std::vector<double>> RegexBetweenness(const GraphView& view,
                                             const Regex& regex,
                                             const BcrOptions& opts) {
  KGQ_SPAN("analytics.bcr_exact");
  KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, regex));
  size_t n = view.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n == 0) return bc;

  auto process_source = [&](NodeId a, std::vector<double>* acc) {
    std::vector<std::optional<size_t>> dist =
        ShortestAcceptedLengths(nfa, a, opts.max_path_length);
    for (NodeId b = 0; b < n; ++b) {
      if (b == a || !dist[b].has_value()) continue;
      size_t d = *dist[b];
      if (d == 0) continue;  // A trivial path has no interior nodes.
      KGQ_COUNTER_INC("analytics.bcr.pairs");

      // Enumerate the shortest conforming paths once; their interior
      // node memberships are exactly |S_{a,b,r}(x)|.
      PathQueryOptions popts;
      popts.start = a;
      popts.end = b;
      // Source-level parallelism dominates; the per-pair structures
      // stay sequential.
      popts.parallel.num_threads = 1;
      PathEnumerator enumerator(nfa, d, popts);
      double sigma = 0.0;
      std::vector<double> through(n, 0.0);
      Path p;
      std::set<NodeId> members;
      while (enumerator.Next(&p)) {
        sigma += 1.0;
        members.clear();
        members.insert(p.nodes.begin(), p.nodes.end());
        for (NodeId x : members) {
          if (x != a && x != b) through[x] += 1.0;
        }
      }
      if (sigma == 0.0) continue;
      for (NodeId x = 0; x < n; ++x) {
        if (through[x] > 0.0) (*acc)[x] += through[x] / sigma;
      }
    }
  };

  return ParallelReduce(
      0, n, SourceGrain(n), std::move(bc),
      [&](size_t lo, size_t hi) {
        std::vector<double> local(n, 0.0);
        for (NodeId a = lo; a < hi; ++a) process_source(a, &local);
        return local;
      },
      AddInto, opts.parallel);
}

Result<std::vector<double>> RegexBetweennessApprox(const GraphView& view,
                                                   const Regex& regex,
                                                   const BcrOptions& opts,
                                                   Rng* rng) {
  KGQ_SPAN("analytics.bcr_approx");
  KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, regex));
  size_t n = view.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n == 0) return bc;
  const size_t samples_per_pair = 32;

  // Per-source randomness is planned up front from the master rng in
  // source order: whether the source block runs, and the seed of its
  // private stream. This decouples the random draws from the parallel
  // schedule, so a fixed master seed reproduces bit-identically at any
  // thread count.
  struct SourcePlan {
    bool run;
    uint64_t seed;
  };
  std::vector<SourcePlan> plans(n);
  for (NodeId a = 0; a < n; ++a) {
    // Sources are sampled as whole blocks when thinning pairs: skipping
    // a source skips its (expensive) configuration BFS too.
    plans[a].run =
        !(opts.pair_fraction < 1.0 && !rng->Bernoulli(opts.pair_fraction));
    plans[a].seed = rng->Next();
  }
  double scale = opts.pair_fraction < 1.0 ? 1.0 / opts.pair_fraction : 1.0;

  auto process_source = [&](NodeId a, std::vector<double>* acc) {
    Rng local_rng(plans[a].seed);
    std::vector<std::optional<size_t>> dist =
        ShortestAcceptedLengths(nfa, a, opts.max_path_length);
    for (NodeId b = 0; b < n; ++b) {
      if (b == a || !dist[b].has_value()) continue;
      size_t d = *dist[b];
      if (d == 0) continue;
      KGQ_COUNTER_INC("analytics.bcr.pairs");

      PathQueryOptions popts;
      popts.start = a;
      popts.end = b;
      popts.parallel.num_threads = 1;
      FprasOptions fopts = opts.fpras;
      fopts.seed = local_rng.Next();
      FprasPathCounter counter(nfa, d, popts, fopts);
      if (counter.Estimate() <= 0.0) continue;

      // |S(x)|/|S| estimated as the fraction of ≈uniform shortest-path
      // samples that contain x.
      std::set<NodeId> members;
      for (size_t i = 0; i < samples_per_pair; ++i) {
        Result<Path> p = counter.Sample(&local_rng);
        if (!p.ok()) break;
        members.clear();
        members.insert(p->nodes.begin(), p->nodes.end());
        for (NodeId x : members) {
          if (x != a && x != b) {
            (*acc)[x] += scale / static_cast<double>(samples_per_pair);
          }
        }
      }
    }
  };

  return ParallelReduce(
      0, n, SourceGrain(n), std::move(bc),
      [&](size_t lo, size_t hi) {
        std::vector<double> local(n, 0.0);
        for (NodeId a = lo; a < hi; ++a) {
          if (plans[a].run) process_source(a, &local);
        }
        return local;
      },
      AddInto, opts.parallel);
}

}  // namespace kgq
