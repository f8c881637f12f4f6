// E4 — the graph-analytics substrate of Section 4.2 at practical cost:
// google-benchmark timings for BFS, components, PageRank, HITS,
// clustering, densest subgraph and Brandes betweenness on Barabási–
// Albert graphs, plus a summary table of the computed global properties.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/centrality_extra.h"
#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/densest.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "util/table.h"

namespace {

using namespace kgq;

LabeledGraph MakeBa(size_t n) {
  Rng rng(n);
  return BarabasiAlbert(n, 3, {"v"}, {"e"}, &rng);
}

/// The CSR the components, PageRank, HITS and Brandes kernels read,
/// built once per graph outside the timed loop.
CsrSnapshot MakeBaCsr(size_t n) { return CsrSnapshot::FromGraph(MakeBa(n)); }

void BM_BfsDistances(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto d = BfsDistances(g.topology(), 0, EdgeDirection::kUndirected);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_BfsDistances)->Arg(1000)->Arg(10000);

void BM_WeakComponents(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(state.range(0));
  for (auto _ : state) {
    auto c = WeaklyConnectedComponentsCsr(g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_WeakComponents)->Arg(1000)->Arg(10000);

void BM_StrongComponents(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto c = StronglyConnectedComponents(g.topology());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_StrongComponents)->Arg(1000)->Arg(10000);

void BM_PageRank(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(state.range(0));
  for (auto _ : state) {
    auto pr = PageRank(g);
    benchmark::DoNotOptimize(pr);
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000);

void BM_Hits(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(state.range(0));
  for (auto _ : state) {
    auto h = Hits(g);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_Hits)->Arg(1000)->Arg(10000);

void BM_Clustering(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto c = ClusteringCoefficients(g.topology());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_Clustering)->Arg(1000)->Arg(10000);

void BM_DensestPeel(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto d = DensestSubgraphPeel(g.topology());
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DensestPeel)->Arg(1000)->Arg(10000);

void BM_Betweenness(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(state.range(0));
  for (auto _ : state) {
    auto bc = BetweennessCentrality(g, EdgeDirection::kUndirected);
    benchmark::DoNotOptimize(bc);
  }
}
BENCHMARK(BM_Betweenness)->Arg(1000)->Arg(2000);

// Thread-count sweeps over the parallel kernels: range(0) is the number
// of threads (1 = the sequential reference path). The substrate
// guarantees identical output at every point of the sweep, so these
// curves measure pure scheduling overhead/speedup.
void BM_PageRankThreads(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(10000);
  PageRankOptions opts;
  opts.parallel.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto pr = PageRank(g, opts);
    benchmark::DoNotOptimize(pr);
  }
}
BENCHMARK(BM_PageRankThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BetweennessThreads(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(2000);
  ParallelOptions par{static_cast<size_t>(state.range(0))};
  for (auto _ : state) {
    auto bc = BetweennessCentrality(g, EdgeDirection::kUndirected, par);
    benchmark::DoNotOptimize(bc);
  }
}
BENCHMARK(BM_BetweennessThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ApproxBetweennessThreads(benchmark::State& state) {
  const CsrSnapshot g = MakeBaCsr(5000);
  ParallelOptions par{static_cast<size_t>(state.range(0))};
  for (auto _ : state) {
    Rng rng(11);
    auto bc = ApproxBetweennessCentrality(g, EdgeDirection::kUndirected, 128,
                                          &rng, par);
    benchmark::DoNotOptimize(bc);
  }
}
BENCHMARK(BM_ApproxBetweennessThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_HarmonicCloseness(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto c = HarmonicCloseness(g.topology(), EdgeDirection::kUndirected);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_HarmonicCloseness)->Arg(1000)->Arg(2000);

void BM_EigenvectorCentrality(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto c = EigenvectorCentrality(g.topology());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_EigenvectorCentrality)->Arg(1000)->Arg(10000);

void BM_CoreNumbers(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    auto c = CoreNumbers(g.topology());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CoreNumbers)->Arg(1000)->Arg(10000);

void BM_Triangles(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g.topology()));
  }
}
BENCHMARK(BM_Triangles)->Arg(1000)->Arg(10000);

void BM_LabelPropagation(benchmark::State& state) {
  LabeledGraph g = MakeBa(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    auto c = LabelPropagationCommunities(g.topology(), 20, &rng);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_LabelPropagation)->Arg(1000)->Arg(10000);

/// One JSON record of the global-properties table.
struct PropertiesRow {
  size_t n, m, weak_components;
  bool has_diameter;
  size_t diameter;
  double avg_clustering, densest_density, max_pagerank;
  uint32_t max_core;
  size_t triangles;
};

std::vector<PropertiesRow> PrintGlobalProperties() {
  KGQ_SPAN("e4.global_properties");
  std::vector<PropertiesRow> rows;
  Table t("E4 — global properties of BA(n, 3) graphs",
          {"n", "m", "weak comps", "diameter(und)", "avg clustering",
           "densest density", "max pagerank", "max k-core", "triangles"});
  for (size_t n : {1000, 10000}) {
    LabeledGraph g = MakeBa(n);
    const CsrSnapshot csr = CsrSnapshot::FromGraph(g);
    auto wcc = WeaklyConnectedComponentsCsr(csr);
    auto diam = Diameter(g.topology(), EdgeDirection::kUndirected);
    double cc = AverageClusteringCoefficient(g.topology());
    auto dense = DensestSubgraphPeel(g.topology());
    auto pr = PageRank(csr);
    double max_pr = 0;
    for (double v : pr) max_pr = std::max(max_pr, v);
    auto cores = CoreNumbers(g.topology());
    uint32_t kmax = *std::max_element(cores.begin(), cores.end());
    size_t triangles = CountTriangles(g.topology());
    t.AddRow({std::to_string(n), std::to_string(g.num_edges()),
              std::to_string(wcc.num_components),
              diam ? std::to_string(*diam) : "-", FormatDouble(cc, 4),
              FormatDouble(dense.density, 3), FormatDouble(max_pr, 5),
              std::to_string(kmax), std::to_string(triangles)});
    rows.push_back({n, g.num_edges(), wcc.num_components, diam.has_value(),
                    diam.value_or(0), cc, dense.density, max_pr, kmax,
                    triangles});
  }
  t.Print(std::cout);
  return rows;
}

/// BENCH_e4_analytics.json: the global-properties rows plus the full
/// obs registry (per-phase spans, frontier-size histograms,
/// iterations-to-convergence) accumulated across every benchmark run.
void WriteJsonReport(const std::vector<PropertiesRow>& rows) {
  std::ofstream out("BENCH_e4_analytics.json");
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("benchmark");
  w.String("e4_analytics");
  w.Key("global_properties");
  w.BeginArray();
  for (const PropertiesRow& r : rows) {
    w.BeginObject();
    w.Key("n");
    w.UInt(r.n);
    w.Key("m");
    w.UInt(r.m);
    w.Key("weak_components");
    w.UInt(r.weak_components);
    w.Key("diameter");
    if (r.has_diameter) {
      w.UInt(r.diameter);
    } else {
      w.Null();
    }
    w.Key("avg_clustering");
    w.Double(r.avg_clustering);
    w.Key("densest_density");
    w.Double(r.densest_density);
    w.Key("max_pagerank");
    w.Double(r.max_pagerank);
    w.Key("max_core");
    w.UInt(r.max_core);
    w.Key("triangles");
    w.UInt(r.triangles);
    w.EndObject();
  }
  w.EndArray();
  w.Key("obs");
  obs::Registry::Get().WriteJson(&w);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<PropertiesRow> rows = PrintGlobalProperties();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteJsonReport(rows);
  return 0;
}
