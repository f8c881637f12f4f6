// Microbenchmarks of the core substrate (google-benchmark): interning,
// bitset kernels, triple-store operations, query parsing and compilation
// — plus the Thompson-vs-Glushkov construction ablation (DESIGN.md) and
// the list-vs-CSR traversal ablation (adjacency sweeps, label scans and
// the multi-source pair evaluator on both backends, with a thread
// sweep). Results are mirrored to BENCH_micro_core.json for the
// regression baseline.

#include <benchmark/benchmark.h>

#include <fstream>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/exact.h"
#include "pathalg/pairs.h"
#include "rdf/triple_store.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/bitset.h"
#include "util/interner.h"

namespace {

using namespace kgq;

void BM_InternerHit(benchmark::State& state) {
  Interner interner;
  for (int i = 0; i < 1000; ++i) {
    interner.Intern("label_" + std::to_string(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interner.Intern("label_" + std::to_string(i++ % 1000)));
  }
}
BENCHMARK(BM_InternerHit);

void BM_BitsetUnionCount(benchmark::State& state) {
  Bitset a(static_cast<size_t>(state.range(0)));
  Bitset b(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < a.size(); i += 3) a.Set(i);
  for (size_t i = 0; i < b.size(); i += 5) b.Set(i);
  for (auto _ : state) {
    Bitset u = a;
    u |= b;
    benchmark::DoNotOptimize(u.Count());
  }
}
BENCHMARK(BM_BitsetUnionCount)->Arg(1024)->Arg(65536);

void BM_TripleInsert(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TripleStore store;
    state.ResumeTiming();
    for (int j = 0; j < 1000; ++j) {
      store.Insert("s" + std::to_string((i + j) % 500), "p",
                   "o" + std::to_string(j % 100));
    }
    benchmark::DoNotOptimize(store.size());
    ++i;
  }
}
BENCHMARK(BM_TripleInsert);

void BM_TripleMatch(benchmark::State& state) {
  TripleStore store;
  Rng rng(1);
  for (int j = 0; j < 20000; ++j) {
    store.Insert("s" + std::to_string(rng.Below(2000)),
                 "p" + std::to_string(rng.Below(20)),
                 "o" + std::to_string(rng.Below(2000)));
  }
  ConstId p5 = *store.dict().Find("p5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Match(std::nullopt, p5, std::nullopt).size());
  }
}
BENCHMARK(BM_TripleMatch);

void BM_ParseRegex(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseRegex(
        "?infected/rides/?bus/rides^-/(?person/(lives+contact))*/?person"));
  }
}
BENCHMARK(BM_ParseRegex);

// --------- Thompson vs Glushkov ablation on the full count pipeline.

void CompileAndCount(benchmark::State& state,
                     PathNfa::Construction construction) {
  Rng rng(7);
  LabeledGraph g = ErdosRenyi(200, 800, {"p"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  RegexPtr regex = *ParseRegex(
      "((a+b)/a + b/(a+b)/(a+b))*");
  for (auto _ : state) {
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex, construction);
    ExactPathIndex index(*nfa, 8);
    benchmark::DoNotOptimize(index.Count(8));
  }
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex, construction);
  state.counters["states"] = static_cast<double>(nfa->num_states());
}

void BM_CountGlushkov(benchmark::State& state) {
  CompileAndCount(state, PathNfa::Construction::kGlushkov);
}
BENCHMARK(BM_CountGlushkov);

void BM_CountThompson(benchmark::State& state) {
  CompileAndCount(state, PathNfa::Construction::kThompson);
}
BENCHMARK(BM_CountThompson);

// --------- List-based adjacency vs CSR snapshot (the PR's ablation).

/// Shared sweep workload: average degree ~100 with eight labels, so a
/// label partition prunes ~7/8 of each node span and per-node overheads
/// amortize over real scans.
const LabeledGraph& SweepGraph() {
  static const LabeledGraph g = [] {
    Rng rng(13);
    return ErdosRenyi(5000, 500000, {"p"},
                      {"a", "b", "c", "d", "e", "f", "g", "h"}, &rng);
  }();
  return g;
}

const CsrSnapshot& SweepSnapshot() {
  static const CsrSnapshot snap = CsrSnapshot::FromGraph(SweepGraph());
  return snap;
}

/// Full out-adjacency sweep on the mutable model: per edge, one load
/// from the node's edge-id vector plus a random-access lookup of the
/// edge target.
void BM_AdjacencySweepList(benchmark::State& state) {
  const LabeledGraph& g = SweepGraph();
  for (auto _ : state) {
    uint64_t acc = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (EdgeId e : g.OutEdges(n)) acc += g.EdgeTarget(e);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_AdjacencySweepList);

/// The same sweep over the snapshot: one sequential stream, neighbor
/// inline in the entry.
void BM_AdjacencySweepCsr(benchmark::State& state) {
  const CsrSnapshot& snap = SweepSnapshot();
  for (auto _ : state) {
    uint64_t acc = 0;
    for (NodeId n = 0; n < snap.num_nodes(); ++n) {
      for (const CsrSnapshot::Entry& a : snap.Out(n)) acc += a.neighbor;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(snap.num_edges()));
}
BENCHMARK(BM_AdjacencySweepCsr);

/// Single-label scan on the mutable model: every out edge is touched and
/// its label loaded just to keep 1/4 of them.
void BM_LabelScanList(benchmark::State& state) {
  const LabeledGraph& g = SweepGraph();
  ConstId label = *g.dict().Find("a");
  for (auto _ : state) {
    uint64_t acc = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (EdgeId e : g.OutEdges(n)) {
        if (g.EdgeLabel(e) == label) acc += g.EdgeTarget(e);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LabelScanList);

/// The same scan over the per-label partitions: only the matching
/// contiguous range is read — the product-automaton step shape.
void BM_LabelScanCsr(benchmark::State& state) {
  const CsrSnapshot& snap = SweepSnapshot();
  LabelId label = *snap.FindLabel("a");
  for (auto _ : state) {
    uint64_t acc = 0;
    for (NodeId n = 0; n < snap.num_nodes(); ++n) {
      for (const CsrSnapshot::Entry& a : snap.OutForLabel(n, label)) {
        acc += a.neighbor;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LabelScanCsr);

/// End-to-end multi-source pair evaluation (8 edge labels, query over 2
/// of them). Arg = thread count; the CSR variant runs over a view that
/// carries a CSR and so additionally steps over label partitions.
void AllPairsBench(benchmark::State& state, bool use_csr) {
  static Rng rng(29);
  static const LabeledGraph g = ErdosRenyi(
      300, 2400, {"p"}, {"a", "b", "c", "d", "e", "f", "g", "h"}, &rng);
  static const LabeledGraphView list_view(g);
  static const LabeledGraphView csr_view = LabeledGraphView::WithCsr(g);
  RegexPtr regex = *ParseRegex("(a/b)*");
  Result<PathNfa> nfa =
      PathNfa::Compile(use_csr ? csr_view : list_view, *regex);
  PathQueryOptions opts;
  opts.parallel.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllPairs(*nfa, opts).size());
  }
}

void BM_AllPairsList(benchmark::State& state) { AllPairsBench(state, false); }
BENCHMARK(BM_AllPairsList)->Arg(1)->Arg(2)->Arg(4);

void BM_AllPairsCsr(benchmark::State& state) { AllPairsBench(state, true); }
BENCHMARK(BM_AllPairsCsr)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): unless the caller passes
// their own --benchmark_out, every run mirrors its results to
// BENCH_micro_core.json (the machine-readable regression baseline)
// while keeping the human-readable console output and all standard
// --benchmark_* flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
