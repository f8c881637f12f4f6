// Microbenchmarks of the core substrate (google-benchmark): interning,
// bitset kernels, triple-store operations, query parsing and compilation
// — plus the Thompson-vs-Glushkov construction ablation (DESIGN.md) and
// a thread sweep of the multi-source pair evaluator. Results are
// mirrored to BENCH_micro_core.json for the regression baseline.

#include <benchmark/benchmark.h>

#include <fstream>

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

// --------- Multi-source pair evaluation, thread sweep.

/// End-to-end multi-source pair evaluation (8 edge labels, query over 2
/// of them) on the view's CSR. Arg = thread count.
void BM_AllPairs(benchmark::State& state) {
  static Rng rng(29);
  static const LabeledGraph g = ErdosRenyi(
      300, 2400, {"p"}, {"a", "b", "c", "d", "e", "f", "g", "h"}, &rng);
  static const LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, **ParseRegex("(a/b)*"));
  PathQueryOptions opts;
  opts.parallel.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllPairs(*nfa, opts).size());
  }
}
BENCHMARK(BM_AllPairs)->Arg(1)->Arg(2)->Arg(4);

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
