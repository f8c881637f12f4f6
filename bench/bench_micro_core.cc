// Microbenchmarks of the core substrate (google-benchmark): interning,
// bitset kernels, triple-store operations, query parsing and compilation
// — plus the Thompson-vs-Glushkov construction ablation (DESIGN.md) and
// a thread sweep of the multi-source pair evaluator and of the row
// passes (Project's sort, the built join) on a large answer. Results are
// mirrored to BENCH_micro_core.json for the regression baseline.

#include <benchmark/benchmark.h>

#include <fstream>

#include <numeric>

#include "datasets/dblp_synth.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/exact.h"
#include "pathalg/pairs.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
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

// --------- Row passes on a large answer, thread sweep.

/// The co-citation pattern (a writes p, p cites c, q cites c, b writes
/// q) on DBLP-synth at 15k papers and 3k authors: three built joins
/// feeding a Project of ~190k five-column rows.
struct CocitationPlan {
  LabeledGraph graph;
  std::unique_ptr<LabeledGraphView> view;
  LogicalOpPtr plan;  // Project over the joins.
  RowSet joined;      // The joins' output, Project's input.

  static const CocitationPlan& Get() {
    static const CocitationPlan* shared = [] {
      auto* p = new CocitationPlan;
      Rng rng(1);
      DblpGraphOptions opts;
      opts.num_papers = 15000;
      opts.num_authors = 3000;
      opts.max_citations = 2;
      p->graph = BuildDblpGraph(opts, &rng);
      p->view = std::make_unique<LabeledGraphView>(p->graph);
      ConjunctiveQuery q;
      q.atoms.push_back({"a", "p", *ParseRegex("writes")});
      q.atoms.push_back({"p", "c", *ParseRegex("cites")});
      q.atoms.push_back({"q", "c", *ParseRegex("cites")});
      q.atoms.push_back({"b", "q", *ParseRegex("writes")});
      q.projection = {"a", "p", "c", "q", "b"};
      const GraphStats stats = GraphStats::From(p->view.get(), &p->view->csr());
      p->plan = *PlanQuery(q, stats);
      p->joined = *ExecutePlan(*p->view, *p->plan->children[0]);
      return p;
    }();
    return *shared;
  }
};

enum class RowPass { kSort, kJoin };

/// Project's sort (SortUniqueProjection of the joined rows) or the joins
/// that feed it (ExecutePlan of the join subtree, scans included).
/// Arg = thread count.
void BM_RowPath(benchmark::State& state, RowPass pass) {
  const CocitationPlan& cc = CocitationPlan::Get();
  ParallelOptions parallel;
  parallel.num_threads = static_cast<size_t>(state.range(0));
  std::vector<size_t> cols(cc.plan->columns.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    cols[i] = static_cast<size_t>(
        std::find(cc.joined.schema.begin(), cc.joined.schema.end(),
                  cc.plan->columns[i]) -
        cc.joined.schema.begin());
  }
  size_t rows = 0;
  for (auto _ : state) {
    if (pass == RowPass::kSort) {
      state.PauseTiming();
      RowTable input = cc.joined.rows;
      state.ResumeTiming();
      rows = SortUniqueProjection(std::move(input), cols, parallel).size();
    } else {
      ExecOptions options;
      options.parallel = parallel;
      rows = ExecutePlan(*cc.view, *cc.plan->children[0], options)->rows.size();
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK_CAPTURE(BM_RowPath, sort, RowPass::kSort)
    ->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_RowPath, join, RowPass::kJoin)
    ->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

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
