// E12 — matrix RPQ backend (Section 5): the same regular path queries
// evaluated under the two physical engines behind AllPairs — the
// per-source product-automaton BFS (NFA engine) and the boolean-semiring
// SpGEMM-style fixpoint (pathalg/matrix_rpq), which packs 64 sources per
// machine word and advances all of them with one word-OR sweep per
// label partition. Workloads: the synthetic DBLP bibliography graph
// (citation closure, coauthorship), a uniform Erdős–Rényi graph, and
// the gate workload — multi-source bulk reachability on a 12k-node
// Barabási–Albert graph, where the frontier is wide and the word-level
// batching pays.
//
// Each query also runs under PathEngine::kAuto, which picks one of the
// two from the reach of a sample of sources; its row names the engine
// it ran.
//
// Gate (exit code): all three modes must return bit-identical rows on
// every workload/query/thread-count; kAuto must be within 1.25x of the
// faster engine on every row at 1 and 4 threads; and on the BA-12k
// bulk-reachability query the matrix engine must be at least 2x faster
// single-threaded. Rows under a second are timed as the best of three
// runs. Everything is mirrored to BENCH_e12_matrix_rpq.json behind a
// provenance header (bench/provenance.h), including the full obs
// registry (SpGEMM entry/word-op counters, fixpoint-iteration
// histogram, engine spans, kAuto choice counters).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/options.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;

struct BenchRow {
  std::string workload;
  std::string query;
  std::string engine;
  std::string ran;  // the engine kAuto chose; `engine` otherwise
  size_t threads;
  double eval_ms;
  size_t pairs;
};

const char* EngineName(PathEngine e) {
  switch (e) {
    case PathEngine::kNfa:
      return "nfa";
    case PathEngine::kMatrix:
      return "matrix";
    case PathEngine::kAuto:
      return "auto";
  }
  return "?";
}

/// kAuto may cost at most this factor over the faster engine per row.
constexpr double kAutoSlack = 1.25;

size_t CountPairs(const std::vector<Bitset>& rows) {
  size_t pairs = 0;
  for (const Bitset& row : rows) pairs += row.Count();
  return pairs;
}

}  // namespace

int main() {
  // Workload graphs. DBLP-synth matches bench_e11; the ER and BA graphs
  // use the fuzz-suite alphabet so the queries below stay dense.
  DblpGraphOptions gopts;
  gopts.num_papers = 3000;
  gopts.num_authors = 800;
  gopts.num_venues = 40;
  gopts.max_coauthors = 4;
  Rng dblp_rng(gopts.seed);
  LabeledGraph dblp = BuildDblpGraph(gopts, &dblp_rng);

  Rng rng(20260807);
  LabeledGraph er = ErdosRenyi(2000, 8000, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraph ba = BarabasiAlbert(12000, 2, {"p", "q"}, {"a", "b"}, &rng);

  struct Query {
    std::string text;
    bool gate;  // contributes to the >=2x speedup gate
  };
  struct Workload {
    const char* name;
    const LabeledGraph* graph;
    std::vector<Query> queries;
  };
  // The gate query is (a+a^-)* on BA-12k — two-way closure over the
  // a-labeled subgraph, whose giant component makes nearly every node
  // reach nearly every other: multi-source bulk reachability, where
  // packing 64 sources per word pays. The a* query on the same graph is
  // the deliberate counter-case — the generator orients every edge from
  // the new node to an older one, so the forward-only closure sees tiny
  // ancestor sets, frontiers stay near empty, and the full-sweep
  // iterations lose to per-source BFS. That crossover is what the
  // planner's MatrixRpqMode::kAuto rule selects on; the row stays here
  // (ungated) to keep it measured; kAuto must find it from its sample.
  const std::vector<Workload> workloads = {
      {"dblp", &dblp, {{"cites*", false}, {"writes/writes^-", false}}},
      {"er2k", &er, {{"a*", false}, {"(a+b)*", false}}},
      {"ba12k", &ba, {{"a*", false}, {"(a+a^-)*", true}}},
  };

  Table t("E12 — RPQ engines: per-source BFS vs boolean-matrix fixpoint",
          {"workload", "query", "engine", "ran", "threads", "t_eval(ms)",
           "pairs"});
  std::vector<BenchRow> rows;
  bool identical = true;
  bool auto_ok = true;
  double gate_nfa_ms = 0.0, gate_matrix_ms = 0.0;

  for (const Workload& w : workloads) {
    const LabeledGraphView view(*w.graph);
    std::printf("%s: %zu nodes, %zu edges\n", w.name, w.graph->num_nodes(),
                w.graph->num_edges());

    for (const Query& q : w.queries) {
      const std::string& query = q.text;
      RegexPtr regex = *ParseRegex(query);
      Result<PathNfa> nfa =
          PathNfa::Compile(view, *regex, PathNfa::Construction::kGlushkov);
      if (!nfa.ok()) {
        std::fprintf(stderr, "FAIL: could not compile %s\n", query.c_str());
        return 1;
      }

      std::vector<Bitset> reference;
      for (size_t threads : {1, 4}) {
        double best_ms[3] = {0.0, 0.0, 0.0};
        const PathEngine engines[] = {PathEngine::kNfa, PathEngine::kMatrix,
                                      PathEngine::kAuto};
        for (size_t e = 0; e < 3; ++e) {
          KGQ_SPAN("e12.query");
          PathQueryOptions opts;
          opts.engine = engines[e];
          opts.parallel.num_threads = threads;
          std::vector<Bitset> result;
          PathEngine ran = engines[e];
          double eval_ms = 0.0;
          for (int rep = 0; rep < 3; ++rep) {
            Timer timer;
            result = AllPairs(*nfa, opts, &ran);
            double ms = timer.Millis();
            eval_ms = rep == 0 ? ms : std::min(eval_ms, ms);
            if (ms >= 1000.0) break;
          }
          best_ms[e] = eval_ms;
          const size_t pairs = CountPairs(result);
          if (reference.empty()) {
            reference = std::move(result);
          } else if (result != reference) {
            identical = false;
            std::fprintf(stderr, "MISMATCH: %s %s %s/%zu threads\n", w.name,
                         query.c_str(), EngineName(engines[e]), threads);
          }
          if (q.gate && threads == 1 && engines[e] != PathEngine::kAuto) {
            (engines[e] == PathEngine::kNfa ? gate_nfa_ms : gate_matrix_ms) +=
                eval_ms;
          }
          t.AddRow({w.name, query, EngineName(engines[e]), EngineName(ran),
                    std::to_string(threads), std::to_string(eval_ms),
                    std::to_string(pairs)});
          rows.push_back({w.name, query, EngineName(engines[e]),
                          EngineName(ran), threads, eval_ms, pairs});
        }
        const double faster = std::min(best_ms[0], best_ms[1]);
        if (best_ms[2] > kAutoSlack * faster) {
          auto_ok = false;
          std::fprintf(stderr,
                       "SLOW AUTO: %s %s %zu threads: auto %.2f ms > "
                       "%.2fx the faster engine (%.2f ms)\n",
                       w.name, query.c_str(), threads, best_ms[2], kAutoSlack,
                       faster);
        }
      }
    }
  }

  t.Print(std::cout);
  double speedup = gate_matrix_ms > 0.0 ? gate_nfa_ms / gate_matrix_ms : 0.0;
  std::printf("\nba12k bulk reachability, single-threaded: nfa %.2f ms, "
              "matrix %.2f ms (speedup %.2fx)\n",
              gate_nfa_ms, gate_matrix_ms, speedup);

  {
    std::ofstream out("BENCH_e12_matrix_rpq.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e12_matrix_rpq");
    bench::WriteProvenance(&w);
    w.Key("runs");
    w.BeginArray();
    for (const BenchRow& r : rows) {
      w.BeginObject();
      w.Key("workload");
      w.String(r.workload);
      w.Key("query");
      w.String(r.query);
      w.Key("engine");
      w.String(r.engine);
      w.Key("ran");
      w.String(r.ran);
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("t_eval_ms");
      w.Double(r.eval_ms);
      w.Key("pairs");
      w.UInt(r.pairs);
      w.EndObject();
    }
    w.EndArray();
    w.Key("gate_nfa_ms");
    w.Double(gate_nfa_ms);
    w.Key("gate_matrix_ms");
    w.Double(gate_matrix_ms);
    w.Key("speedup_matrix_over_nfa");
    w.Double(speedup);
    w.Key("engines_identical_rows");
    w.Bool(identical);
    w.Key("auto_within_slack");
    w.Bool(auto_ok);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  bool ok = identical && auto_ok && speedup >= 2.0;
  std::printf("Paper shape: RPQ evaluation as boolean matrix products "
              "batches 64 sources per word → %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
