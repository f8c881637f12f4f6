// E11 — CRPQ planning (Section 4): the same conjunctive regular path
// queries executed through the unified physical operators under two
// plans: *naive* (atoms joined left-to-right in textual order, every
// restriction a late Filter, no EdgeScan fast path) and *optimized*
// (filter pushdown + cardinality-driven greedy join order +
// label-partition EdgeScans). The workload is the synthetic DBLP
// bibliography graph; the queries anchor on a rare keyword, so the
// optimizer's estimator gets to seed the join from a 25-row leaf where
// textual order would build a hundred-thousand-row intermediate.
//
// Gate (exit code): both plans must return identical rows on every
// query, and the optimized plans must be faster in aggregate
// single-threaded. Everything is mirrored to BENCH_e11_crpq_plans.json,
// including the full obs registry (per-operator spans, rows-produced
// counters, join build/probe histograms).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "plan/exec.h"
#include "plan/ir.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "rpq/crpq.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;

struct BenchRow {
  std::string query;
  std::string mode;
  size_t threads;
  double plan_ms;
  double exec_ms;
  size_t rows;
};

}  // namespace

int main() {
  DblpGraphOptions gopts;
  gopts.num_papers = 3000;
  gopts.num_authors = 800;
  gopts.num_venues = 40;
  gopts.max_coauthors = 4;
  Rng rng(gopts.seed);
  LabeledGraph g = BuildDblpGraph(gopts, &rng);
  LabeledGraphView view(g);
  const CsrSnapshot& snap = view.csr();
  GraphStats stats = GraphStats::From(&view, &snap);

  std::printf("DBLP-synth graph: %zu nodes, %zu edges "
              "(writes=%zu in=%zu about=%zu cites=%zu)\n\n",
              g.num_nodes(), g.num_edges(), snap.LabelFrequency("writes"),
              snap.LabelFrequency("in"), snap.LabelFrequency("about"),
              snap.LabelFrequency("cites"));

  // Queries whose textual atom order is maximally wrong: the selective
  // atom (about → property_graph, the rare keyword) comes last.
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"coauthors_rare",
       "q(a1, a2) :- (a1: author) -[ writes ]-> (p), "
       "(a2: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph)"},
      {"author_triples_rare",
       "q(a1, a3) :- (a1: author) -[ writes ]-> (p), "
       "(a2: author) -[ writes ]-> (p), "
       "(a3: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph)"},
      {"cites_into_rare",
       "q(a) :- (a: author) -[ writes ]-> (p), "
       "(p) -[ cites*/about ]-> (k: property_graph)"},
  };

  PlannerOptions optimized;
  PlannerOptions naive;
  naive.push_filters = false;
  naive.reorder_joins = false;
  naive.edge_scan_fastpath = false;

  Table t("E11 — CRPQ plans: naive textual order vs optimized",
          {"query", "mode", "threads", "t_plan(ms)", "t_exec(ms)", "rows"});
  std::vector<BenchRow> rows;
  bool identical = true;
  double naive_total_ms = 0.0, optimized_total_ms = 0.0;
  std::string explain_sample;

  for (const auto& [name, text] : queries) {
    Crpq q = *ParseCrpq(text);
    ConjunctiveQuery cq = *CompileCrpq(q);

    std::optional<RowTable> first_rows;  // naive, 1 thread: runs first.
    struct Mode {
      const char* label;
      const PlannerOptions* planner;
      size_t threads;
    };
    const Mode modes[] = {{"naive", &naive, 1},
                          {"optimized", &optimized, 1},
                          {"optimized", &optimized, 4}};
    for (const Mode& mode : modes) {
      KGQ_SPAN("e11.query");
      Timer plan_timer;
      LogicalOpPtr plan = *PlanQuery(cq, stats, *mode.planner);
      double plan_ms = plan_timer.Millis();

      ExecOptions eopts;
      eopts.parallel.num_threads = mode.threads;
      Timer exec_timer;
      RowSet result = *ExecutePlan(view, *plan, eopts);
      double exec_ms = exec_timer.Millis();

      if (!first_rows.has_value()) {
        first_rows = result.rows;
      } else if (result.rows != *first_rows) {
        identical = false;
        std::fprintf(stderr, "MISMATCH: %s %s/%zu threads\n", name.c_str(),
                     mode.label, mode.threads);
      }
      if (mode.threads == 1) {
        if (std::string(mode.label) == "naive") {
          naive_total_ms += plan_ms + exec_ms;
        } else {
          optimized_total_ms += plan_ms + exec_ms;
        }
      }
      if (name == "coauthors_rare" && std::string(mode.label) == "optimized" &&
          mode.threads == 1) {
        explain_sample = ExplainPlan(*plan);
      }

      t.AddRow({name, mode.label, std::to_string(mode.threads),
                std::to_string(plan_ms), std::to_string(exec_ms),
                std::to_string(result.rows.size())});
      rows.push_back({name, mode.label, mode.threads, plan_ms, exec_ms,
                      result.rows.size()});
    }
  }

  t.Print(std::cout);
  double speedup =
      optimized_total_ms > 0.0 ? naive_total_ms / optimized_total_ms : 0.0;
  std::printf("\nEXPLAIN (coauthors_rare, optimized):\n%s\n",
              explain_sample.c_str());
  std::printf("single-threaded totals: naive %.2f ms, optimized %.2f ms "
              "(speedup %.2fx)\n",
              naive_total_ms, optimized_total_ms, speedup);

  {
    std::ofstream out("BENCH_e11_crpq_plans.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e11_crpq_plans");
    w.Key("graph");
    w.BeginObject();
    w.Key("nodes");
    w.UInt(g.num_nodes());
    w.Key("edges");
    w.UInt(g.num_edges());
    w.EndObject();
    w.Key("runs");
    w.BeginArray();
    for (const BenchRow& r : rows) {
      w.BeginObject();
      w.Key("query");
      w.String(r.query);
      w.Key("mode");
      w.String(r.mode);
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("t_plan_ms");
      w.Double(r.plan_ms);
      w.Key("t_exec_ms");
      w.Double(r.exec_ms);
      w.Key("rows");
      w.UInt(r.rows);
      w.EndObject();
    }
    w.EndArray();
    w.Key("naive_total_ms");
    w.Double(naive_total_ms);
    w.Key("optimized_total_ms");
    w.Double(optimized_total_ms);
    w.Key("speedup_optimized_over_naive");
    w.Double(speedup);
    w.Key("plans_identical_rows");
    w.Bool(identical);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  bool ok = identical && optimized_total_ms < naive_total_ms;
  std::printf("Paper shape: optimizer turns textual-order CRPQ joins into "
              "selective-first plans → %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
