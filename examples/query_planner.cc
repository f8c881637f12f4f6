// The query planner end to end: write a CRPQ, look at the plan the
// optimizer chose (and the naive textual-order plan it avoided),
// execute it through the unified physical operators, then read the obs
// counters to see what actually happened at runtime.
//
// The query finds authors of highly-connected papers on a rare topic in
// the synthetic DBLP bibliography: the selective atom (the `about` edge
// into the rare keyword) is written *last*, so a textual-order join
// builds the full writes⋈writes intermediate first — the optimizer's
// cardinality estimates flip the order.
//
// Run: ./build/examples/query_planner

#include <cstdio>
#include <iostream>
#include <span>
#include <string>

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

int main() {
  using namespace kgq;

  // 1. A graph with skew worth optimizing for: the DBLP-synth keyword
  // distribution is ~20x hot-to-rare.
  DblpGraphOptions gopts;
  Rng rng(gopts.seed);
  LabeledGraph g = BuildDblpGraph(gopts, &rng);
  // The view's CSR: per-label statistics for the planner and contiguous
  // label partitions for the executor.
  LabeledGraphView view(g);
  const CsrSnapshot& snap = view.csr();
  std::cout << "DBLP-synth: " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges; about[property_graph] is the rare keyword ("
            << "writes=" << snap.LabelFrequency("writes")
            << ", about=" << snap.LabelFrequency("about") << " edges)\n\n";

  // 2. The CRPQ. Datalog-style: head declares the projection, the body
  // conjoins pattern atoms whose edges are regular path expressions.
  const std::string text =
      "q(a1, a2) :- (a1: author) -[ writes ]-> (p), "
      "(a2: author) -[ writes ]-> (p), "
      "(p) -[ about ]-> (k: property_graph)";
  Result<Crpq> q = ParseCrpq(text);
  if (!q.ok()) {
    std::cerr << q.status() << "\n";
    return 1;
  }
  std::cout << "CRPQ:\n  " << q->ToString() << "\n\n";

  // 3. Compile to the shared logical IR and plan it twice: once with
  // every rule off (the textual-order baseline) and once for real.
  Result<ConjunctiveQuery> cq = CompileCrpq(*q);
  GraphStats stats = GraphStats::From(&view, &snap);

  PlannerOptions naive;
  naive.push_filters = false;
  naive.reorder_joins = false;
  naive.edge_scan_fastpath = false;
  Result<LogicalOpPtr> naive_plan = PlanQuery(*cq, stats, naive);
  std::cout << "Naive plan (textual atom order, late filters):\n"
            << ExplainPlan(**naive_plan) << "\n";

  Result<LogicalOpPtr> plan = PlanQuery(*cq, stats, PlannerOptions{});
  std::cout << "Optimized plan (pushdown + greedy reorder + EdgeScan):\n"
            << ExplainPlan(**plan) << "\n";

  // 4. Execute the optimized plan. Counters are zeroed first so the
  // report below covers exactly this one execution.
  obs::Registry::SetEnabled(true);
  obs::Registry::Get().Reset();
  Result<RowSet> rows = ExecutePlan(view, **plan);
  if (!rows.ok()) {
    std::cerr << rows.status() << "\n";
    return 1;
  }
  // Rows are one flat RowTable; rows[i] views row i as a span.
  std::span<const NodeId> first = rows->rows[0];
  std::cout << "Executed: " << rows->rows.size()
            << " coauthor pairs on the rare keyword; first row = ("
            << g.NodeLabelString(first[0]) << " #" << first[0] << ", "
            << g.NodeLabelString(first[1]) << " #" << first[1] << ")\n\n";

  // 5. What the operators did, from the obs registry. plan.rows.* count
  // rows *produced* per operator kind — the whole point of the
  // optimizer is to shrink the hash_join number.
  const obs::Registry& reg = obs::Registry::Get();
  std::cout << "Rows produced per operator kind:\n";
  for (const char* kind : {"node_scan", "edge_scan", "path_atom", "hash_join",
                           "filter", "project"}) {
    std::printf("  plan.rows.%-10s %8llu\n", kind,
                static_cast<unsigned long long>(
                    reg.CounterValue(std::string("plan.rows.") + kind)));
  }
  std::printf("  label-partition entries scanned: %llu\n",
              static_cast<unsigned long long>(
                  reg.CounterValue("plan.scan.label_partition_entries")));
  if (const obs::Histogram* h = reg.FindHistogram("plan.join.build_rows")) {
    std::printf("  hash-join build sides: %llu joins, mean %.0f rows, "
                "max %llu rows\n",
                static_cast<unsigned long long>(h->Count()), h->Mean(),
                static_cast<unsigned long long>(h->Max()));
  }
  return 0;
}
