// E5 — regex-constrained betweenness centrality (Section 4.2). Two
// claims: (1) on Figure 2, bc_r with the transport query measures the
// bus as a transport service and ignores the ownership edges; (2) the
// randomized approximation (built on the Section 4.1 toolbox) tracks
// the exact bc_r at a fraction of the cost on larger graphs.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "datasets/contact_scenario.h"
#include "datasets/figure2.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "rpq/parser.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// One JSON record of the Figure 2 comparison.
struct Figure2Row {
  std::string name;
  double classic, bcr;
};

/// One JSON record of the exact-vs-approx comparison.
struct ApproxRow {
  size_t people, nodes, edges;
  double rel_err;
  bool top_match;
  double s_exact, s_approx;
};

/// One JSON record of the thread-scaling sweep.
struct ScalingRow {
  size_t threads;
  double s_exact, s_approx;
  bool identical;
};

}  // namespace

int main() {
  using namespace kgq;
  bool ok = true;
  std::vector<Figure2Row> figure2_rows;
  std::vector<ApproxRow> approx_rows;
  std::vector<ScalingRow> scaling_rows;

  // ---- Figure 2: the bus-as-transport example ---------------------------
  {
    KGQ_SPAN("e5.figure2");
    LabeledGraph g = Figure2Labeled();
    LabeledGraphView view(g);
    RegexPtr transport = *ParseRegex("?person/rides/?bus/rides^-/?person");
    const CsrSnapshot csr = CsrSnapshot::FromGraph(g);
    std::vector<double> classic =
        BetweennessCentrality(csr, EdgeDirection::kUndirected);
    Result<std::vector<double>> bcr = RegexBetweenness(view, *transport, {});

    Table t("E5a — Figure 2: classical bc vs bc_r(transport)",
            {"node", "label", "classic bc", "bc_r"});
    const char* names[] = {"Juan", "Ana", "bus n3", "Pedro", "Rosa",
                           "company"};
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      t.AddRow({names[v], g.NodeLabelString(v), FormatDouble(classic[v], 2),
                FormatDouble((*bcr)[v], 2)});
      figure2_rows.push_back({names[v], classic[v], (*bcr)[v]});
    }
    t.Print(std::cout);
    ok = ok && (*bcr)[fig2::kBus] > 0 && (*bcr)[fig2::kCompany] == 0 &&
         (*bcr)[fig2::kAna] == 0 && classic[fig2::kAna] > 0;
    std::printf("bus counts only as transport; Ana/company drop to 0 → %s\n\n",
                ok ? "OK" : "FAIL");
  }

  // ---- Scaled scenario: exact vs randomized approximation ---------------
  {
    KGQ_SPAN("e5.exact_vs_approx");
    Table t("E5b — bc_r exact vs randomized approximation",
            {"people", "nodes", "edges", "L1 rel err", "top-1 match",
             "t_exact(s)", "t_approx(s)"});
    bool approx_ok = true;
    for (size_t people : {30, 60}) {
      ContactScenarioOptions opts;
      opts.num_people = people;
      opts.num_buses = 4;
      Rng gen(2025 + people);
      PropertyGraph city = ContactScenario(opts, &gen);
      PropertyGraphView view(city);
      RegexPtr transport =
          *ParseRegex("?person/rides/?bus/rides^-/?person");
      BcrOptions bopts;
      bopts.max_path_length = 4;

      Timer t_exact;
      Result<std::vector<double>> exact =
          RegexBetweenness(view, *transport, bopts);
      double s_exact = t_exact.Seconds();

      Rng rng(7);
      Timer t_approx;
      Result<std::vector<double>> approx =
          RegexBetweennessApprox(view, *transport, bopts, &rng);
      double s_approx = t_approx.Seconds();

      double num = 0, den = 0;
      for (size_t i = 0; i < exact->size(); ++i) {
        num += std::fabs((*approx)[i] - (*exact)[i]);
        den += (*exact)[i];
      }
      double rel = den > 0 ? num / den : 0.0;
      size_t top_exact =
          std::max_element(exact->begin(), exact->end()) - exact->begin();
      size_t top_approx =
          std::max_element(approx->begin(), approx->end()) -
          approx->begin();
      bool top_match = top_exact == top_approx;
      approx_ok = approx_ok && rel < 0.5 && top_match;
      t.AddRow({std::to_string(people), std::to_string(city.num_nodes()),
                std::to_string(city.num_edges()), FormatDouble(rel, 3),
                top_match ? "yes" : "NO", FormatDouble(s_exact, 2),
                FormatDouble(s_approx, 2)});
      approx_rows.push_back({people, city.num_nodes(), city.num_edges(), rel,
                             top_match, s_exact, s_approx});
    }
    t.Print(std::cout);
    ok = ok && approx_ok;
    std::printf("randomized bc_r tracks exact (shape, top-1) → %s\n\n",
                approx_ok ? "OK" : "FAIL");
  }

  // ---- Thread scaling of the source-parallel bc_r sweep -----------------
  {
    KGQ_SPAN("e5.thread_scaling");
    ContactScenarioOptions opts;
    opts.num_people = 60;
    opts.num_buses = 4;
    Rng gen(2085);
    PropertyGraph city = ContactScenario(opts, &gen);
    PropertyGraphView view(city);
    RegexPtr transport = *ParseRegex("?person/rides/?bus/rides^-/?person");

    Table t("E5c — bc_r thread scaling (source-parallel sweep)",
            {"threads", "t_exact(s)", "speedup", "t_approx(s)", "speedup",
             "identical to 1-thread"});
    double exact_base = 0.0, approx_base = 0.0;
    std::vector<double> exact_ref, approx_ref;
    bool identical = true;
    for (size_t threads : {1, 2, 4, 8}) {
      BcrOptions bopts;
      bopts.max_path_length = 4;
      bopts.parallel.num_threads = threads;

      Timer t_exact;
      Result<std::vector<double>> exact =
          RegexBetweenness(view, *transport, bopts);
      double s_exact = t_exact.Seconds();

      Rng rng(7);
      Timer t_approx;
      Result<std::vector<double>> approx =
          RegexBetweennessApprox(view, *transport, bopts, &rng);
      double s_approx = t_approx.Seconds();

      if (threads == 1) {
        exact_base = s_exact;
        approx_base = s_approx;
        exact_ref = *exact;
        approx_ref = *approx;
      }
      bool same = *exact == exact_ref && *approx == approx_ref;
      identical = identical && same;
      t.AddRow({std::to_string(threads), FormatDouble(s_exact, 2),
                FormatDouble(exact_base / s_exact, 2),
                FormatDouble(s_approx, 2),
                FormatDouble(approx_base / s_approx, 2),
                same ? "yes" : "NO"});
      scaling_rows.push_back({threads, s_exact, s_approx, same});
    }
    t.Print(std::cout);
    ok = ok && identical;
    std::printf(
        "bc_r output is bit-identical at every thread count → %s\n",
        identical ? "OK" : "FAIL");
  }

  // Machine-readable mirror: every table row plus the obs registry
  // (bc_r pair counters, phase spans, FPRAS sample counters).
  {
    std::ofstream out("BENCH_e5_bcr.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e5_bcr");
    w.Key("figure2");
    w.BeginArray();
    for (const Figure2Row& r : figure2_rows) {
      w.BeginObject();
      w.Key("node");
      w.String(r.name);
      w.Key("classic_bc");
      w.Double(r.classic);
      w.Key("bcr");
      w.Double(r.bcr);
      w.EndObject();
    }
    w.EndArray();
    w.Key("exact_vs_approx");
    w.BeginArray();
    for (const ApproxRow& r : approx_rows) {
      w.BeginObject();
      w.Key("people");
      w.UInt(r.people);
      w.Key("nodes");
      w.UInt(r.nodes);
      w.Key("edges");
      w.UInt(r.edges);
      w.Key("l1_rel_err");
      w.Double(r.rel_err);
      w.Key("top1_match");
      w.Bool(r.top_match);
      w.Key("t_exact_s");
      w.Double(r.s_exact);
      w.Key("t_approx_s");
      w.Double(r.s_approx);
      w.EndObject();
    }
    w.EndArray();
    w.Key("thread_scaling");
    w.BeginArray();
    for (const ScalingRow& r : scaling_rows) {
      w.BeginObject();
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("t_exact_s");
      w.Double(r.s_exact);
      w.Key("t_approx_s");
      w.Double(r.s_approx);
      w.Key("identical_to_1_thread");
      w.Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.Key("ok");
    w.Bool(ok);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }
  return ok ? 0 : 1;
}
