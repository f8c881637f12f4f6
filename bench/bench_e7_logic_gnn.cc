// E7 — declarative logic vs procedural GNNs (Section 4.3). Four checks:
// (1) the logic→GNN compiler reproduces the modal evaluator *exactly*
// on a formula suite over random graphs (Barceló et al., constructive
// direction); (2) the compiled networks are small (layers = formula
// readiness, features = subformulas); (3) the WL ceiling: for random
// networks, 1-WL-equivalent nodes always receive identical embeddings;
// (4) the neural-substrate sweep: one AC-GNN forward pass at d=64 on a
// 10k-node BA graph under every execution configuration — every
// configuration must reproduce the node-loop reference bit-for-bit, and
// the blocked-GEMM backend should deliver ≥3x single-thread speedup.
// Results are mirrored to BENCH_e7_logic_gnn.json (rows + obs registry).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "gnn/logic_to_gnn.h"
#include "gnn/spmm.h"
#include "gnn/train.h"
#include "gnn/wl.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "logic/modal.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// One row of the forward-sweep table / JSON report.
struct SweepRow {
  std::string backend;  // "nodeloop" or "gemm".
  size_t threads;
  double ms;
  double speedup;  // vs the nodeloop single-thread reference.
  bool identical;  // bit-identical to the reference output.
};

}  // namespace

int main() {
  using namespace kgq;

  std::vector<std::pair<std::string, ModalPtr>> suite;
  suite.emplace_back("label", ModalFormula::Label("p"));
  suite.emplace_back("neg",
                     ModalFormula::Not(ModalFormula::Label("p")));
  suite.emplace_back(
      "diamond", ModalFormula::Diamond("a", 1, ModalFormula::Label("p")));
  suite.emplace_back(
      "graded3", ModalFormula::DiamondInv("b", 3, ModalFormula::True()));
  suite.emplace_back(
      "nested",
      ModalFormula::Diamond(
          "a", 1,
          ModalFormula::And(ModalFormula::Label("q"),
                            ModalFormula::Diamond(
                                "b", 2, ModalFormula::Label("p")))));
  suite.emplace_back(
      "boolean-deep",
      ModalFormula::Not(ModalFormula::Or(
          ModalFormula::Diamond(
              "a", 1, ModalFormula::Not(ModalFormula::Label("p"))),
          ModalFormula::And(ModalFormula::Label("q"),
                            ModalFormula::DiamondInv(
                                "a", 2, ModalFormula::True())))));

  Table t("E7 — compiled AC-GNN vs modal evaluator",
          {"formula", "layers", "features", "graphs", "agreement",
           "t_modal(ms)", "t_gnn(ms)"});
  bool all_agree = true;
  Rng gen(777);
  std::vector<LabeledGraph> graphs;
  for (int i = 0; i < 10; ++i) {
    graphs.push_back(ErdosRenyi(60, 220, {"p", "q", "r"}, {"a", "b"}, &gen));
  }

  for (const auto& [name, formula] : suite) {
    Result<CompiledGnn> compiled = CompileModalToGnn(*formula);
    if (!compiled.ok()) {
      std::cerr << name << ": " << compiled.status() << "\n";
      return 1;
    }
    size_t agree = 0, total = 0;
    double ms_modal = 0, ms_gnn = 0;
    for (const LabeledGraph& g : graphs) {
      Timer tm;
      Bitset want = EvalModal(g, *formula);
      ms_modal += tm.Millis();
      Timer tg;
      Result<Bitset> got = compiled->Evaluate(g);
      ms_gnn += tg.Millis();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ++total;
        if (want.Test(v) == got->Test(v)) ++agree;
      }
    }
    bool perfect = agree == total;
    all_agree = all_agree && perfect;
    t.AddRow({name, std::to_string(compiled->gnn.num_layers()),
              std::to_string(compiled->subformulas.size()),
              std::to_string(graphs.size()),
              std::to_string(agree) + "/" + std::to_string(total),
              FormatDouble(ms_modal, 2), FormatDouble(ms_gnn, 2)});
  }
  t.Print(std::cout);

  // WL ceiling with random networks, on symmetric graphs (layered DAGs
  // and cycles) where WL-equivalent node pairs actually exist.
  size_t pairs_checked = 0, pairs_equal = 0;
  Rng wl_rng(888);
  for (int trial = 0; trial < 6; ++trial) {
    LabeledGraph g = trial % 2 == 0 ? LayeredDag(4, 5, "p", "a")
                                    : Cycle(12 + trial, "p", "a");
    WlResult wl = WlColorRefinement(g);
    AcGnn gnn(2);
    for (int l = 0; l < 3; ++l) {
      GnnLayer& layer = gnn.AddLayer(5);
      size_t in = l == 0 ? 2 : 5;
      layer.self = Matrix(5, in);
      layer.in_rel.emplace_back("a", Matrix(5, in));
      layer.out_rel.emplace_back("a", Matrix(5, in));
      layer.bias.assign(5, 0.0);
    }
    gnn.Randomize(&wl_rng);
    Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});
    Matrix out = *gnn.Run(CsrSnapshot::FromGraph(g), x);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (wl.colors[u] != wl.colors[v]) continue;
        ++pairs_checked;
        bool equal = true;
        for (size_t c = 0; c < out.cols(); ++c) {
          if (std::fabs(out.at(u, c) - out.at(v, c)) > 1e-9) equal = false;
        }
        if (equal) ++pairs_equal;
      }
    }
  }
  bool wl_ok = pairs_checked == pairs_equal;
  std::printf(
      "WL ceiling: %zu/%zu WL-equivalent node pairs received identical\n"
      "random-GNN embeddings (expected all) → %s\n",
      pairs_equal, pairs_checked, wl_ok ? "OK" : "FAIL");
  std::printf("compiler agreement across the suite → %s\n",
              all_agree ? "OK" : "FAIL");

  // Learned vs compiled: gradient descent approximates what compilation
  // achieves exactly (the declarative/procedural loop closed from the
  // other side).
  {
    ModalPtr target = ModalFormula::Diamond("a", 1, ModalFormula::Label("q"));
    Rng lrng(999);
    std::vector<LabeledGraph> graphs;
    for (int i = 0; i < 6; ++i) {
      graphs.push_back(ErdosRenyi(25, 55, {"p", "q"}, {"a", "b"}, &lrng));
    }
    std::vector<GnnExample> train;
    for (const LabeledGraph& g : graphs) {
      train.push_back(GnnExample{&g, EvalModal(g, *target)});
    }
    GnnTrainOptions topts;
    topts.epochs = 500;
    topts.learning_rate = 0.15;
    Timer t_train;
    Result<AcGnn> learned =
        TrainGnnClassifier(train, {"p", "q"}, {"a", "b"}, topts);
    double train_secs = t_train.Seconds();
    double acc_sum = 0.0;
    for (int i = 0; i < 4; ++i) {
      LabeledGraph test_g = ErdosRenyi(25, 55, {"p", "q"}, {"a", "b"}, &lrng);
      acc_sum += *ClassifierAccuracy(
          *learned, {"p", "q"}, GnnExample{&test_g, EvalModal(test_g, *target)});
    }
    double acc = acc_sum / 4.0;
    bool learn_ok = acc > 0.9;
    std::printf(
        "learned GNN for %s: %.1f%% test accuracy after %.1fs training "
        "(compiled network: 100%% by construction) → %s\n",
        target->ToString().c_str(), acc * 100.0, train_secs,
        learn_ok ? "OK" : "FAIL");
    all_agree = all_agree && learn_ok;
  }

  // Neural-substrate sweep: a d=64, 2-layer AC-GNN forward pass over a
  // 10k-node BA graph, under backend × threads. Correctness
  // gates the exit code (every configuration must equal the node-loop
  // reference exactly); the single-thread speedup verdict is reported.
  std::vector<SweepRow> sweep;
  size_t sweep_nodes = 0, sweep_edges = 0;
  bool sweep_identical = true;
  double node_median_ms = 0.0, gemm_median_ms = 0.0;
  {
    constexpr size_t kDim = 64;
    Rng grng(20260806);
    LabeledGraph g =
        BarabasiAlbert(10000, 3, {"p", "q"}, {"a", "b"}, &grng);
    const CsrSnapshot snap = CsrSnapshot::FromGraph(g);
    sweep_nodes = g.num_nodes();
    sweep_edges = g.num_edges();

    AcGnn gnn(2);
    for (int l = 0; l < 2; ++l) {
      size_t in = l == 0 ? 2 : kDim;
      GnnLayer& layer = gnn.AddLayer(kDim);
      layer.self = Matrix(kDim, in);
      for (const char* r : {"a", "b"}) {
        layer.in_rel.emplace_back(r, Matrix(kDim, in));
        layer.out_rel.emplace_back(r, Matrix(kDim, in));
      }
      layer.bias.assign(kDim, 0.0);
    }
    Rng wrng(4321);
    gnn.Randomize(&wrng, 0.5);
    Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});

    auto time_forward = [&](const GnnOptions& opts, Matrix* out) {
      // Warm-up pass (also the correctness sample), then best of 5 —
      // the minimum is the estimator most robust to scheduler noise.
      *out = *gnn.Run(snap, x, opts);
      double best = 1e100;
      for (int rep = 0; rep < 5; ++rep) {
        Timer tm;
        Matrix y = *gnn.Run(snap, x, opts);
        best = std::min(best, tm.Millis());
      }
      return best;
    };

    GnnOptions ref_opts;
    ref_opts.backend = GnnBackend::kNodeLoop;
    ref_opts.parallel.num_threads = 1;
    Matrix ref;
    double ref_ms = time_forward(ref_opts, &ref);

    Table st("E7 — AC-GNN forward sweep (BA 10k nodes, d=64, 2 layers)",
             {"backend", "threads", "t_fwd(ms)", "speedup", "identical"});
    for (GnnBackend backend : {GnnBackend::kNodeLoop, GnnBackend::kGemm}) {
      for (size_t threads : {1, 2, 4, 8}) {
        GnnOptions opts;
        opts.backend = backend;
        opts.parallel.num_threads = threads;
        bool is_ref = backend == ref_opts.backend && threads == 1;
        Matrix out;
        double ms = is_ref ? ref_ms : time_forward(opts, &out);
        bool identical = is_ref || out == ref;
        sweep_identical = sweep_identical && identical;
        SweepRow row{backend == GnnBackend::kGemm ? "gemm" : "nodeloop",
                     threads, ms, ref_ms / ms, identical};
        sweep.push_back(row);
        st.AddRow({row.backend, std::to_string(threads), FormatDouble(ms, 2),
                   FormatDouble(row.speedup, 2) + "x",
                   identical ? "yes" : "NO"});
      }
    }
    st.Print(std::cout);

    // The speedup verdict: nodeloop@1 and gemm@1 timed in interleaved
    // rounds, so both see the same machine load, and the ratio of their
    // medians — one best-of-5 reference timing swings up to 2x between
    // runs on a shared machine.
    GnnOptions gemm_opts;
    gemm_opts.backend = GnnBackend::kGemm;
    gemm_opts.parallel.num_threads = 1;
    constexpr size_t kRounds = 9;
    std::vector<double> node_ms, gemm_ms;
    for (size_t round = 0; round < kRounds; ++round) {
      for (std::vector<double>* times : {&node_ms, &gemm_ms}) {
        Timer tm;
        Matrix y =
            *gnn.Run(snap, x, times == &node_ms ? ref_opts : gemm_opts);
        times->push_back(tm.Millis());
      }
    }
    auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    node_median_ms = median(node_ms);
    gemm_median_ms = median(gemm_ms);
  }
  const double speedup_1t = node_median_ms / gemm_median_ms;
  std::printf(
      "substrate sweep: all configurations bit-identical → %s; "
      "single-thread GEMM speedup %.2fx (median of %.1f ms vs %.1f ms over "
      "interleaved rounds; target ≥3x) → %s\n",
      sweep_identical ? "OK" : "FAIL", speedup_1t, node_median_ms,
      gemm_median_ms, speedup_1t >= 3.0 ? "OK" : "MISS");

  // Machine-readable mirror: sweep rows + the obs registry (gemm flop /
  // spmm row counters, WL round histograms) accumulated above.
  {
    std::ofstream out("BENCH_e7_logic_gnn.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e7_logic_gnn");
    w.Key("graph");
    w.BeginObject();
    w.Key("nodes");
    w.UInt(sweep_nodes);
    w.Key("edges");
    w.UInt(sweep_edges);
    w.Key("dim");
    w.UInt(64);
    w.EndObject();
    w.Key("forward_sweep");
    w.BeginArray();
    for (const SweepRow& r : sweep) {
      w.BeginObject();
      w.Key("backend");
      w.String(r.backend);
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("ms");
      w.Double(r.ms);
      w.Key("speedup_vs_ref");
      w.Double(r.speedup);
      w.Key("identical");
      w.Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.Key("single_thread_median_ms");
    w.BeginObject();
    w.Key("nodeloop");
    w.Double(node_median_ms);
    w.Key("gemm");
    w.Double(gemm_median_ms);
    w.EndObject();
    w.Key("single_thread_speedup");
    w.Double(speedup_1t);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  return (all_agree && wl_ok && sweep_identical) ? 0 : 1;
}
