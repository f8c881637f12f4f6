// E15 — incremental epoch publication and delta-based view maintenance
// (src/serve/delta_store + src/serve/view_cache). Two phases over a
// BA-12k base graph:
//
//  * Phase A (publish): the same ~20-epoch stream of ≤1% edge deltas is
//    mirrored into an incremental DeltaStore (ApplyCanonicalDelta merge)
//    and a from-scratch one (incremental_publish=false); every publish
//    is timed on both sides and every pair of snapshots must compare
//    equal (CsrSnapshot::operator==).
//  * Phase B (views): per epoch, warm-started integer PageRank
//    (PageRankFixpointWarm from the previous fixpoint via the damage
//    bound) against the cold Kleene sweep — bit-identical ranks
//    required — plus ViewCache-maintained components/reachability
//    checked against from-scratch recomputes, with maintenance latency
//    compared to a cold rebuild of the same views.
//
// Gates (exit code): median from-scratch / median incremental publish
// latency ≥ 10x; every incremental snapshot identical to the
// from-scratch build; warm PageRank ranks identical to cold with
// strictly fewer iterations on ≥90% of epochs; maintained views
// identical to from-scratch recomputes on every epoch.
//
// Reported: publish p50/p99 for both stores (QuantileReservoir), the
// latency ratio, per-epoch warm/cold iteration counts, view maintenance
// vs rebuild timings — mirrored to BENCH_e15_incremental.json behind a
// provenance header (bench/provenance.h), with the gates and the full
// obs registry (serve.publish.dirty_labels,
// serve.view.*, pagerank.warm_iterations...).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/components.h"
#include "analytics/pagerank.h"
#include "bench/provenance.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "obs/quantile.h"
#include "serve/delta_store.h"
#include "serve/view_cache.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;
using namespace kgq::serve;

constexpr size_t kNodes = 12000;
constexpr size_t kAttach = 4;
constexpr size_t kEpochs = 20;
/// Per-epoch delta budget as a fraction of the live edge count. Split
/// ~60/40 insert/delete, total ≤1% — the regime the ISSUE gate names.
constexpr double kDeltaFraction = 0.01;

const std::vector<std::string> kNodeLabels = {"person", "bus", "stop"};
const std::vector<std::string> kEdgeLabels = {"rides", "knows", "near"};

uint64_t MedianNs(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return obs::QuantileReservoir::PercentileOfSorted(v, 50.0);
}

/// From-scratch per-label positive-length closure, sharing no code with
/// the ViewCache advance loop: plain Kleene iteration of
/// R ← A ∪ R·A until fixpoint.
BoolCsr ColdClosureRef(const CsrSnapshot& csr, std::string_view label) {
  const size_t n = csr.num_nodes();
  BoolCsr adj;
  if (auto id = csr.FindLabel(label)) {
    adj = BoolCsr::FromSnapshotLabel(csr, *id);
  } else {
    adj = BoolCsr::FromEntries(n, n, {});
  }
  if (adj.offsets.size() < n + 1) {
    adj.num_rows = n;
    adj.num_cols = n;
    adj.offsets.resize(n + 1, adj.cols.size());
  }
  BoolCsr r = adj;
  for (;;) {
    BoolCsr next = BoolUnion(adj, BoolSpGemm(r, adj));
    if (next == r) return r;
    r = std::move(next);
  }
}

}  // namespace

int main() {
  bool snapshots_identical = true;
  bool ranks_identical = true;
  bool views_identical = true;

  // Base graph: BA-12k with heavy-tailed degrees, collapsed to set
  // semantics by the store (parallel edges dedup).
  Rng rng(0xE15ull);
  const LabeledGraph base =
      BarabasiAlbert(kNodes, kAttach, kNodeLabels, kEdgeLabels, &rng);

  DeltaStore incr(DeltaStoreOptions{/*incremental_publish=*/true});
  DeltaStore full(DeltaStoreOptions{/*incremental_publish=*/false});
  std::vector<EdgeKey> live;  // mirror of the logical edge set
  for (NodeId n = 0; n < base.num_nodes(); ++n) {
    incr.AddNode(base.NodeLabelString(n));
    full.AddNode(base.NodeLabelString(n));
  }
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const NodeId from = base.EdgeSource(e);
    const NodeId to = base.EdgeTarget(e);
    const std::string& label = base.EdgeLabelString(e);
    const bool applied = incr.InsertEdge(from, to, label).value();
    (void)full.InsertEdge(from, to, label).value();
    if (applied) live.push_back(EdgeKey{from, to, label});
  }

  // Epoch 1: the base build. Both stores pay the from-scratch cost here
  // (the incremental store has no prior epoch with content); excluded
  // from the delta-latency gate.
  Timer base_timer;
  EpochPtr snap = incr.Publish();
  const double base_incr_ms = base_timer.Millis();
  Timer base_full_timer;
  EpochPtr fsnap = full.Publish();
  const double base_full_ms = base_full_timer.Millis();
  snapshots_identical = snapshots_identical && *snap->csr == *fsnap->csr;

  ViewCache views;  // maintained across epochs (advance path)
  obs::QuantileReservoir publish_incr_q;
  obs::QuantileReservoir publish_full_q;
  std::vector<uint64_t> publish_incr_ns;
  std::vector<uint64_t> publish_full_ns;
  std::vector<size_t> warm_iters;
  std::vector<size_t> cold_iters;
  size_t warm_fewer = 0;
  size_t warm_path_taken = 0;
  std::vector<uint64_t> view_advance_ns;
  std::vector<uint64_t> view_rebuild_ns;

  PageRankFixpoint prev_fp = PageRankFixpointCold(*snap->csr);
  EpochPtr prev_snap = snap;

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    // Mirror one ≤1% delta into both stores: ~60% fresh inserts, ~40%
    // deletes of live edges.
    const size_t budget =
        static_cast<size_t>(kDeltaFraction * static_cast<double>(live.size()));
    for (size_t i = 0; i < budget; ++i) {
      if (rng.Bernoulli(0.4) && !live.empty()) {
        const size_t pick = rng.Below(live.size());
        const EdgeKey key = live[pick];
        live[pick] = live.back();
        live.pop_back();
        (void)incr.DeleteEdge(key.from, key.to, key.label).value();
        (void)full.DeleteEdge(key.from, key.to, key.label).value();
      } else {
        const EdgeKey key{static_cast<NodeId>(rng.Below(kNodes)),
                          static_cast<NodeId>(rng.Below(kNodes)),
                          kEdgeLabels[rng.Below(kEdgeLabels.size())]};
        const bool applied =
            incr.InsertEdge(key.from, key.to, key.label).value();
        (void)full.InsertEdge(key.from, key.to, key.label).value();
        if (applied) live.push_back(key);
      }
    }

    const uint64_t incr_start = obs::NowNanos();
    snap = incr.Publish();
    const uint64_t incr_ns = obs::NowNanos() - incr_start;
    const uint64_t full_start = obs::NowNanos();
    fsnap = full.Publish();
    const uint64_t full_ns = obs::NowNanos() - full_start;
    publish_incr_q.Record(incr_ns);
    publish_full_q.Record(full_ns);
    publish_incr_ns.push_back(incr_ns);
    publish_full_ns.push_back(full_ns);
    if (!(*snap->csr == *fsnap->csr)) {
      snapshots_identical = false;
      std::fprintf(stderr, "SNAPSHOT MISMATCH at epoch %llu\n",
                   static_cast<unsigned long long>(snap->epoch));
    }

    // Warm vs cold PageRank at this epoch.
    std::vector<std::pair<NodeId, NodeId>> deleted;
    deleted.reserve(snap->delta.deleted.size());
    for (const CsrSnapshot::EdgeRecord& e : snap->delta.deleted) {
      deleted.emplace_back(e.from, e.to);
    }
    const PageRankFixpoint warm =
        PageRankFixpointWarm(*prev_snap->csr, prev_fp.rank, *snap->csr,
                             deleted);
    const PageRankFixpoint cold = PageRankFixpointCold(*snap->csr);
    if (warm.rank != cold.rank) {
      ranks_identical = false;
      std::fprintf(stderr, "RANK MISMATCH at epoch %llu\n",
                   static_cast<unsigned long long>(snap->epoch));
    }
    warm_iters.push_back(warm.iterations);
    cold_iters.push_back(cold.iterations);
    if (warm.iterations < cold.iterations) ++warm_fewer;
    if (warm.warm) ++warm_path_taken;
    prev_fp = cold;
    prev_snap = snap;

    // Maintained views (advance path) vs from-scratch recomputes.
    const uint64_t adv_start = obs::NowNanos();
    const auto comp = views.Components(snap);
    const auto reach = views.Reachability(snap, kEdgeLabels[0]);
    view_advance_ns.push_back(obs::NowNanos() - adv_start);
    const uint64_t reb_start = obs::NowNanos();
    const ComponentAssignment comp_ref =
        WeaklyConnectedComponentsCsr(*snap->csr);
    const BoolCsr reach_ref = ColdClosureRef(*snap->csr, kEdgeLabels[0]);
    view_rebuild_ns.push_back(obs::NowNanos() - reb_start);
    if (comp->component != comp_ref.component ||
        comp->num_components != comp_ref.num_components ||
        !(*reach == reach_ref)) {
      views_identical = false;
      std::fprintf(stderr, "VIEW MISMATCH at epoch %llu\n",
                   static_cast<unsigned long long>(snap->epoch));
    }
  }

  const uint64_t incr_median = MedianNs(publish_incr_ns);
  const uint64_t full_median = MedianNs(publish_full_ns);
  const double publish_ratio =
      incr_median > 0
          ? static_cast<double>(full_median) / static_cast<double>(incr_median)
          : 0.0;
  const bool publish_gate = publish_ratio >= 10.0;
  const double warm_fewer_frac =
      static_cast<double>(warm_fewer) / static_cast<double>(kEpochs);
  const bool warm_gate = warm_fewer_frac >= 0.9;

  Table t("E15 — incremental publication: BA-12k, ≤1% deltas, 20 epochs",
          {"metric", "incremental", "from-scratch"});
  t.AddRow({"base build (ms)", std::to_string(base_incr_ms),
            std::to_string(base_full_ms)});
  t.AddRow({"publish p50 (us)",
            std::to_string(publish_incr_q.Quantile(50.0) / 1000),
            std::to_string(publish_full_q.Quantile(50.0) / 1000)});
  t.AddRow({"publish p99 (us)",
            std::to_string(publish_incr_q.Quantile(99.0) / 1000),
            std::to_string(publish_full_q.Quantile(99.0) / 1000)});
  t.AddRow({"publish median (us)", std::to_string(incr_median / 1000),
            std::to_string(full_median / 1000)});
  t.AddRow({"view maintain/rebuild median (us)",
            std::to_string(MedianNs(view_advance_ns) / 1000),
            std::to_string(MedianNs(view_rebuild_ns) / 1000)});
  t.Print(std::cout);
  std::printf(
      "\npublish ratio %.1fx (gate ≥10x) — %s\n"
      "warm PageRank fewer iterations on %zu/%zu epochs (gate ≥90%%), "
      "warm path on %zu — %s\n",
      publish_ratio, publish_gate ? "OK" : "FAIL", warm_fewer, kEpochs,
      warm_path_taken, warm_gate ? "OK" : "FAIL");

  {
    std::ofstream out("BENCH_e15_incremental.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e15_incremental");
    bench::WriteProvenance(&w);
    w.Key("nodes");
    w.UInt(kNodes);
    w.Key("epochs");
    w.UInt(kEpochs);
    w.Key("delta_fraction");
    w.Double(kDeltaFraction);
    w.Key("edges_final");
    w.UInt(live.size());
    w.Key("publish");
    w.BeginObject();
    w.Key("incremental_p50_ns");
    w.UInt(publish_incr_q.Quantile(50.0));
    w.Key("incremental_p99_ns");
    w.UInt(publish_incr_q.Quantile(99.0));
    w.Key("from_scratch_p50_ns");
    w.UInt(publish_full_q.Quantile(50.0));
    w.Key("from_scratch_p99_ns");
    w.UInt(publish_full_q.Quantile(99.0));
    w.Key("median_ratio");
    w.Double(publish_ratio);
    w.EndObject();
    w.Key("pagerank");
    w.BeginObject();
    w.Key("warm_iterations");
    w.BeginArray();
    for (size_t it : warm_iters) w.UInt(it);
    w.EndArray();
    w.Key("cold_iterations");
    w.BeginArray();
    for (size_t it : cold_iters) w.UInt(it);
    w.EndArray();
    w.Key("warm_fewer_fraction");
    w.Double(warm_fewer_frac);
    w.EndObject();
    w.Key("views");
    w.BeginObject();
    w.Key("maintain_median_ns");
    w.UInt(MedianNs(view_advance_ns));
    w.Key("rebuild_median_ns");
    w.UInt(MedianNs(view_rebuild_ns));
    w.EndObject();
    w.Key("gates");
    w.BeginObject();
    w.Key("snapshots_identical");
    w.Bool(snapshots_identical);
    w.Key("publish_ratio_10x");
    w.Bool(publish_gate);
    w.Key("ranks_identical");
    w.Bool(ranks_identical);
    w.Key("warm_fewer_90pct");
    w.Bool(warm_gate);
    w.Key("views_identical");
    w.Bool(views_identical);
    w.EndObject();
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  const bool ok = snapshots_identical && publish_gate && ranks_identical &&
                  warm_gate && views_identical;
  std::printf("Incremental publication gate → %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
