#include "gnn/wl.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "graph/csr_snapshot.h"
#include "obs/obs.h"

namespace kgq {

namespace {

/// Node tile of the parallel signature build.
constexpr size_t kNodeTile = 64;

}  // namespace

WlResult WlColorRefinement(const LabeledGraph& graph, const WlOptions& opts) {
  KGQ_SPAN("gnn.wl");
  size_t n = graph.num_nodes();
  const CsrSnapshot snap = CsrSnapshot::FromGraph(graph);
  WlResult out;
  out.colors.assign(n, 0);

  // Initial partition: node labels, densely renumbered.
  {
    std::map<ConstId, uint32_t> remap;
    for (NodeId v = 0; v < n; ++v) {
      auto [it, inserted] = remap.emplace(
          graph.NodeLabel(v), static_cast<uint32_t>(remap.size()));
      out.colors[v] = it->second;
    }
    out.num_colors = static_cast<uint32_t>(remap.size());
  }

  // Signature: (own color, sorted multiset of (edge label, dir, color)).
  // The label key is the snapshot's dense LabelId, an injective
  // relabeling of the edge labels, so it induces the same partition —
  // and every color id is first-appearance order over ascending v.
  using Neighbor = std::tuple<LabelId, int, uint32_t>;
  using Signature = std::pair<uint32_t, std::vector<Neighbor>>;

  std::vector<Signature> sigs(n);
  for (;;) {
    // Signature build: embarrassingly parallel (reads colors, writes
    // only the node's own slot).
    ParallelFor(
        0, n, kNodeTile,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            Signature& sig = sigs[v];
            sig.first = out.colors[v];
            sig.second.clear();
            for (const CsrSnapshot::Entry& a : snap.Out(v)) {
              sig.second.emplace_back(a.label, 0, out.colors[a.neighbor]);
            }
            for (const CsrSnapshot::Entry& a : snap.In(v)) {
              sig.second.emplace_back(a.label, 1, out.colors[a.neighbor]);
            }
            std::sort(sig.second.begin(), sig.second.end());
          }
        },
        opts.parallel);

    // Interning stays sequential: color ids are first-appearance order
    // over ascending v (the canonical numbering every thread count
    // shares).
    std::map<Signature, uint32_t> remap;
    std::vector<uint32_t> next(n);
    for (NodeId v = 0; v < n; ++v) {
      auto [it, inserted] = remap.emplace(std::move(sigs[v]),
                                          static_cast<uint32_t>(remap.size()));
      next[v] = it->second;
    }
    ++out.rounds;
    uint32_t new_count = static_cast<uint32_t>(remap.size());
    out.colors = std::move(next);
    if (new_count == out.num_colors) {
      out.num_colors = new_count;
      break;
    }
    out.num_colors = new_count;
  }
  KGQ_HISTOGRAM_RECORD("gnn.wl.rounds", out.rounds);
  return out;
}

uint64_t WlGraphFingerprint(const LabeledGraph& graph) {
  WlResult wl = WlColorRefinement(graph);
  // The color ids are canonical only per run, so fingerprint the
  // *canonicalized signature structure*: histogram sizes sorted, mixed
  // with per-color canonical data. To make fingerprints comparable
  // across graphs, rebuild colors from label strings upward.
  //
  // Practical approach: iterate refinement again but with globally
  // canonical signatures (strings). Cheap at the sizes we test.
  size_t n = graph.num_nodes();
  std::vector<std::string> color(n);
  for (NodeId v = 0; v < n; ++v) color[v] = graph.NodeLabelString(v);
  for (size_t round = 0; round < wl.rounds; ++round) {
    std::vector<std::string> next(n);
    for (NodeId v = 0; v < n; ++v) {
      std::vector<std::string> parts;
      for (EdgeId e : graph.OutEdges(v)) {
        parts.push_back(">" + graph.EdgeLabelString(e) + ":" +
                        color[graph.EdgeTarget(e)]);
      }
      for (EdgeId e : graph.InEdges(v)) {
        parts.push_back("<" + graph.EdgeLabelString(e) + ":" +
                        color[graph.EdgeSource(e)]);
      }
      std::sort(parts.begin(), parts.end());
      std::string sig = "(" + color[v] + "|";
      for (const std::string& p : parts) sig += p + ",";
      sig += ")";
      // Keep colors fixed-size across rounds: hash the signature.
      uint64_t h = 0xcbf29ce484222325ull;
      for (char ch : sig) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
      }
      next[v] = std::to_string(h);
    }
    color = std::move(next);
  }
  std::sort(color.begin(), color.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& c : color) {
    for (char ch : c) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
    h ^= 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace kgq
