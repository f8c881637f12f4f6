#ifndef KGQ_GRAPH_CSR_SNAPSHOT_H_
#define KGQ_GRAPH_CSR_SNAPSHOT_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/labeled_graph.h"
#include "graph/multigraph.h"
#include "graph/property_graph.h"
#include "graph/vector_graph.h"

namespace kgq {

/// Dense label identifier local to one CsrSnapshot: the distinct edge
/// labels of the source graph re-interned into [0, num_labels) in first
/// appearance (edge-id) order.
using LabelId = uint32_t;

/// Sentinel: "no such label in this snapshot".
inline constexpr LabelId kNoLabel = 0xFFFFFFFFu;

/// An immutable, cache-friendly view of a graph's adjacency — the
/// traversal substrate of the hot kernels.
///
/// The mutable models (Multigraph and the labeled/property/vector
/// graphs on top of it) store one heap-allocated edge-id vector per
/// node; every traversal chases two pointers per step. A snapshot packs
/// the same information into four contiguous arrays:
///
///   * out view: entries sorted by (source, edge id) + node offsets,
///   * in view:  entries sorted by (target, edge id) + node offsets,
///   * a label-partitioned copy of each, sorted by (node, label,
///     edge id), so all edges with one label at one node form a single
///     contiguous range (`OutForLabel` / `InForLabel`) — the scan shape
///     of a product-automaton step over a fixed label.
///
/// Each entry carries the neighbor and the edge's dense LabelId, so a
/// traversal touches exactly one sequential stream.
///
/// Ordering contract: `Out(n)` and `In(n)` enumerate edges in ascending
/// edge id — exactly the insertion order of `Multigraph::OutEdges` /
/// `InEdges`. A path kernel over a view's CSR therefore takes the *same
/// step sequence* as a walk of the view's lists, and every view kind of
/// one graph yields bit-identical results (including the
/// rng-stream-sensitive FPRAS); `tests/test_csr_equivalence.cc`
/// enforces this. The analytics and neural kernels read only the
/// snapshot; within a node they visit neighbors in this order.
///
/// Sortedness property (`label_spans_sorted()`): whether every
/// label-partition span also lists its neighbors in nondecreasing order.
/// It is derived, not imposed — an O(|E|) check at build time, kept
/// exact at delta cost by ApplyCanonicalDelta — and holds whenever edge
/// ids follow canonical (from, to, label) order, as every epoch built
/// by the serving layer does: ascending edge id within one (node, label)
/// span is then ascending target on the out side and ascending source on
/// the in side. Arbitrary input (FromGraph of an insertion-ordered
/// graph) generally breaks it. The executor relies on it to emit
/// label-partition scans in (src, dst) order and to binary-search a
/// span for one neighbor; while it is false it uses neither.
///
/// A snapshot does not own or observe its source graph afterwards: it
/// copies everything it needs (including label spellings), so the
/// source may mutate or die. A kernel reads the snapshot it is handed
/// for the duration of the call; every view keeps its own alive.
class CsrSnapshot {
 public:
  /// One adjacency slot: the crossed edge, the node on the other side
  /// (target for out-entries, source for in-entries) and the edge's
  /// dense label.
  struct Entry {
    EdgeId edge;
    NodeId neighbor;
    LabelId label;
    bool operator==(const Entry&) const = default;
  };

  /// A contiguous run of entries (iterable, indexable).
  struct Span {
    const Entry* data = nullptr;
    size_t count = 0;
    const Entry* begin() const { return data; }
    const Entry* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const Entry& operator[](size_t i) const { return data[i]; }
  };

  CsrSnapshot() = default;

  /// Snapshot of a labeled graph: edge labels become the label
  /// partitions.
  static CsrSnapshot FromGraph(const LabeledGraph& g);

  /// Snapshot of a property graph (labels of the underlying labeled
  /// graph; properties are not part of the adjacency substrate).
  static CsrSnapshot FromGraph(const PropertyGraph& g);

  /// Snapshot of a vector-labeled graph: feature row 0 plays the label
  /// role, consistently with VectorGraphView::EdgeLabelIs.
  static CsrSnapshot FromGraph(const VectorGraph& g);

  /// Snapshot of a bare topology: every edge gets the single pseudo
  /// label "" (one partition per node — label scans degenerate to full
  /// scans).
  static CsrSnapshot FromTopology(const Multigraph& g);

  /// Snapshot of a topology with caller-supplied edge label spellings —
  /// the factory for graph views that are not backed by one of the
  /// concrete models (e.g. RdfGraphView, whose edges are labeled by
  /// predicate). `label_of(e)` must be valid for every edge of `g`.
  static CsrSnapshot FromLabeledEdges(
      const Multigraph& g,
      const std::function<std::string(EdgeId)>& label_of);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return sources_.size(); }
  size_t num_labels() const { return label_names_.size(); }

  bool HasNode(NodeId n) const { return n < num_nodes_; }
  bool HasEdge(EdgeId e) const { return e < sources_.size(); }

  /// ρ(e) — endpoints of edge e.
  NodeId EdgeSource(EdgeId e) const { return sources_[e]; }
  NodeId EdgeTarget(EdgeId e) const { return targets_[e]; }
  /// Dense label of edge e.
  LabelId EdgeLabel(EdgeId e) const { return edge_labels_[e]; }
  /// Dense labels of all edges, indexed by EdgeId.
  const std::vector<LabelId>& edge_labels() const { return edge_labels_; }

  /// Spelling of a dense label id.
  const std::string& LabelName(LabelId l) const { return label_names_[l]; }

  /// Number of edges carrying label l (tallied at build time) — the nnz
  /// of one label's SpMM aggregation, used by the benches to size work.
  /// Ids outside the snapshot's label space (including the kAtomDead /
  /// kAtomFiltered sentinels and kNoLabel) count 0, so cost rules can
  /// probe any id without first checking num_labels.
  size_t CountForLabel(LabelId l) const {
    return l < label_counts_.size() ? label_counts_[l] : 0;
  }

  /// Number of edges carrying label l — the planner's per-label
  /// cardinality statistic (alias of CountForLabel under the name the
  /// estimator speaks). Out-of-range ids count 0.
  size_t LabelFrequency(LabelId l) const { return CountForLabel(l); }

  /// Number of edges whose label spells `name` (0 when no edge carries
  /// it) — the string-level entry the cardinality estimator uses, so
  /// planner code never pokes at raw id arrays.
  size_t LabelFrequency(std::string_view name) const;

  /// Dense id of a label spelling, or nullopt if no edge carries it.
  /// The label of edges whose source label is ⊥ (a vector graph's
  /// empty feature row 0) is found by no spelling: like
  /// VectorGraphView::EdgeLabelIs, no label atom matches those edges.
  std::optional<LabelId> FindLabel(std::string_view name) const;

  /// Out-entries of n in ascending edge id (== Multigraph insertion
  /// order); entry.neighbor is the edge target.
  Span Out(NodeId n) const {
    return {out_entries_.data() + out_offsets_[n],
            out_offsets_[n + 1] - out_offsets_[n]};
  }
  /// In-entries of n in ascending edge id; entry.neighbor is the edge
  /// source.
  Span In(NodeId n) const {
    return {in_entries_.data() + in_offsets_[n],
            in_offsets_[n + 1] - in_offsets_[n]};
  }

  /// Out-entries of n with label l: one contiguous range of the
  /// label-partitioned view, ascending edge id within the range.
  Span OutForLabel(NodeId n, LabelId l) const {
    return ForLabel(out_label_entries_, out_offsets_, n, l);
  }
  /// In-entries of n with label l.
  Span InForLabel(NodeId n, LabelId l) const {
    return ForLabel(in_label_entries_, in_offsets_, n, l);
  }

  /// The full label-partitioned adjacency of n, sorted by (label, edge
  /// id) — the concatenation of its per-label partitions.
  Span OutPartitioned(NodeId n) const {
    return {out_label_entries_.data() + out_offsets_[n],
            out_offsets_[n + 1] - out_offsets_[n]};
  }
  Span InPartitioned(NodeId n) const {
    return {in_label_entries_.data() + in_offsets_[n],
            in_offsets_[n + 1] - in_offsets_[n]};
  }

  size_t OutDegree(NodeId n) const {
    return out_offsets_[n + 1] - out_offsets_[n];
  }
  size_t InDegree(NodeId n) const {
    return in_offsets_[n + 1] - in_offsets_[n];
  }

  /// True iff every `OutForLabel` / `InForLabel` span is sorted by
  /// neighbor (duplicates, i.e. parallel edges, adjacent) — see the
  /// class comment.
  bool label_spans_sorted() const { return label_spans_sorted_; }

  /// One edge as (source, target, label spelling).
  struct EdgeRecord {
    NodeId from;
    NodeId to;
    std::string label;
    bool operator==(const EdgeRecord&) const = default;
  };

  /// Round-trips the snapshot back to its edge list in edge-id order
  /// (test/debug surface).
  std::vector<EdgeRecord> ToEdgeList() const;

  /// Incremental rebuild: the snapshot of `prev`'s edge set minus
  /// `deleted` plus `inserted`, over `num_nodes` nodes — bit-identical
  /// to a from-scratch FromLabeledEdges build of the same logical edge
  /// set, at delta-merge cost (no string interning, no intermediate
  /// graph; one linear merge plus the counting-sort passes).
  ///
  /// Preconditions (the DeltaStore publish invariants):
  ///   * prev's edge ids enumerate its edges in canonical
  ///     (from, to, label) order — true of every snapshot built from a
  ///     canonically ordered edge stream, which publishes maintain;
  ///   * `inserted` and `deleted` are canonically sorted and duplicate
  ///     free; every deleted edge is present in prev and no inserted
  ///     edge is (net-delta semantics);
  ///   * num_nodes >= prev.num_nodes();
  ///   * prev has no ⊥ label (records carry spellings, and "⊥" would
  ///     come back as an ordinary label).
  ///
  /// Label ids are re-derived in first-appearance order over the merged
  /// stream; labels whose last edge was deleted drop out — exactly what
  /// a cold rebuild would intern.
  static CsrSnapshot ApplyCanonicalDelta(const CsrSnapshot& prev,
                                         size_t num_nodes,
                                         const std::vector<EdgeRecord>& inserted,
                                         const std::vector<EdgeRecord>& deleted);

  /// Structural bit-identity: every array equal, including label
  /// interning order and the partitioned views. The differential gates
  /// compare incremental publishes against cold rebuilds with this.
  bool operator==(const CsrSnapshot&) const = default;

 private:
  /// Shared builder: `edge_label_const[e]` is the source-graph ConstId
  /// of e's label and `spell` maps one to its string.
  template <typename SpellFn>
  static CsrSnapshot Build(const Multigraph& g,
                           const std::vector<ConstId>& edge_label_const,
                           SpellFn&& spell);

  /// Derives the adjacency views (offsets, entry arrays, label
  /// partitions) from the already-filled edge arrays (num_nodes_,
  /// sources_, targets_, edge_labels_). Shared by Build and
  /// ApplyCanonicalDelta so both produce byte-identical layouts.
  void BuildViews();

  /// Delta-aware view build for canonically ordered edge arrays: the
  /// out view is the stream itself, offsets come from prev's degrees
  /// adjusted by the delta, the in spans and label partitions of nodes
  /// no delta edge touches are copied from `prev` with edge/label ids
  /// remapped — only touched nodes pay a merge or span sort.
  /// `prev_new_id[e]` is prev edge e's id in this snapshot (the max
  /// EdgeId sentinel for deleted edges); `ins_new_id[i]` is inserted[i]'s
  /// id; `label_remap[l]` is prev dense label l's new id or kNoLabel if
  /// its last edge was deleted. Byte-identical to BuildViews(); falls
  /// back to it when the label re-map is not order-preserving (a novel
  /// label interned before a surviving one).
  void BuildViewsFromDelta(const CsrSnapshot& prev,
                           const std::vector<EdgeId>& prev_new_id,
                           const std::vector<LabelId>& label_remap,
                           const std::vector<EdgeRecord>& inserted,
                           const std::vector<EdgeId>& ins_new_id,
                           const std::vector<EdgeRecord>& deleted);

  /// The O(|E|) sortedness check over both label-partitioned views.
  bool AllLabelSpansSorted() const;

  Span ForLabel(const std::vector<Entry>& entries,
                const std::vector<size_t>& offsets, NodeId n,
                LabelId l) const;

  size_t num_nodes_ = 0;
  std::vector<NodeId> sources_;
  std::vector<NodeId> targets_;
  std::vector<LabelId> edge_labels_;
  std::vector<std::string> label_names_;
  std::vector<size_t> label_counts_;  // edges per label, by LabelId.
  LabelId null_label_ = kNoLabel;     // the ⊥ label FindLabel skips.

  // The two views share their offset arrays between the edge-id-ordered
  // and the label-partitioned copies (same per-node sizes).
  std::vector<size_t> out_offsets_;  // num_nodes + 1
  std::vector<size_t> in_offsets_;   // num_nodes + 1
  std::vector<Entry> out_entries_;        // by (source, edge)
  std::vector<Entry> in_entries_;         // by (target, edge)
  std::vector<Entry> out_label_entries_;  // by (source, label, edge)
  std::vector<Entry> in_label_entries_;   // by (target, label, edge)
  bool label_spans_sorted_ = true;        // derived from the views above.
};

}  // namespace kgq

#endif  // KGQ_GRAPH_CSR_SNAPSHOT_H_
