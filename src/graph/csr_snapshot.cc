#include "graph/csr_snapshot.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

namespace kgq {
namespace {

/// True iff each label run of one node's label-partitioned span lists
/// nondecreasing neighbors.
bool RunsSorted(const CsrSnapshot::Entry* lo, const CsrSnapshot::Entry* hi) {
  for (const CsrSnapshot::Entry* it = lo; hi - it > 1; ++it) {
    if (it[1].label == it[0].label && it[1].neighbor < it[0].neighbor) {
      return false;
    }
  }
  return true;
}

}  // namespace

template <typename SpellFn>
CsrSnapshot CsrSnapshot::Build(const Multigraph& g,
                               const std::vector<ConstId>& edge_label_const,
                               SpellFn&& spell) {
  CsrSnapshot snap;
  size_t n = g.num_nodes();
  size_t m = g.num_edges();
  snap.num_nodes_ = n;
  snap.sources_.resize(m);
  snap.targets_.resize(m);
  snap.edge_labels_.resize(m);

  // Re-intern the distinct label constants into dense LabelIds in first
  // appearance (edge-id) order.
  std::unordered_map<ConstId, LabelId> label_index;
  for (EdgeId e = 0; e < m; ++e) {
    snap.sources_[e] = g.EdgeSource(e);
    snap.targets_[e] = g.EdgeTarget(e);
    ConstId c = edge_label_const[e];
    auto [it, inserted] =
        label_index.emplace(c, static_cast<LabelId>(label_index.size()));
    if (inserted) {
      snap.label_names_.push_back(spell(c));
      snap.label_counts_.push_back(0);
      if (c == kNullConst) snap.null_label_ = it->second;
    }
    snap.edge_labels_[e] = it->second;
    ++snap.label_counts_[it->second];
  }

  snap.BuildViews();
  return snap;
}

void CsrSnapshot::BuildViews() {
  const size_t n = num_nodes_;
  const size_t m = sources_.size();
  // Counting sort of the edges by source (out view) and by target (in
  // view). Edges are visited in ascending id, so entries within one
  // node keep ascending edge id — the Multigraph insertion order.
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    ++out_offsets_[sources_[e] + 1];
    ++in_offsets_[targets_[e] + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    out_offsets_[i] += out_offsets_[i - 1];
    in_offsets_[i] += in_offsets_[i - 1];
  }
  out_entries_.resize(m);
  in_entries_.resize(m);
  std::vector<size_t> out_cursor(out_offsets_.begin(),
                                 out_offsets_.end() - 1);
  std::vector<size_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    LabelId l = edge_labels_[e];
    out_entries_[out_cursor[sources_[e]]++] = Entry{e, targets_[e], l};
    in_entries_[in_cursor[targets_[e]]++] = Entry{e, sources_[e], l};
  }

  // Label-partitioned copies: within each node span, stable-sort by
  // label — stability keeps ascending edge id inside every partition.
  out_label_entries_ = out_entries_;
  in_label_entries_ = in_entries_;
  auto by_label = [](const Entry& a, const Entry& b) {
    return a.label < b.label;
  };
  for (NodeId v = 0; v < n; ++v) {
    std::stable_sort(
        out_label_entries_.begin() + out_offsets_[v],
        out_label_entries_.begin() + out_offsets_[v + 1], by_label);
    std::stable_sort(in_label_entries_.begin() + in_offsets_[v],
                     in_label_entries_.begin() + in_offsets_[v + 1], by_label);
  }
  label_spans_sorted_ = AllLabelSpansSorted();
}

bool CsrSnapshot::AllLabelSpansSorted() const {
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (!RunsSorted(out_label_entries_.data() + out_offsets_[v],
                    out_label_entries_.data() + out_offsets_[v + 1]) ||
        !RunsSorted(in_label_entries_.data() + in_offsets_[v],
                    in_label_entries_.data() + in_offsets_[v + 1])) {
      return false;
    }
  }
  return true;
}

CsrSnapshot CsrSnapshot::FromGraph(const LabeledGraph& g) {
  std::vector<ConstId> labels(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) labels[e] = g.EdgeLabel(e);
  return Build(g.topology(), labels,
               [&](ConstId c) { return g.dict().Lookup(c); });
}

CsrSnapshot CsrSnapshot::FromGraph(const PropertyGraph& g) {
  return FromGraph(g.labeled());
}

CsrSnapshot CsrSnapshot::FromGraph(const VectorGraph& g) {
  std::vector<ConstId> labels(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) labels[e] = g.EdgeFeature(e, 0);
  return Build(g.topology(), labels,
               [&](ConstId c) { return g.dict().Lookup(c); });
}

CsrSnapshot CsrSnapshot::FromTopology(const Multigraph& g) {
  std::vector<ConstId> labels(g.num_edges(), 0);
  return Build(g, labels, [](ConstId) { return std::string(); });
}

CsrSnapshot CsrSnapshot::FromLabeledEdges(
    const Multigraph& g,
    const std::function<std::string(EdgeId)>& label_of) {
  Interner dict;
  std::vector<ConstId> labels(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    labels[e] = dict.Intern(label_of(e));
  }
  return Build(g, labels, [&](ConstId c) { return dict.Lookup(c); });
}

CsrSnapshot CsrSnapshot::ApplyCanonicalDelta(
    const CsrSnapshot& prev, size_t num_nodes,
    const std::vector<EdgeRecord>& inserted,
    const std::vector<EdgeRecord>& deleted) {
  CsrSnapshot snap;
  snap.num_nodes_ = num_nodes;
  const size_t m_prev = prev.sources_.size();
  const size_t m = m_prev + inserted.size() - deleted.size();
  constexpr EdgeId kUnset = std::numeric_limits<EdgeId>::max();

  // Provisional label keys: prev labels keep their dense id; spellings
  // seen only in `inserted` get keys past prev's label space. Label
  // strings are hashed once per distinct delta spelling, never once per
  // edge.
  const LabelId prev_labels = static_cast<LabelId>(prev.label_names_.size());
  std::unordered_map<std::string_view, LabelId> key_of;
  key_of.reserve(prev.label_names_.size());
  for (LabelId l = 0; l < prev_labels; ++l) {
    key_of.emplace(prev.label_names_[l], l);
  }
  std::vector<const std::string*> novel_names;
  std::vector<LabelId> ins_keys(inserted.size());
  for (size_t i = 0; i < inserted.size(); ++i) {
    auto [it, fresh] = key_of.emplace(
        inserted[i].label,
        static_cast<LabelId>(prev_labels + novel_names.size()));
    if (fresh) novel_names.push_back(&inserted[i].label);
    ins_keys[i] = it->second;
  }
  const size_t num_keys = prev_labels + novel_names.size();

  // Three-way order between a prev edge (canonical by construction) and
  // a delta record. Endpoints decide almost always; the label string is
  // only consulted on an endpoint tie.
  auto cmp = [&](EdgeId e, const EdgeRecord& r) -> int {
    if (prev.sources_[e] != r.from) return prev.sources_[e] < r.from ? -1 : 1;
    if (prev.targets_[e] != r.to) return prev.targets_[e] < r.to ? -1 : 1;
    int c = prev.label_names_[prev.edge_labels_[e]].compare(r.label);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  };

  // Bookkeeping walk over the conceptual merge — no arrays are written
  // yet. Produces: maximal runs of surviving prev edges (memcpy'd
  // below), each edge's id in the new canonical stream, and the first
  // merged-stream position of every label key (the cold build's
  // first-appearance interning order, recovered without per-edge label
  // work).
  struct Segment {
    EdgeId prev_begin;
    EdgeId prev_end;
    EdgeId new_begin;
  };
  std::vector<Segment> segments;
  std::vector<EdgeId> ins_new_id(inserted.size());
  std::vector<EdgeId> prev_new_id(m_prev);
  std::vector<EdgeId> first_pos(num_keys, kUnset);
  EdgeId out_pos = 0;
  bool in_seg = false;
  EdgeId seg_prev = 0;
  EdgeId seg_new = 0;
  auto close_seg = [&](EdgeId end_prev) {
    if (in_seg) {
      segments.push_back(Segment{seg_prev, end_prev, seg_new});
      in_seg = false;
    }
  };
  size_t ii = 0, di = 0;
  for (EdgeId e = 0; e < m_prev; ++e) {
    while (ii < inserted.size() && cmp(e, inserted[ii]) > 0) {
      close_seg(e);
      ins_new_id[ii] = out_pos;
      if (first_pos[ins_keys[ii]] == kUnset) first_pos[ins_keys[ii]] = out_pos;
      ++out_pos;
      ++ii;
    }
    if (di < deleted.size() && cmp(e, deleted[di]) == 0) {
      close_seg(e);
      prev_new_id[e] = kUnset;  // gone from the new epoch
      ++di;
      continue;
    }
    if (!in_seg) {
      in_seg = true;
      seg_prev = e;
      seg_new = out_pos;
    }
    prev_new_id[e] = out_pos;
    const LabelId pl = prev.edge_labels_[e];
    if (first_pos[pl] == kUnset) first_pos[pl] = out_pos;
    ++out_pos;
  }
  close_seg(static_cast<EdgeId>(m_prev));
  for (; ii < inserted.size(); ++ii) {
    ins_new_id[ii] = out_pos;
    if (first_pos[ins_keys[ii]] == kUnset) first_pos[ins_keys[ii]] = out_pos;
    ++out_pos;
  }

  // Dense label table in first-appearance order over the merged stream,
  // with counts by arithmetic instead of per-edge tallies. Keys whose
  // last edge was deleted drop out (first_pos unset).
  std::vector<size_t> key_ins(num_keys, 0);
  std::vector<size_t> key_del(num_keys, 0);
  for (size_t i = 0; i < inserted.size(); ++i) ++key_ins[ins_keys[i]];
  for (const EdgeRecord& r : deleted) ++key_del[key_of.find(r.label)->second];
  std::vector<LabelId> order;
  order.reserve(num_keys);
  for (LabelId k = 0; k < num_keys; ++k) {
    if (first_pos[k] != kUnset) order.push_back(k);
  }
  std::sort(order.begin(), order.end(),
            [&](LabelId a, LabelId b) { return first_pos[a] < first_pos[b]; });
  std::vector<LabelId> key2new(num_keys, kNoLabel);
  snap.label_names_.reserve(order.size());
  snap.label_counts_.reserve(order.size());
  for (LabelId nl = 0; nl < order.size(); ++nl) {
    const LabelId k = order[nl];
    key2new[k] = nl;
    snap.label_names_.push_back(k < prev_labels
                                    ? prev.label_names_[k]
                                    : *novel_names[k - prev_labels]);
    snap.label_counts_.push_back(
        (k < prev_labels ? prev.label_counts_[k] : 0) + key_ins[k] -
        key_del[k]);
  }
  bool identity_remap = true;
  for (LabelId l = 0; identity_remap && l < prev_labels; ++l) {
    identity_remap = key2new[l] == l || key2new[l] == kNoLabel;
  }

  // Flat canonical arrays: surviving runs are block copies; delta
  // records are point writes at their precomputed positions. Labels
  // copy verbatim when the re-map is the identity (the steady state)
  // and remap per edge otherwise.
  snap.sources_.resize(m);
  snap.targets_.resize(m);
  snap.edge_labels_.resize(m);
  for (const Segment& s : segments) {
    const size_t len = s.prev_end - s.prev_begin;
    // memcpy from an empty vector's data() (nullptr) is undefined even
    // for zero bytes.
    if (len == 0) continue;
    std::memcpy(snap.sources_.data() + s.new_begin,
                prev.sources_.data() + s.prev_begin, len * sizeof(NodeId));
    std::memcpy(snap.targets_.data() + s.new_begin,
                prev.targets_.data() + s.prev_begin, len * sizeof(NodeId));
    if (identity_remap) {
      std::memcpy(snap.edge_labels_.data() + s.new_begin,
                  prev.edge_labels_.data() + s.prev_begin,
                  len * sizeof(LabelId));
    } else {
      for (size_t i = 0; i < len; ++i) {
        snap.edge_labels_[s.new_begin + i] =
            key2new[prev.edge_labels_[s.prev_begin + i]];
      }
    }
  }
  for (size_t i = 0; i < inserted.size(); ++i) {
    snap.sources_[ins_new_id[i]] = inserted[i].from;
    snap.targets_[ins_new_id[i]] = inserted[i].to;
    snap.edge_labels_[ins_new_id[i]] = key2new[ins_keys[i]];
  }

  key2new.resize(prev_labels);  // the surviving-label re-map
  snap.BuildViewsFromDelta(prev, prev_new_id, key2new, inserted, ins_new_id,
                           deleted);
  return snap;
}

void CsrSnapshot::BuildViewsFromDelta(
    const CsrSnapshot& prev, const std::vector<EdgeId>& prev_new_id,
    const std::vector<LabelId>& label_remap,
    const std::vector<EdgeRecord>& inserted,
    const std::vector<EdgeId>& ins_new_id,
    const std::vector<EdgeRecord>& deleted) {
  // The untouched-partition copy below replays the previous label sort
  // order, which equals the new order only while the re-map is monotone
  // over surviving labels. A delta can break that (a novel label
  // interned before a surviving label's first appearance moved the
  // dense order); cold-build the views then.
  bool monotone = true;
  bool first = true;
  LabelId last = 0;
  for (LabelId nl : label_remap) {
    if (nl == kNoLabel) continue;  // label's last edge was deleted
    if (!first && nl < last) {
      monotone = false;
      break;
    }
    last = nl;
    first = false;
  }
  if (!monotone) {
    BuildViews();
    return;
  }
  bool identity_remap = true;
  for (LabelId l = 0; identity_remap && l < label_remap.size(); ++l) {
    identity_remap = label_remap[l] == l || label_remap[l] == kNoLabel;
  }

  const size_t n = num_nodes_;
  const size_t m = sources_.size();
  constexpr EdgeId kUnset = std::numeric_limits<EdgeId>::max();
  std::vector<char> out_touched(n, 0);
  std::vector<char> in_touched(n, 0);
  for (const EdgeRecord& r : inserted) {
    out_touched[r.from] = 1;
    in_touched[r.to] = 1;
  }
  for (const EdgeRecord& r : deleted) {
    out_touched[r.from] = 1;
    in_touched[r.to] = 1;
  }

  // Offsets by arithmetic: the previous per-node degrees adjusted by the
  // delta's degree changes — one O(n + |delta|) pass, no O(m) counting
  // scan. (The adjustments can be negative; size_t wrap-around adds are
  // exact because every running degree is nonnegative.)
  std::vector<int32_t> ddeg_out(n, 0);
  std::vector<int32_t> ddeg_in(n, 0);
  for (const EdgeRecord& r : inserted) {
    ++ddeg_out[r.from];
    ++ddeg_in[r.to];
  }
  for (const EdgeRecord& r : deleted) {
    --ddeg_out[r.from];
    --ddeg_in[r.to];
  }
  out_offsets_.resize(n + 1);
  in_offsets_.resize(n + 1);
  size_t oacc = 0, iacc = 0;
  for (NodeId v = 0; v < n; ++v) {
    out_offsets_[v] = oacc;
    in_offsets_[v] = iacc;
    if (v < prev.num_nodes_) {
      oacc += prev.out_offsets_[v + 1] - prev.out_offsets_[v];
      iacc += prev.in_offsets_[v + 1] - prev.in_offsets_[v];
    }
    oacc += static_cast<size_t>(static_cast<int64_t>(ddeg_out[v]));
    iacc += static_cast<size_t>(static_cast<int64_t>(ddeg_in[v]));
  }
  out_offsets_[n] = oacc;
  in_offsets_[n] = iacc;

  // Canonical (from, to, label) order groups the stream by source with
  // ascending edge ids, so the out view is the stream itself.
  out_entries_.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    out_entries_[e] = Entry{e, targets_[e], edge_labels_[e]};
  }

  // In view: a node no delta edge points at replays its previous span
  // with ids remapped (sequential copy, no scatter); a touched node
  // merges its surviving previous entries with the delta's inserts by
  // new edge id. Inserts are canonically sorted and new ids ascend in
  // record order, so grouping by target preserves ascending id within
  // each group.
  in_entries_.resize(m);
  std::vector<std::pair<NodeId, size_t>> ins_by_target(inserted.size());
  for (size_t i = 0; i < inserted.size(); ++i) {
    ins_by_target[i] = {inserted[i].to, i};
  }
  std::stable_sort(
      ins_by_target.begin(), ins_by_target.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // Untouched in-nodes are processed by maximal runs: consecutive
  // untouched spans are contiguous in both the previous and the new
  // entry arrays, so a whole run remaps in one flat loop — the average
  // node span is a handful of entries, far too short to loop per node.
  auto remap_run = [&](const Entry* p, Entry* q, size_t len) {
    if (identity_remap) {
      for (size_t i = 0; i < len; ++i) {
        q[i] = Entry{prev_new_id[p[i].edge], p[i].neighbor, p[i].label};
      }
    } else {
      for (size_t i = 0; i < len; ++i) {
        q[i] = Entry{prev_new_id[p[i].edge], p[i].neighbor,
                     label_remap[p[i].label]};
      }
    }
  };
  size_t ins_lo = 0;
  for (NodeId v = 0; v < n;) {
    if (v < prev.num_nodes_ && !in_touched[v]) {
      const NodeId v0 = v;
      while (v < prev.num_nodes_ && !in_touched[v]) ++v;
      remap_run(prev.in_entries_.data() + prev.in_offsets_[v0],
                in_entries_.data() + in_offsets_[v0],
                prev.in_offsets_[v] - prev.in_offsets_[v0]);
      continue;
    }
    size_t dst = in_offsets_[v];
    const Entry* ps = nullptr;
    const Entry* pe = nullptr;
    if (v < prev.num_nodes_) {
      ps = prev.in_entries_.data() + prev.in_offsets_[v];
      pe = prev.in_entries_.data() + prev.in_offsets_[v + 1];
    }
    size_t ins_hi = ins_lo;
    while (ins_hi < ins_by_target.size() && ins_by_target[ins_hi].first == v) {
      ++ins_hi;
    }
    size_t ic = ins_lo;
    while (true) {
      while (ps != pe && prev_new_id[ps->edge] == kUnset) ++ps;  // deleted
      const bool has_prev = ps != pe;
      const bool has_ins = ic < ins_hi;
      if (!has_prev && !has_ins) break;
      const EdgeId ins_id =
          has_ins ? ins_new_id[ins_by_target[ic].second] : 0;
      if (has_prev && (!has_ins || prev_new_id[ps->edge] < ins_id)) {
        in_entries_[dst++] =
            Entry{prev_new_id[ps->edge], ps->neighbor, label_remap[ps->label]};
        ++ps;
      } else {
        in_entries_[dst++] = Entry{ins_id, sources_[ins_id],
                                   edge_labels_[ins_id]};
        ++ic;
      }
    }
    ins_lo = ins_hi;
    ++v;
  }

  // Label partitions: a node no delta edge touches keeps its previous
  // partition permutation exactly (surviving edge ids shift
  // monotonically, the label re-map is monotone, and stable_sort is
  // deterministic), so its span is a straight copy with ids remapped.
  // Only touched nodes — at most two per delta record — sort.
  out_label_entries_.resize(m);
  in_label_entries_.resize(m);
  // Sortedness at delta cost: an untouched span keeps prev's neighbor
  // runs, so only the re-sorted spans need checking — when prev's
  // property held. Otherwise the closing full check decides.
  bool touched_sorted = true;
  // Stable in-place insertion sort by label: what stable_sort computes,
  // without its per-call temp-buffer allocation — touched spans are
  // node degrees, small by construction.
  auto sort_span = [](Entry* lo, Entry* hi) {
    for (Entry* it = lo + 1; it < hi; ++it) {
      Entry key = *it;
      Entry* j = it;
      while (j > lo && (j - 1)->label > key.label) {
        *j = *(j - 1);
        --j;
      }
      *j = key;
    }
  };
  // Out side, by maximal untouched runs. A node untouched on the out
  // side owns a contiguous canonical-id range that no delta record
  // splits, so prev_new_id is one constant shift over its whole span —
  // and consecutive untouched nodes share that shift. A run is one
  // block copy plus a constant add to the edge field (a straight memcpy
  // when the shift is zero and the label re-map is the identity).
  for (NodeId v = 0; v < n;) {
    if (v < prev.num_nodes_ && !out_touched[v]) {
      const NodeId v0 = v;
      while (v < prev.num_nodes_ && !out_touched[v]) ++v;
      const size_t src = prev.out_offsets_[v0];
      const size_t dst = out_offsets_[v0];
      const size_t len = prev.out_offsets_[v] - src;
      const EdgeId shift =
          static_cast<EdgeId>(dst) - static_cast<EdgeId>(src);  // mod 2^32
      if (len == 0) continue;
      if (shift == 0 && identity_remap) {
        std::memcpy(out_label_entries_.data() + dst,
                    prev.out_label_entries_.data() + src, len * sizeof(Entry));
      } else if (identity_remap) {
        for (size_t i = 0; i < len; ++i) {
          const Entry& p = prev.out_label_entries_[src + i];
          out_label_entries_[dst + i] =
              Entry{static_cast<EdgeId>(p.edge + shift), p.neighbor, p.label};
        }
      } else {
        for (size_t i = 0; i < len; ++i) {
          const Entry& p = prev.out_label_entries_[src + i];
          out_label_entries_[dst + i] = Entry{
              static_cast<EdgeId>(p.edge + shift), p.neighbor,
              label_remap[p.label]};
        }
      }
      continue;
    }
    const size_t dst = out_offsets_[v];
    const size_t len = out_offsets_[v + 1] - dst;
    std::copy(out_entries_.begin() + dst, out_entries_.begin() + dst + len,
              out_label_entries_.begin() + dst);
    sort_span(out_label_entries_.data() + dst,
              out_label_entries_.data() + dst + len);
    touched_sorted = touched_sorted &&
                     RunsSorted(out_label_entries_.data() + dst,
                                out_label_entries_.data() + dst + len);
    ++v;
  }

  // In side: a node's in-span ids are scattered across the stream, so
  // untouched spans remap per entry through prev_new_id — but still by
  // maximal runs (contiguous in both arrays), one flat loop per run.
  for (NodeId v = 0; v < n;) {
    if (v < prev.num_nodes_ && !in_touched[v]) {
      const NodeId v0 = v;
      while (v < prev.num_nodes_ && !in_touched[v]) ++v;
      remap_run(prev.in_label_entries_.data() + prev.in_offsets_[v0],
                in_label_entries_.data() + in_offsets_[v0],
                prev.in_offsets_[v] - prev.in_offsets_[v0]);
      continue;
    }
    const size_t idst = in_offsets_[v];
    const size_t ilen = in_offsets_[v + 1] - idst;
    std::copy(in_entries_.begin() + idst, in_entries_.begin() + idst + ilen,
              in_label_entries_.begin() + idst);
    sort_span(in_label_entries_.data() + idst,
              in_label_entries_.data() + idst + ilen);
    touched_sorted = touched_sorted &&
                     RunsSorted(in_label_entries_.data() + idst,
                                in_label_entries_.data() + idst + ilen);
    ++v;
  }
  label_spans_sorted_ = prev.label_spans_sorted_ ? touched_sorted
                                                 : AllLabelSpansSorted();
}

size_t CsrSnapshot::LabelFrequency(std::string_view name) const {
  std::optional<LabelId> l = FindLabel(name);
  return l.has_value() ? label_counts_[*l] : 0;
}

std::optional<LabelId> CsrSnapshot::FindLabel(std::string_view name) const {
  for (LabelId l = 0; l < label_names_.size(); ++l) {
    if (l != null_label_ && label_names_[l] == name) return l;
  }
  return std::nullopt;
}

CsrSnapshot::Span CsrSnapshot::ForLabel(const std::vector<Entry>& entries,
                                        const std::vector<size_t>& offsets,
                                        NodeId n, LabelId l) const {
  const Entry* lo = entries.data() + offsets[n];
  const Entry* hi = entries.data() + offsets[n + 1];
  auto [first, last] = std::equal_range(
      lo, hi, Entry{0, 0, l},
      [](const Entry& a, const Entry& b) { return a.label < b.label; });
  return {first, static_cast<size_t>(last - first)};
}

std::vector<CsrSnapshot::EdgeRecord> CsrSnapshot::ToEdgeList() const {
  std::vector<EdgeRecord> out(sources_.size());
  for (EdgeId e = 0; e < sources_.size(); ++e) {
    out[e] = EdgeRecord{sources_[e], targets_[e],
                        label_names_[edge_labels_[e]]};
  }
  return out;
}

}  // namespace kgq
