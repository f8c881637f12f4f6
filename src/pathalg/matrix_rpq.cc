#include "pathalg/matrix_rpq.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.h"

namespace kgq {

// ---------------------------------------------------------------------
// BoolCsr

BoolCsr BoolCsr::FromEntries(size_t rows, size_t cols,
                             std::vector<std::pair<uint32_t, uint32_t>> es) {
  std::sort(es.begin(), es.end());
  es.erase(std::unique(es.begin(), es.end()), es.end());
  BoolCsr out;
  out.num_rows = rows;
  out.num_cols = cols;
  out.offsets.assign(rows + 1, 0);
  out.cols.reserve(es.size());
  for (const auto& [r, c] : es) ++out.offsets[r + 1];
  for (size_t i = 1; i <= rows; ++i) out.offsets[i] += out.offsets[i - 1];
  for (const auto& [r, c] : es) out.cols.push_back(c);
  return out;
}

BoolCsr BoolCsr::Identity(size_t n) {
  BoolCsr out;
  out.num_rows = n;
  out.num_cols = n;
  out.offsets.resize(n + 1);
  out.cols.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.offsets[i] = i;
    out.cols[i] = static_cast<uint32_t>(i);
  }
  out.offsets[n] = n;
  return out;
}

BoolCsr BoolCsr::FromSnapshotLabel(const CsrSnapshot& snap, LabelId label,
                                   bool transpose) {
  std::vector<std::pair<uint32_t, uint32_t>> es;
  es.reserve(snap.CountForLabel(label));
  for (NodeId n = 0; n < snap.num_nodes(); ++n) {
    CsrSnapshot::Span part =
        transpose ? snap.InForLabel(n, label) : snap.OutForLabel(n, label);
    for (const CsrSnapshot::Entry& e : part) {
      es.emplace_back(static_cast<uint32_t>(n), e.neighbor);
    }
  }
  return FromEntries(snap.num_nodes(), snap.num_nodes(), std::move(es));
}

BoolCsr BoolCsrForLabel(const CsrSnapshot& snap, std::string_view label,
                        bool transpose) {
  std::optional<LabelId> id = snap.FindLabel(label);
  if (!id.has_value()) {
    return BoolCsr::FromEntries(snap.num_nodes(), snap.num_nodes(), {});
  }
  return BoolCsr::FromSnapshotLabel(snap, *id, transpose);
}

bool BoolCsr::Test(size_t r, size_t c) const {
  const uint32_t* lo = cols.data() + offsets[r];
  const uint32_t* hi = cols.data() + offsets[r + 1];
  return std::binary_search(lo, hi, static_cast<uint32_t>(c));
}

BoolCsr BoolSpGemm(const BoolCsr& a, const BoolCsr& b,
                   const BoolCsr* complement_mask,
                   const ParallelOptions& par) {
  BoolCsr out;
  out.num_rows = a.num_rows;
  out.num_cols = b.num_cols;
  out.offsets.assign(a.num_rows + 1, 0);

  // Gustavson, parallel over output rows: row i of C is the union of
  // the B-rows selected by row i of A, accumulated in a bitmap and
  // extracted in ascending column order — the output is canonical CSR
  // for every schedule. Rows are stitched after a prefix sum.
  std::vector<std::vector<uint32_t>> row_cols(a.num_rows);
  size_t grain = std::max<size_t>(1, (a.num_rows + 255) / 256);
  ParallelFor(
      0, a.num_rows, grain,
      [&](size_t lo, size_t hi) {
        Bitset acc(b.num_cols);
        [[maybe_unused]] size_t entries = 0, word_ops = 0;
        for (size_t i = lo; i < hi; ++i) {
          acc.ClearAll();
          for (size_t k = a.offsets[i]; k < a.offsets[i + 1]; ++k) {
            uint32_t mid = a.cols[k];
            for (size_t j = b.offsets[mid]; j < b.offsets[mid + 1]; ++j) {
              acc.Set(b.cols[j]);
              ++word_ops;
            }
            entries += b.offsets[mid + 1] - b.offsets[mid];
          }
          std::vector<uint32_t>& row = row_cols[i];
          acc.ForEach([&](size_t c) {
            if (complement_mask != nullptr && complement_mask->Test(i, c)) {
              return;
            }
            row.push_back(static_cast<uint32_t>(c));
          });
        }
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_ADD("matrix_rpq.spgemm.entries", entries);
          KGQ_COUNTER_ADD("matrix_rpq.spgemm.word_ops", word_ops);
        }
      },
      par);

  for (size_t i = 0; i < a.num_rows; ++i) {
    out.offsets[i + 1] = out.offsets[i] + row_cols[i].size();
  }
  out.cols.resize(out.offsets[a.num_rows]);
  for (size_t i = 0; i < a.num_rows; ++i) {
    std::copy(row_cols[i].begin(), row_cols[i].end(),
              out.cols.begin() + out.offsets[i]);
  }
  return out;
}

BoolCsr BoolSpGemmDelta(const BoolCsr& frontier, const BoolCsr& adj,
                        const BoolCsr& visited, const ParallelOptions& par) {
  BoolCsr out;
  out.num_rows = frontier.num_rows;
  out.num_cols = adj.num_cols;
  out.offsets.assign(frontier.num_rows + 1, 0);

  // Bit-identical to BoolSpGemm(frontier, adj, &visited) — same
  // Gustavson accumulation, same mask — but the accumulator is only
  // cleared for *nonempty* frontier rows, so a sparse frontier costs
  // its own nnz, not one bitmap wipe per matrix row.
  std::vector<std::vector<uint32_t>> row_cols(frontier.num_rows);
  size_t grain = std::max<size_t>(1, (frontier.num_rows + 255) / 256);
  ParallelFor(
      0, frontier.num_rows, grain,
      [&](size_t lo, size_t hi) {
        Bitset acc(adj.num_cols);
        [[maybe_unused]] size_t entries = 0, word_ops = 0, delta_rows = 0;
        for (size_t i = lo; i < hi; ++i) {
          if (frontier.offsets[i] == frontier.offsets[i + 1]) continue;
          ++delta_rows;
          acc.ClearAll();
          for (size_t k = frontier.offsets[i]; k < frontier.offsets[i + 1];
               ++k) {
            uint32_t mid = frontier.cols[k];
            for (size_t j = adj.offsets[mid]; j < adj.offsets[mid + 1]; ++j) {
              acc.Set(adj.cols[j]);
              ++word_ops;
            }
            entries += adj.offsets[mid + 1] - adj.offsets[mid];
          }
          std::vector<uint32_t>& row = row_cols[i];
          acc.ForEach([&](size_t c) {
            if (visited.Test(i, c)) return;
            row.push_back(static_cast<uint32_t>(c));
          });
        }
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_ADD("matrix_rpq.spgemm.entries", entries);
          KGQ_COUNTER_ADD("matrix_rpq.spgemm.word_ops", word_ops);
          KGQ_COUNTER_ADD("matrix_rpq.spgemm.delta_rows", delta_rows);
        }
      },
      par);

  for (size_t i = 0; i < frontier.num_rows; ++i) {
    out.offsets[i + 1] = out.offsets[i] + row_cols[i].size();
  }
  out.cols.resize(out.offsets[frontier.num_rows]);
  for (size_t i = 0; i < frontier.num_rows; ++i) {
    std::copy(row_cols[i].begin(), row_cols[i].end(),
              out.cols.begin() + out.offsets[i]);
  }
  return out;
}

BoolCsr BoolUnion(const BoolCsr& a, const BoolCsr& b) {
  BoolCsr out;
  out.num_rows = a.num_rows;
  out.num_cols = a.num_cols;
  out.offsets.assign(a.num_rows + 1, 0);
  out.cols.reserve(a.nnz() + b.nnz());
  for (size_t i = 0; i < a.num_rows; ++i) {
    size_t ai = a.offsets[i], ae = a.offsets[i + 1];
    size_t bi = b.offsets[i], be = b.offsets[i + 1];
    while (ai < ae || bi < be) {
      uint32_t c;
      if (bi >= be || (ai < ae && a.cols[ai] <= b.cols[bi])) {
        c = a.cols[ai++];
        if (bi < be && b.cols[bi] == c) ++bi;
      } else {
        c = b.cols[bi++];
      }
      out.cols.push_back(c);
    }
    out.offsets[i + 1] = out.cols.size();
  }
  return out;
}

Bitset BoolSpMv(const BoolCsr& a, const Bitset& x,
                const Bitset* complement_mask) {
  Bitset y(a.num_rows);
  [[maybe_unused]] size_t entries = 0;
  for (size_t i = 0; i < a.num_rows; ++i) {
    entries += a.offsets[i + 1] - a.offsets[i];
    for (size_t k = a.offsets[i]; k < a.offsets[i + 1]; ++k) {
      if (x.Test(a.cols[k])) {
        if (complement_mask == nullptr || !complement_mask->Test(i)) {
          y.Set(i);
        }
        break;
      }
    }
  }
  KGQ_COUNTER_ADD("matrix_rpq.spgemm.entries", entries);
  return y;
}

// ---------------------------------------------------------------------
// BitMatrix

bool BitMatrix::RowAny(size_t r) const {
  const uint64_t* row = Row(r);
  for (size_t w = 0; w < words_per_row_; ++w) {
    if (row[w] != 0) return true;
  }
  return false;
}

void BitMatrix::ZeroRow(size_t r) {
  std::memset(Row(r), 0, words_per_row_ * sizeof(uint64_t));
}

void BitMatrix::ZeroAll() {
  std::fill(words_.begin(), words_.end(), 0);
}

// ---------------------------------------------------------------------
// Product-graph fixpoint

namespace {

/// Reverse transition: state `from` reaches the owning state across
/// atoms of class `cls` (label partition `label` when kLabel).
struct InTrans {
  uint32_t from;
  uint32_t atom;
  bool backward;
  PathNfa::AtomClass cls;
  LabelId label;
};

/// dst |= src over one row; returns the word count (the boolean flops).
inline size_t OrWords(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
  return words;
}

/// The product-graph fixpoint: per automaton state, the nodes ×
/// sources bits of every configuration reached.
std::vector<BitMatrix> Fixpoint(const PathNfa& nfa,
                                const std::vector<NodeId>& sources,
                                const PathQueryOptions& opts) {
  const CsrSnapshot& csr = nfa.snapshot();
  KGQ_SPAN("matrix_rpq.eval");
  const size_t num_nodes = nfa.num_nodes();
  const size_t num_q = nfa.num_states();
  const size_t num_src = sources.size();
  const size_t words = (num_src + 63) / 64;

  // Per automaton state: everything reached (visited), the bits new in
  // the previous generation (frontier), and the product accumulator of
  // the current generation (next). Rows are nodes, columns sources.
  std::vector<BitMatrix> visited(num_q), frontier(num_q), next(num_q);
  for (size_t q = 0; q < num_q; ++q) {
    visited[q] = BitMatrix(num_nodes, num_src);
    frontier[q] = BitMatrix(num_nodes, num_src);
    next[q] = BitMatrix(num_nodes, num_src);
  }
  // active[q][n] = 1 iff frontier[q] row n is nonzero — the sparsity
  // the gather consults before touching a row's words. Bytes, not bits:
  // parallel writers own disjoint rows but could share a bitset word.
  std::vector<std::vector<uint8_t>> active(
      num_q, std::vector<uint8_t>(num_nodes, 0));

  bool any = false;
  for (size_t si = 0; si < num_src; ++si) {
    NodeId s = sources[si];
    if (s >= num_nodes) continue;
    // The per-source restrictions ReachableFrom applies before its BFS.
    if (opts.avoid != kNoNode && s == opts.avoid) continue;
    if (opts.start != kNoNode && s != opts.start) continue;
    PathNfa::StateMask m = nfa.StartMask(s);  // ε-closed, never 0.
    while (m != 0) {
      uint32_t q = static_cast<uint32_t>(__builtin_ctzll(m));
      m &= m - 1;
      visited[q].Set(s, si);
      frontier[q].Set(s, si);
      active[q][s] = 1;
      any = true;
    }
  }

  // Reverse transition lists: everything flowing *into* state q', with
  // atoms pre-classified against the snapshot. The gather below runs
  // over destination rows, so a forward atom reads the in-view (edges
  // arriving at the row's node) and a backward atom the out-view —
  // self-loops appear in both views, which is exactly the "a self-loop
  // fires both directions" step semantics of ForEachSuccessor.
  std::vector<std::vector<InTrans>> into(num_q);
  for (const PathNfa::TransitionView& t : nfa.Transitions()) {
    PathNfa::AtomClass cls = nfa.ClassifyAtom(t.atom);
    if (cls == PathNfa::AtomClass::kDead) continue;
    LabelId lab = cls == PathNfa::AtomClass::kLabel
                      ? nfa.AtomSnapshotLabel(t.atom)
                      : kNoLabel;
    into[t.to].push_back({t.from, t.atom, t.backward, cls, lab});
  }

  // Per-signature ε-closure pairs (q1 → q2, q2 ≠ q1): at any node with
  // that signature, bits arriving in q1 also belong to q2. Rows are
  // transitively closed, so one in-place pass per generation saturates.
  const size_t num_sigs = nfa.NumClosureSignatures();
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> sig_pairs(num_sigs);
  for (uint32_t sig = 0; sig < num_sigs; ++sig) {
    for (uint32_t q1 = 0; q1 < num_q; ++q1) {
      PathNfa::StateMask m = nfa.SignatureClosure(sig, q1) & ~(1ull << q1);
      while (m != 0) {
        uint32_t q2 = static_cast<uint32_t>(__builtin_ctzll(m));
        m &= m - 1;
        sig_pairs[sig].emplace_back(q1, q2);
      }
    }
  }

  size_t grain = std::max<size_t>(16, (num_nodes + 255) / 256);
  size_t iterations = 0;
  while (any) {
    ++iterations;
    for (size_t q = 0; q < num_q; ++q) next[q].ZeroAll();

    // Product sweep: next[q'] |= A_atomᵀ · frontier[q] per transition,
    // gathered per destination row (each row owned by one chunk).
    ParallelFor(
        0, num_nodes, grain,
        [&](size_t lo, size_t hi) {
          [[maybe_unused]] size_t entries = 0, word_ops = 0;
          for (NodeId n = lo; n < hi; ++n) {
            if (opts.avoid != kNoNode && n == opts.avoid) continue;
            for (size_t qd = 0; qd < num_q; ++qd) {
              uint64_t* dst = next[qd].Row(n);
              for (const InTrans& t : into[qd]) {
                const std::vector<uint8_t>& act = active[t.from];
                const BitMatrix& src = frontier[t.from];
                if (t.cls == PathNfa::AtomClass::kLabel) {
                  CsrSnapshot::Span part = t.backward
                                               ? csr.OutForLabel(n, t.label)
                                               : csr.InForLabel(n, t.label);
                  entries += part.size();
                  for (const CsrSnapshot::Entry& e : part) {
                    if (!act[e.neighbor]) continue;
                    word_ops += OrWords(dst, src.Row(e.neighbor), words);
                  }
                } else {
                  CsrSnapshot::Span adj =
                      t.backward ? csr.Out(n) : csr.In(n);
                  entries += adj.size();
                  for (const CsrSnapshot::Entry& e : adj) {
                    if (!act[e.neighbor]) continue;
                    if (!nfa.AtomMatchesEdge(t.atom, e.edge)) continue;
                    word_ops += OrWords(dst, src.Row(e.neighbor), words);
                  }
                }
              }
            }
          }
          if (KGQ_OBS_ON()) {
            KGQ_COUNTER_ADD("matrix_rpq.spgemm.entries", entries);
            KGQ_COUNTER_ADD("matrix_rpq.spgemm.word_ops", word_ops);
          }
        },
        opts.parallel);

    // ε-closure + complement masking against visited, per row: the new
    // frontier is close(next) ∧ ¬visited; visited absorbs it. Each row
    // is owned by one chunk; `fresh` is exact, so `changed` converges
    // to the same value for every schedule.
    std::vector<uint8_t> chunk_changed(num_nodes, 0);
    ParallelFor(
        0, num_nodes, grain,
        [&](size_t lo, size_t hi) {
          [[maybe_unused]] size_t word_ops = 0;
          for (NodeId n = lo; n < hi; ++n) {
            for (const auto& [q1, q2] : sig_pairs[nfa.ClosureSignatureOf(n)]) {
              word_ops += OrWords(next[q2].Row(n), next[q1].Row(n), words);
            }
            for (size_t q = 0; q < num_q; ++q) {
              uint64_t* fr = frontier[q].Row(n);
              uint64_t* vis = visited[q].Row(n);
              const uint64_t* nx = next[q].Row(n);
              uint64_t row_any = 0;
              for (size_t w = 0; w < words; ++w) {
                uint64_t fresh = nx[w] & ~vis[w];
                fr[w] = fresh;
                vis[w] |= fresh;
                row_any |= fresh;
              }
              word_ops += 2 * words;
              active[q][n] = row_any != 0 ? 1 : 0;
              if (row_any != 0) chunk_changed[n] = 1;
            }
          }
          if (KGQ_OBS_ON()) {
            KGQ_COUNTER_ADD("matrix_rpq.spgemm.word_ops", word_ops);
          }
        },
        opts.parallel);
    any = std::find(chunk_changed.begin(), chunk_changed.end(), 1) !=
          chunk_changed.end();
  }
  KGQ_HISTOGRAM_RECORD("matrix_rpq.fixpoint_iterations", iterations);

  return visited;
}

/// Calls fn(si, n) for every source si that reaches node n in some
/// accepting state (only n == opts.end when set), nodes ascending.
template <typename Fn>
void ForEachHit(const PathNfa& nfa, const std::vector<BitMatrix>& visited,
                const PathQueryOptions& opts, Fn&& fn) {
  const size_t words = visited.empty() ? 0 : visited[0].words_per_row();
  std::vector<uint64_t> hits(words);
  for (NodeId n = 0; n < nfa.num_nodes(); ++n) {
    if (opts.end != kNoNode && n != opts.end) continue;
    std::fill(hits.begin(), hits.end(), 0);
    PathNfa::StateMask fm = nfa.final_mask();
    while (fm != 0) {
      uint32_t q = static_cast<uint32_t>(__builtin_ctzll(fm));
      fm &= fm - 1;
      OrWords(hits.data(), visited[q].Row(n), words);
    }
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t word = hits[w]; word != 0; word &= word - 1) {
        fn(w * 64 + static_cast<size_t>(__builtin_ctzll(word)), n);
      }
    }
  }
}

}  // namespace

BoolCsr MatrixPairRelation(const PathNfa& nfa,
                           const std::vector<NodeId>& sources,
                           const PathQueryOptions& opts) {
  const std::vector<BitMatrix> visited = Fixpoint(nfa, sources, opts);
  // Node-major harvest in two passes: the first sizes each source's
  // row, the second fills it; nodes ascend, so every row comes out
  // sorted.
  const size_t num_src = sources.size();
  BoolCsr out;
  out.num_rows = num_src;
  out.num_cols = nfa.num_nodes();
  out.offsets.assign(num_src + 1, 0);
  ForEachHit(nfa, visited, opts, [&](size_t si, NodeId) {
    ++out.offsets[si + 1];
  });
  for (size_t si = 0; si < num_src; ++si) {
    out.offsets[si + 1] += out.offsets[si];
  }
  out.cols.resize(out.offsets[num_src]);
  std::vector<size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  ForEachHit(nfa, visited, opts, [&](size_t si, NodeId n) {
    out.cols[cursor[si]++] = n;
  });
  return out;
}

std::vector<Bitset> MatrixReachFromAll(const PathNfa& nfa,
                                       const std::vector<NodeId>& sources,
                                       const PathQueryOptions& opts) {
  const std::vector<BitMatrix> visited = Fixpoint(nfa, sources, opts);
  std::vector<Bitset> out(sources.size(), Bitset(nfa.num_nodes()));
  ForEachHit(nfa, visited, opts, [&](size_t si, NodeId n) { out[si].Set(n); });
  return out;
}

Bitset MatrixReachableFrom(const PathNfa& nfa, NodeId start,
                           const PathQueryOptions& opts) {
  return std::move(MatrixReachFromAll(nfa, {start}, opts)[0]);
}

std::vector<Bitset> MatrixAllPairs(const PathNfa& nfa,
                                   const PathQueryOptions& opts) {
  std::vector<NodeId> sources(nfa.num_nodes());
  for (NodeId n = 0; n < sources.size(); ++n) sources[n] = n;
  return MatrixReachFromAll(nfa, sources, opts);
}

void MatrixReachTableLayers(const PathNfa& nfa, size_t max_len,
                            const PathQueryOptions& opts,
                            std::vector<PathNfa::StateMask>* table) {
  KGQ_SPAN("matrix_rpq.reach_table");
  const CsrSnapshot& csr = nfa.snapshot();
  const size_t num_nodes = nfa.num_nodes();
  const size_t num_q = nfa.num_states();

  // Layer 0: identical to the scalar construction — final states at
  // nodes passing the end/avoid restrictions.
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (opts.avoid != kNoNode && n == opts.avoid) continue;
    if (opts.end != kNoNode && n != opts.end) continue;
    (*table)[n] = nfa.final_mask();
  }

  struct FlatTrans {
    uint32_t from;
    uint32_t to;
    uint32_t atom;
    bool backward;
    PathNfa::AtomClass cls;
    LabelId label;
  };
  std::vector<FlatTrans> trans;
  for (const PathNfa::TransitionView& t : nfa.Transitions()) {
    PathNfa::AtomClass cls = nfa.ClassifyAtom(t.atom);
    if (cls == PathNfa::AtomClass::kDead) continue;
    LabelId lab = cls == PathNfa::AtomClass::kLabel
                      ? nfa.AtomSnapshotLabel(t.atom)
                      : kNoLabel;
    trans.push_back({t.from, t.to, t.atom, t.backward, cls, lab});
  }

  size_t grain = std::max<size_t>(16, (num_nodes + 255) / 256);
  std::vector<PathNfa::StateMask> closed_goal(num_nodes, 0);
  for (size_t j = 1; j <= max_len; ++j) {
    const PathNfa::StateMask* goal = table->data() + (j - 1) * num_nodes;
    // closed_goal[v] = { p : closure of {p} at v intersects goal(v) } —
    // distributing the ε-closure of Advance over the product: a
    // transition into raw state p finishes at v iff p ∈ closed_goal(v).
    ParallelFor(
        0, num_nodes, grain,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            PathNfa::StateMask cg = 0;
            if (goal[v] != 0) {
              uint32_t sig = nfa.ClosureSignatureOf(v);
              for (uint32_t p = 0; p < num_q; ++p) {
                if (nfa.SignatureClosure(sig, p) & goal[v]) cg |= 1ull << p;
              }
            }
            closed_goal[v] = cg;
          }
        },
        opts.parallel);

    // Layer j: state q finishes in j steps from n iff some transition
    // of q crosses an edge into a node whose closed goal holds the
    // transition's target. One sparse product per transition; forward
    // atoms scan the out-view (self-loops included), backward the
    // in-view — the Advance direction semantics.
    PathNfa::StateMask* layer = table->data() + j * num_nodes;
    ParallelFor(
        0, num_nodes, grain,
        [&](size_t lo, size_t hi) {
          [[maybe_unused]] size_t entries = 0;
          for (NodeId n = lo; n < hi; ++n) {
            if (opts.avoid != kNoNode && n == opts.avoid) continue;
            PathNfa::StateMask result = 0;
            for (const FlatTrans& t : trans) {
              if (result & (1ull << t.from)) continue;
              if (t.cls == PathNfa::AtomClass::kLabel) {
                CsrSnapshot::Span part = t.backward
                                             ? csr.InForLabel(n, t.label)
                                             : csr.OutForLabel(n, t.label);
                entries += part.size();
                for (const CsrSnapshot::Entry& e : part) {
                  if (opts.avoid != kNoNode && e.neighbor == opts.avoid) {
                    continue;
                  }
                  if (closed_goal[e.neighbor] & (1ull << t.to)) {
                    result |= 1ull << t.from;
                    break;
                  }
                }
              } else {
                CsrSnapshot::Span adj = t.backward ? csr.In(n) : csr.Out(n);
                entries += adj.size();
                for (const CsrSnapshot::Entry& e : adj) {
                  if (opts.avoid != kNoNode && e.neighbor == opts.avoid) {
                    continue;
                  }
                  if (!nfa.AtomMatchesEdge(t.atom, e.edge)) continue;
                  if (closed_goal[e.neighbor] & (1ull << t.to)) {
                    result |= 1ull << t.from;
                    break;
                  }
                }
              }
            }
            layer[n] = result;
          }
          if (KGQ_OBS_ON()) {
            KGQ_COUNTER_ADD("matrix_rpq.spgemm.entries", entries);
          }
        },
        opts.parallel);
  }
}

}  // namespace kgq
