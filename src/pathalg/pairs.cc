#include "pathalg/pairs.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace kgq {
namespace {

/// Sources in the kAuto sample: one frontier word of the matrix engine.
constexpr size_t kSampleSources = 64;

/// One thread's search state, reused across the sources of a call.
/// Between sources `seen` is all-zero and `touched` empty: a search
/// records each node it makes nonzero and clears exactly those.
/// `targets` holds the current source's row; `tally` counts the
/// successor scans of the searches since it was last flushed.
struct BfsScratch {
  explicit BfsScratch(size_t num_nodes) : seen(num_nodes, 0) {}
  std::vector<PathNfa::StateMask> seen;
  std::vector<NodeId> touched;
  std::vector<std::pair<NodeId, uint32_t>> frontier;
  std::vector<uint32_t> targets;
  PathNfa::SuccessorTally tally;
};

/// Lends a BfsScratch to each running chunk of one call. A new one is
/// made only while every existing one is lent out, so a call holds at
/// most one per participating thread. Return flushes the chunk's
/// successor tally to the registry.
class ScratchPool {
 public:
  explicit ScratchPool(size_t num_nodes) : num_nodes_(num_nodes) {}

  std::unique_ptr<BfsScratch> Borrow() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<BfsScratch>(num_nodes_);
    std::unique_ptr<BfsScratch> scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void Return(std::unique_ptr<BfsScratch> scratch) {
    scratch->tally.Flush();
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  const size_t num_nodes_;
  std::mutex mu_;
  std::vector<std::unique_ptr<BfsScratch>> free_;
};

/// Saturating product BFS from `start`. Appends each node reached in a
/// final state to `targets` — once, in discovery order, and only
/// opts.end when that is set — and returns the number of nodes visited.
/// Honors opts.start and opts.avoid; leaves `s` clean for the next
/// source.
///
/// Existential semantics only asks whether *some* run reaches a final
/// state, so a BFS over single product states (node, q) suffices — no
/// subset construction, O(n·|Q|) states at most. Expansion goes per
/// automaton state (ForEachSuccessor): over a view's CSR, each
/// pure-label transition scans one contiguous per-label range.
/// Saturation makes the discovery order irrelevant — `seen` converges
/// to the same fixpoint as the step-at-a-time reference.
size_t Search(const PathNfa& nfa, NodeId start, const PathQueryOptions& opts,
              BfsScratch* s, std::vector<uint32_t>* targets) {
  const NodeId avoid = opts.avoid, end = opts.end;
  if (avoid != kNoNode && start == avoid) return 0;
  if (opts.start != kNoNode && start != opts.start) return 0;
  std::vector<PathNfa::StateMask>& seen = s->seen;
  std::vector<NodeId>& touched = s->touched;
  std::vector<std::pair<NodeId, uint32_t>>& frontier = s->frontier;
  const PathNfa::StateMask final_mask = nfa.final_mask();
  auto push = [&](NodeId n, PathNfa::StateMask mask) {
    const PathNfa::StateMask old = seen[n];
    PathNfa::StateMask fresh = mask & ~old;
    if (fresh == 0) return;
    if (old == 0) touched.push_back(n);
    seen[n] = old | fresh;
    if ((fresh & final_mask) != 0 && (old & final_mask) == 0 &&
        (end == kNoNode || n == end)) {
      targets->push_back(n);
    }
    while (fresh != 0) {
      uint32_t q = static_cast<uint32_t>(__builtin_ctzll(fresh));
      fresh &= fresh - 1;
      frontier.emplace_back(n, q);
    }
  };
  push(start, nfa.StartMask(start));
  while (!frontier.empty()) {
    auto [n, q] = frontier.back();
    frontier.pop_back();
    nfa.ForEachSuccessor(n, q, &s->tally, [&](NodeId to, uint32_t to_state) {
      if (avoid != kNoNode && to == avoid) return;
      push(to, nfa.CloseAt(to, 1ull << to_state));
    });
  }
  const size_t visited = touched.size();
  for (NodeId n : touched) seen[n] = 0;
  touched.clear();
  return visited;
}

/// Which sources a multi-source call searches — every node, or only
/// opts.start — cut into parallel chunks.
struct SourceChunks {
  SourceChunks(size_t num_nodes, NodeId start) : hi(num_nodes) {
    if (start != kNoNode) {
      lo = std::min<size_t>(start, num_nodes);
      hi = std::min<size_t>(lo + 1, num_nodes);
    }
    grain = std::max<size_t>(1, (hi - lo + 127) / 128);
    count = (hi - lo + grain - 1) / grain;
  }
  size_t lo = 0, hi = 0, grain = 1, count = 0;
};

/// The kAuto sample: NFA rows of sources 0, stride, 2·stride, …,
/// searched in order on the calling thread until kSampleSources are
/// done or their visited nodes total n. Empty unless taken.
struct Sample {
  size_t stride = 1;
  std::vector<std::vector<uint32_t>> rows;
  size_t visited = 0;

  /// Copies source a's row into `out` when the sample holds it.
  bool CopyRow(NodeId a, std::vector<uint32_t>* out) const {
    if (a % stride != 0 || a / stride >= rows.size()) return false;
    *out = rows[a / stride];
    return true;
  }
};

/// Resolves opts.engine for a multi-source call to kNfa or kMatrix.
/// The matrix engine needs every node as a source (no start
/// restriction); kAuto also needs the sample, which it leaves in
/// `sample` for the NFA engine to reuse.
PathEngine ChooseEngine(const PathNfa& nfa, const PathQueryOptions& opts,
                        ScratchPool* pool, Sample* sample) {
  if (opts.engine == PathEngine::kNfa) return PathEngine::kNfa;
  const bool usable = opts.start == kNoNode;
  if (opts.engine == PathEngine::kMatrix) {
    return usable ? PathEngine::kMatrix : PathEngine::kNfa;
  }
  const size_t n = nfa.num_nodes();
  bool dense = false;
  if (usable && n >= kSampleSources) {
    sample->stride = n / kSampleSources;
    std::unique_ptr<BfsScratch> scratch = pool->Borrow();
    for (size_t i = 0; i < kSampleSources && sample->visited < n; ++i) {
      sample->rows.emplace_back();
      sample->visited +=
          Search(nfa, static_cast<NodeId>(i * sample->stride), opts,
                 scratch.get(), &sample->rows.back());
    }
    pool->Return(std::move(scratch));
    KGQ_COUNTER_ADD("pathalg.auto.sampled_sources", sample->rows.size());
    // Mean reach ≥ n / 64, without the division.
    dense = sample->visited * kSampleSources >= n * sample->rows.size();
  }
  if (dense) {
    KGQ_COUNTER_INC("pathalg.auto.matrix");
    return PathEngine::kMatrix;
  }
  KGQ_COUNTER_INC("pathalg.auto.nfa");
  return PathEngine::kNfa;
}

/// The NFA engine over `chunks`: calls row(chunk, a, targets) with each
/// source's targets in discovery order (the callback may reorder them),
/// searching every source the sample does not hold. Chunks run in
/// parallel, each borrowing one scratch; a row callback must write only
/// state owned by its source or chunk, so the schedule cannot change
/// the result.
template <typename RowFn>
void ForEachNfaRow(const PathNfa& nfa, const PathQueryOptions& opts,
                   const SourceChunks& chunks, const Sample& sample,
                   ScratchPool* pool, RowFn&& row) {
  ParallelFor(
      0, chunks.count, 1,
      [&](size_t c_lo, size_t c_hi) {
        std::unique_ptr<BfsScratch> scratch = pool->Borrow();
        std::vector<uint32_t>& targets = scratch->targets;
        for (size_t c = c_lo; c < c_hi; ++c) {
          const size_t first = chunks.lo + c * chunks.grain;
          const size_t last = std::min(chunks.hi, first + chunks.grain);
          for (size_t a = first; a < last; ++a) {
            const NodeId source = static_cast<NodeId>(a);
            if (!sample.CopyRow(source, &targets)) {
              targets.clear();
              Search(nfa, source, opts, scratch.get(), &targets);
            }
            row(c, source, targets);
          }
        }
        pool->Return(std::move(scratch));
      },
      opts.parallel);
}

std::vector<NodeId> AllSources(size_t num_nodes) {
  std::vector<NodeId> sources(num_nodes);
  std::iota(sources.begin(), sources.end(), NodeId{0});
  return sources;
}

}  // namespace

Bitset ReachableFrom(const PathNfa& nfa, NodeId start,
                     const PathQueryOptions& opts) {
  if (opts.engine == PathEngine::kMatrix) {
    return MatrixReachableFrom(nfa, start, opts);
  }
  Bitset out(nfa.num_nodes());
  BfsScratch scratch(nfa.num_nodes());
  Search(nfa, start, opts, &scratch, &scratch.targets);
  scratch.tally.Flush();
  for (uint32_t b : scratch.targets) out.Set(b);
  return out;
}

BoolCsr PairRelation(const PathNfa& nfa, const PathQueryOptions& opts,
                     PathEngine* ran) {
  const size_t n = nfa.num_nodes();
  ScratchPool pool(n);
  Sample sample;
  if (ChooseEngine(nfa, opts, &pool, &sample) == PathEngine::kMatrix) {
    if (ran != nullptr) *ran = PathEngine::kMatrix;
    return MatrixPairRelation(nfa, AllSources(n), opts);
  }
  if (ran != nullptr) *ran = PathEngine::kNfa;
  // Each chunk appends its rows to its own buffer; the buffers are
  // concatenated in chunk order once every row's length is known.
  const SourceChunks chunks(n, opts.start);
  std::vector<std::vector<uint32_t>> chunk_cols(chunks.count);
  BoolCsr out;
  out.num_rows = n;
  out.num_cols = n;
  out.offsets.assign(n + 1, 0);
  ForEachNfaRow(nfa, opts, chunks, sample, &pool,
                [&](size_t c, NodeId a, std::vector<uint32_t>& row) {
                  std::sort(row.begin(), row.end());
                  chunk_cols[c].insert(chunk_cols[c].end(), row.begin(),
                                       row.end());
                  out.offsets[a + 1] = row.size();
                });
  for (size_t a = 0; a < n; ++a) out.offsets[a + 1] += out.offsets[a];
  out.cols.reserve(out.offsets[n]);
  for (std::vector<uint32_t>& cols : chunk_cols) {
    out.cols.insert(out.cols.end(), cols.begin(), cols.end());
    std::vector<uint32_t>().swap(cols);
  }
  return out;
}

std::vector<Bitset> AllPairs(const PathNfa& nfa, const PathQueryOptions& opts,
                             PathEngine* ran) {
  const size_t n = nfa.num_nodes();
  ScratchPool pool(n);
  Sample sample;
  if (ChooseEngine(nfa, opts, &pool, &sample) == PathEngine::kMatrix) {
    if (ran != nullptr) *ran = PathEngine::kMatrix;
    return MatrixReachFromAll(nfa, AllSources(n), opts);
  }
  if (ran != nullptr) *ran = PathEngine::kNfa;
  std::vector<Bitset> out(n, Bitset(n));
  ForEachNfaRow(nfa, opts, SourceChunks(n, opts.start), sample, &pool,
                [&](size_t, NodeId a, const std::vector<uint32_t>& row) {
                  for (uint32_t b : row) out[a].Set(b);
                });
  return out;
}

double CountPairs(const PathNfa& nfa, const PathQueryOptions& opts) {
  return static_cast<double>(PairRelation(nfa, opts).nnz());
}

}  // namespace kgq
