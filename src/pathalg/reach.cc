#include "pathalg/reach.h"

#include <algorithm>

#include "obs/obs.h"
#include "pathalg/matrix_rpq.h"
#include "util/thread_pool.h"

namespace kgq {

ReachTable::ReachTable(const PathNfa& nfa, size_t max_len,
                       const PathQueryOptions& opts)
    : num_nodes_(nfa.num_nodes()),
      max_len_(max_len),
      table_((max_len + 1) * nfa.num_nodes(), 0) {
  KGQ_SPAN("reach_table.build");
  KGQ_COUNTER_INC("pathalg.reach.builds");
  // Engine dispatch: the matrix construction fills all layers (including
  // layer 0) with masks bit-identical to the scalar loops below.
  if (opts.engine == PathEngine::kMatrix) {
    MatrixReachTableLayers(nfa, max_len, opts, &table_);
    return;
  }
  // Layer 0: a length-0 suffix is accepted iff the state itself is final
  // (masks held by callers are ε-closed, so no closure is needed here)
  // and the node satisfies the end restriction.
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (opts.avoid != kNoNode && n == opts.avoid) continue;
    if (opts.end != kNoNode && n != opts.end) continue;
    table_[n] = nfa.final_mask();
  }

  PathNfa::StateMask all =
      ~0ull >> (64 - (nfa.num_states() == 64 ? 64 : nfa.num_states()));
  size_t grain = std::max<size_t>(16, (num_nodes_ + 255) / 256);

  // Layer j from layer j-1: q can finish in j steps from n iff some step
  // s out of n leads to a state set intersecting the (j-1)-finishers at
  // s.to. Rows of layer j only read layer j-1 and write disjoint slots,
  // so each layer is a parallel map over nodes.
  for (size_t j = 1; j <= max_len_; ++j) {
    ParallelFor(
        0, num_nodes_, grain,
        [&](size_t lo, size_t hi) {
          for (NodeId n = lo; n < hi; ++n) {
            if (opts.avoid != kNoNode && n == opts.avoid) continue;
            PathNfa::StateMask result = 0;
            nfa.ForEachStep(n, [&](const PathNfa::Step& s) {
              if (opts.avoid != kNoNode && s.to == opts.avoid) return;
              PathNfa::StateMask goal = table_[(j - 1) * num_nodes_ + s.to];
              if (goal == 0) return;
              // Which q have AdvanceSingle(q, s) ∩ goal ≠ 0?
              PathNfa::StateMask rest = all & ~result;
              while (rest != 0) {
                uint32_t q = static_cast<uint32_t>(__builtin_ctzll(rest));
                rest &= rest - 1;
                if (nfa.AdvanceSingle(q, s) & goal) result |= 1ull << q;
              }
            });
            table_[j * num_nodes_ + n] = result;
          }
        },
        opts.parallel);
  }
}

}  // namespace kgq
