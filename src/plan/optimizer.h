#ifndef KGQ_PLAN_OPTIMIZER_H_
#define KGQ_PLAN_OPTIMIZER_H_

#include "plan/ir.h"
#include "plan/stats.h"
#include "util/result.h"

namespace kgq {

/// Physical-engine choice for PathAtom leaves (the matrix_rpq rule).
enum class MatrixRpqMode {
  /// Never annotate: every PathAtom runs on the configuration-BFS
  /// engine (part of the all-off naive baseline).
  kOff,
  /// Measured for regular atoms: an unbound atom's engine is decided
  /// when it runs (PathEngine::kAuto) — the matrix engine iff a sample
  /// of up to 64 sources reaches, on average, at least n/64 nodes, the
  /// density at which one frontier word pays; bound atoms stay on the
  /// BFS engine. Context-free atoms are estimated: the CFPQ fixpoint
  /// for unbound atoms whose estimated pair count is at least n, on
  /// graphs of ≥ 64 nodes.
  kAuto,
  /// Annotate every PathAtom (the force-matrix knob benches use).
  kAlways,
};

/// Which rewrite rules the planner applies. The all-off configuration is
/// the *naive* plan — atoms joined left-to-right in textual order, every
/// restriction evaluated as a Filter above the joins — retained as the
/// baseline bench_e11 compares against.
struct PlannerOptions {
  /// Fold node tests and constant bindings into the leaves they
  /// restrict (regular PathAtom leaves absorb endpoint tests into the
  /// regex; EdgeScan/NodeScan and context-free PathAtom leaves keep
  /// them as adjacent Filters / leaf bindings — grammar relations
  /// cannot fold node tests into the path).
  bool push_filters = true;
  /// Greedy join reordering by cardinality estimate: start from the
  /// smallest leaf, repeatedly join the connected leaf minimizing the
  /// estimated join output.
  bool reorder_joins = true;
  /// Compile a PathAtom whose regex is one plain ℓ / ℓ⁻ atom into an
  /// EdgeScan(label) — executed over the snapshot's contiguous label
  /// partitions instead of a product-automaton run.
  bool edge_scan_fastpath = true;
  /// Annotate PathAtom leaves with their engine: matrix RPQ
  /// (pathalg/matrix_rpq) or the per-source BFS for regular atoms, the
  /// CFPQ fixpoint (pathalg/cfpq_matrix) or the CYK-style reference for
  /// context-free atoms. Purely physical: the engines return
  /// bit-identical rows, the rule only moves the work onto masked
  /// SpGEMM sweeps when the atom is a dense bulk all-pairs evaluation —
  /// measured by a source sample at run time for regular atoms,
  /// estimated by EstimateCfpqPairs for context-free ones.
  MatrixRpqMode matrix_rpq = MatrixRpqMode::kAuto;
};

/// Lowers a ConjunctiveQuery to an optimized LogicalOp tree. `stats`
/// drives the cardinality annotations (every op's est_rows is filled
/// in). Fails with InvalidArgument on malformed queries: empty
/// projection, projected or tested variables that appear nowhere, or no
/// atoms and no node tests at all.
///
/// obs: counters plan.optimizer.filters_pushed,
/// plan.optimizer.edge_scan_fastpath, plan.optimizer.join_reorders and
/// plan.optimizer.matrix_rpq tally rule applications; span plan.optimize
/// covers the call.
Result<LogicalOpPtr> PlanQuery(const ConjunctiveQuery& query,
                               const GraphStats& stats,
                               const PlannerOptions& options = {});

}  // namespace kgq

#endif  // KGQ_PLAN_OPTIMIZER_H_
