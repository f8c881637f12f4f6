#ifndef KGQ_PLAN_EXEC_H_
#define KGQ_PLAN_EXEC_H_

#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "plan/ir.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace kgq {

/// Tabular intermediate / final result of plan execution: one column
/// per schema variable, node ids as values.
struct RowSet {
  std::vector<std::string> schema;
  std::vector<std::vector<NodeId>> rows;
};

/// Execution knobs shared by all physical operators.
struct ExecOptions {
  /// Thread budget for the parallel phases (PathAtom pair evaluation
  /// fans out per start node). Results are identical for every thread
  /// count.
  ParallelOptions parallel;
  /// Optional CSR snapshot of the view's topology; defaults to the
  /// view's own `csr()`. When it matches, EdgeScan runs over contiguous
  /// label partitions and PathAtom product runs attach it
  /// (PathNfa::AttachSnapshot); when it doesn't, it is ignored — never
  /// wrong, only slower. The view's own CSR is trusted as is; any other
  /// snapshot costs an O(|E|) topology check per call. Must outlive the
  /// call.
  const CsrSnapshot* snapshot = nullptr;
};

/// Executes a logical plan over `view` and returns the projected rows.
/// The root must be the planner's Project (any op works, but only
/// Project canonicalizes: sorted, deduplicated, limited).
///
/// Every operator materializes its output — the memory caveat of
/// ExecuteMatch applies to huge intermediate joins.
///
/// obs: span plan.execute wraps the call with one nested span per
/// operator kind (plan.op.node_scan, plan.op.edge_scan,
/// plan.op.path_atom, plan.op.hash_join, plan.op.filter,
/// plan.op.project); counters plan.rows.<kind> tally rows produced per
/// operator kind; histograms plan.join.build_rows / plan.join.probe_hits
/// record hash-join build sizes and per-probe match counts.
Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options = {});

}  // namespace kgq

#endif  // KGQ_PLAN_EXEC_H_
