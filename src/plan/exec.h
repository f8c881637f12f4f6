#ifndef KGQ_PLAN_EXEC_H_
#define KGQ_PLAN_EXEC_H_

#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "plan/ir.h"
#include "plan/row_table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace kgq {

/// Tabular intermediate / final result of plan execution: one column
/// per schema variable, node ids as values, rows.arity() ==
/// schema.size().
struct RowSet {
  std::vector<std::string> schema;
  RowTable rows;
};

/// Execution knobs shared by all physical operators. The operators run
/// on the view's own CSR (GraphView::csr()): EdgeScans read its
/// contiguous label partitions and PathAtoms run the product on it.
/// When its label spans are sorted (CsrSnapshot::label_spans_sorted,
/// true of every canonically ordered build such as a serving epoch),
/// scans emit rows in order, so LIMIT can stop them early and a closing
/// edge is a binary-search probe.
struct ExecOptions {
  /// Thread budget for the parallel phases: PathAtom pair evaluation
  /// fans out per start node, and a built HashJoin and a materializing
  /// Project run their row passes in chunks (RowTable::kParallelGrain).
  /// Results are identical for every thread count.
  ParallelOptions parallel;
};

/// Executes a logical plan over `view` and returns the projected rows.
/// The root must be the planner's Project (any op works, but only
/// Project canonicalizes: sorted, deduplicated, limited).
///
/// Label-partition EdgeScans run as streaming pipelines: one pass over
/// the partition, each row checked inline by the Filters stacked
/// directly on the scan and by closing edges — a HashJoin whose right
/// side is an EdgeScan (under Filters) with both endpoints bound by the
/// left side, probed by binary search of the sorted span instead of a
/// hash table. A row is materialized only once it passes every check.
/// Over sorted spans the pipeline emits its rows in schema order; when
/// the projected columns, skipping columns bound to a constant, are a
/// prefix of that order, Project deduplicates on the fly and stops the
/// scan after `limit` distinct rows. A PathAtom's rows are ordered too
/// (every path engine emits its pairs ascending and distinct): a
/// Project over one whose projection is such a prefix reads its
/// materialized rows the same way, with no sort. Every other operator
/// (NodeScan, PathAtom, a built HashJoin) materializes its output, and
/// every other Project materializes, sorts, deduplicates and then
/// limits.
///
/// Rows are flat from the first operator on: every RowSet holds one
/// RowTable buffer, a row costs its values and no allocation of its
/// own. A built HashJoin indexes its smaller side by counting sort on
/// the first key column (offsets over that column's [min, max], the
/// shape of a CSR; further key columns are checked per candidate). Its
/// probe rows run in chunks on `options.parallel`: each chunk counts its
/// matches, the output is allocated once at the exact total, and each
/// chunk writes its rows at its prefix offset — probe rows in order,
/// each with its matches in build order, whatever the thread count. A
/// join without shared columns is a nested-loop cross product.
/// Project's sort is SortUniqueProjection: an LSD radix sort that
/// gathers the projected columns in its first pass and runs its count
/// and scatter passes in row chunks on `options.parallel`. Memory
/// caveat: a materialized intermediate costs 4 bytes per value, and a
/// built join's index adds 4 bytes per build row and per node id in its
/// key range — huge intermediate joins still cost memory in proportion
/// to their rows. The rows are identical on every path and at every
/// thread count, and plans and EXPLAIN do not depend on which path runs.
///
/// obs: span plan.execute wraps the call with one nested span per
/// operator kind (plan.op.node_scan, plan.op.edge_scan,
/// plan.op.path_atom, plan.op.hash_join, plan.op.filter,
/// plan.op.project); counters plan.rows.<kind> tally rows produced per
/// operator kind; histograms plan.join.build_rows / plan.join.probe_hits
/// record built-join build sizes and per-probe-row match counts (a
/// probe join builds no table and records neither). The probe counts
/// are tallied in one local array per probe chunk and flushed once per
/// distinct count, so the histogram holds what per-row recording would.
/// Counter plan.scan.label_partition_entries tallies the label-span
/// entries the scans read (a scan that LIMIT stops counts only what it
/// read), added once per scan.
Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options = {});

}  // namespace kgq

#endif  // KGQ_PLAN_EXEC_H_
