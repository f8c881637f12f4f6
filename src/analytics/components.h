#ifndef KGQ_ANALYTICS_COMPONENTS_H_
#define KGQ_ANALYTICS_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/multigraph.h"

namespace kgq {

/// Result of a components decomposition: a dense component id per node
/// plus the number of components. Ids are assigned in discovery order.
struct ComponentAssignment {
  std::vector<uint32_t> component;
  uint32_t num_components = 0;
};

/// Weakly connected components (edges taken as undirected) over a CSR
/// snapshot. Ids are in discovery order from ascending seeds, so a
/// component's id is the rank of its minimum node id. The serving
/// layer's view cache recomputes on this.
ComponentAssignment WeaklyConnectedComponentsCsr(const CsrSnapshot& g);

/// Strongly connected components (Tarjan, iterative — safe on deep
/// graphs).
ComponentAssignment StronglyConnectedComponents(const Multigraph& g);

}  // namespace kgq

#endif  // KGQ_ANALYTICS_COMPONENTS_H_
