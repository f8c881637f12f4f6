#include "analytics/components.h"

#include <algorithm>

namespace kgq {

ComponentAssignment WeaklyConnectedComponentsCsr(const CsrSnapshot& g) {
  ComponentAssignment out;
  out.component.assign(g.num_nodes(), 0xFFFFFFFFu);
  std::vector<NodeId> stack;
  for (NodeId seed = 0; seed < g.num_nodes(); ++seed) {
    if (out.component[seed] != 0xFFFFFFFFu) continue;
    uint32_t id = out.num_components++;
    out.component[seed] = id;
    stack.push_back(seed);
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      auto visit = [&](NodeId to) {
        if (out.component[to] == 0xFFFFFFFFu) {
          out.component[to] = id;
          stack.push_back(to);
        }
      };
      for (const CsrSnapshot::Entry& e : g.Out(n)) visit(e.neighbor);
      for (const CsrSnapshot::Entry& e : g.In(n)) visit(e.neighbor);
    }
  }
  return out;
}

ComponentAssignment StronglyConnectedComponents(const Multigraph& g) {
  // Iterative Tarjan.
  const uint32_t kUnvisited = 0xFFFFFFFFu;
  size_t n = g.num_nodes();
  ComponentAssignment out;
  out.component.assign(n, kUnvisited);

  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<NodeId> scc_stack;
  uint32_t next_index = 0;

  struct Frame {
    NodeId node;
    size_t edge_pos;
  };
  std::vector<Frame> call_stack;

  for (NodeId seed = 0; seed < n; ++seed) {
    if (index[seed] != kUnvisited) continue;
    call_stack.push_back({seed, 0});
    index[seed] = lowlink[seed] = next_index++;
    scc_stack.push_back(seed);
    on_stack[seed] = 1;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      NodeId v = frame.node;
      const std::vector<EdgeId>& edges = g.OutEdges(v);
      if (frame.edge_pos < edges.size()) {
        NodeId w = g.EdgeTarget(edges[frame.edge_pos++]);
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = 1;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      // v is finished: pop, propagate lowlink, maybe emit a component.
      call_stack.pop_back();
      if (!call_stack.empty()) {
        NodeId parent = call_stack.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        uint32_t id = out.num_components++;
        for (;;) {
          NodeId w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = 0;
          out.component[w] = id;
          if (w == v) break;
        }
      }
    }
  }
  return out;
}

}  // namespace kgq
