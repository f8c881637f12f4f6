// Section 4.2's "global properties" toolbox on one synthetic city:
// components, diameter, clustering, cores, triangles, communities, and
// four centrality notions side by side — including the paper's
// regex-constrained bc_r, which is the only one that knows what the
// labels *mean*.
//
// Run: ./build/examples/analytics_tour [num_people]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "analytics/betweenness.h"
#include "analytics/centrality_extra.h"
#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/densest.h"
#include "analytics/pagerank.h"
#include "datasets/contact_scenario.h"
#include "graph/graph_view.h"
#include "rpq/parser.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kgq;

  ContactScenarioOptions opts;
  opts.num_people = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 80;
  Rng rng(7);
  PropertyGraph city = ContactScenario(opts, &rng);
  const Multigraph& g = city.labeled().topology();
  const CsrSnapshot csr = CsrSnapshot::FromGraph(city);

  // ---- Global properties --------------------------------------------------
  auto wcc = WeaklyConnectedComponentsCsr(csr);
  auto scc = StronglyConnectedComponents(g);
  auto diameter = Diameter(g, EdgeDirection::kUndirected);
  auto cores = CoreNumbers(g);
  uint32_t kmax = *std::max_element(cores.begin(), cores.end());
  auto dense = DensestSubgraphPeel(g);
  Rng comm_rng(13);
  auto communities = LabelPropagationCommunities(g, 30, &comm_rng);
  uint32_t num_comm =
      *std::max_element(communities.begin(), communities.end()) + 1;

  std::printf("City: %zu nodes, %zu edges\n", g.num_nodes(), g.num_edges());
  std::printf("  weak components: %u   strong components: %u\n",
              wcc.num_components, scc.num_components);
  std::printf("  diameter (undirected): %s\n",
              diameter ? std::to_string(*diameter).c_str() : "-");
  std::printf("  avg clustering: %.4f   triangles: %zu\n",
              AverageClusteringCoefficient(g), CountTriangles(g));
  std::printf("  max k-core: %u   densest-subgraph density: %.3f\n", kmax,
              dense.density);
  std::printf("  label-propagation communities: %u\n\n", num_comm);

  // ---- Centralities on the buses -----------------------------------------
  std::vector<double> pr = PageRank(csr);
  std::vector<double> bc =
      BetweennessCentrality(csr, EdgeDirection::kUndirected);
  std::vector<double> close = HarmonicCloseness(g, EdgeDirection::kUndirected);
  std::vector<double> eig = EigenvectorCentrality(g);
  PropertyGraphView view(city);
  RegexPtr transport = *ParseRegex("?person/rides/?bus/rides^-/?person");
  BcrOptions bopts;
  bopts.max_path_length = 4;
  Result<std::vector<double>> bcr = RegexBetweenness(view, *transport, bopts);
  if (!bcr.ok()) {
    std::cerr << bcr.status() << "\n";
    return 1;
  }

  Table t("Bus centralities (four classic notions vs the label-aware bc_r)",
          {"bus", "pagerank", "betweenness", "harm.closeness",
           "eigenvector", "bc_r(transport)"});
  NodeId first_bus = static_cast<NodeId>(opts.num_people);
  for (size_t b = 0; b < opts.num_buses; ++b) {
    NodeId bus = first_bus + static_cast<NodeId>(b);
    t.AddRow({*city.NodePropertyString(bus, "name"), FormatDouble(pr[bus], 5),
              FormatDouble(bc[bus], 1), FormatDouble(close[bus], 1),
              FormatDouble(eig[bus], 4), FormatDouble((*bcr)[bus], 1)});
  }
  t.Print(std::cout);
  return 0;
}
