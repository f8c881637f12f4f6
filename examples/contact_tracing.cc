// Contact tracing at scale: the Section 4.2 story on a synthetic city.
// Which bus matters most for infection propagation? Classical
// betweenness ranks by raw connectivity; the regex-constrained bc_r
// ranks buses by their role in *conforming* paths only.
//
// Run: ./build/examples/contact_tracing [num_people]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "analytics/betweenness.h"
#include "datasets/contact_scenario.h"
#include "graph/graph_view.h"
#include "pathalg/enumerate.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

int main(int argc, char** argv) {
  using namespace kgq;

  ContactScenarioOptions opts;
  opts.num_people = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  opts.num_buses = 5;
  Rng rng(2021);
  PropertyGraph city = ContactScenario(opts, &rng);
  std::cout << "Synthetic city: " << city.num_nodes() << " nodes, "
            << city.num_edges() << " edges ("
            << opts.num_buses << " buses)\n\n";

  PropertyGraphView view(city);

  // Who possibly got infected on a shared bus?
  Result<RegexPtr> infected_query =
      ParseRegex("?person/rides/?bus/rides^-/?infected");
  Result<PathNfa> nfa = PathNfa::Compile(view, **infected_query);
  if (!nfa.ok()) {
    std::cerr << nfa.status() << "\n";
    return 1;
  }
  PathEnumerator enumerator(*nfa, 2);
  std::vector<char> flagged(city.num_nodes(), 0);
  Path p;
  size_t paths = 0;
  while (enumerator.Next(&p)) {
    flagged[p.Start()] = 1;
    ++paths;
  }
  size_t flagged_count = 0;
  for (char f : flagged) flagged_count += f;
  std::cout << "Possibly-infected query: " << flagged_count
            << " people flagged via " << paths << " exposure paths\n\n";

  // Rank buses: classical betweenness vs transport-restricted bc_r.
  std::vector<double> classic = BetweennessCentrality(
      CsrSnapshot::FromGraph(city), EdgeDirection::kUndirected);
  Result<RegexPtr> transport =
      ParseRegex("?person/rides/?bus/rides^-/?person");
  BcrOptions bcr_opts;
  bcr_opts.max_path_length = 4;
  Result<std::vector<double>> bcr =
      RegexBetweenness(view, **transport, bcr_opts);
  if (!bcr.ok()) {
    std::cerr << bcr.status() << "\n";
    return 1;
  }

  std::printf("%-10s %14s %14s\n", "bus", "classic bc", "bc_r(transport)");
  NodeId first_bus = static_cast<NodeId>(opts.num_people);
  for (size_t b = 0; b < opts.num_buses; ++b) {
    NodeId bus = first_bus + static_cast<NodeId>(b);
    std::printf("%-10s %14.2f %14.2f\n",
                city.NodePropertyString(bus, "name")->c_str(), classic[bus],
                (*bcr)[bus]);
  }

  // The company nodes: classically central (they own several buses) but
  // irrelevant for transport.
  NodeId company = first_bus + static_cast<NodeId>(opts.num_buses);
  std::printf("%-10s %14.2f %14.2f   <- ownership, not transport\n",
              "company0", classic[company], (*bcr)[company]);
  return 0;
}
