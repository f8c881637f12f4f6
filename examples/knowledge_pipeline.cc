// A knowledge graph end to end (the Section 2.3 lifecycle): represent
// (load Turtle), integrate (merge documents + ontology), produce
// knowledge three ways — RDFS reasoning, declarative MATCH querying over
// the inferred graph, and embedding-based completion of missing facts.
//
// Run: ./build/examples/knowledge_pipeline

#include <iostream>

#include "embed/transe.h"
#include "query/match_query.h"
#include "rdf/rdf_view.h"
#include "rdf/rdfs.h"
#include "rdf/turtle.h"

int main() {
  using namespace kgq;

  // ---- Represent: two documents, one graph -------------------------------
  TripleStore kg;
  const char* transport_doc =
      "# transport facts\n"
      "juan rides bus1 .\n"
      "rosa rides bus1 .\n"
      "ana  rides tram7 .\n"
      "pedro rides bus1 .\n"
      "transSur owns bus1 .\n"
      "transSur owns tram7 .\n";
  const char* ontology_doc =
      "# a tiny transport ontology\n"
      "rides rdfs:domain Person .\n"
      "rides rdfs:range Vehicle .\n"
      "owns  rdfs:domain Company .\n"
      "Bus  rdfs:subClassOf Vehicle .\n"
      "bus1 rdf:type Bus .\n"
      "pedro rdf:type Infected .\n";
  if (!LoadTurtle(transport_doc, &kg).ok() ||
      !LoadTurtle(ontology_doc, &kg).ok()) {
    std::cerr << "failed to load documents\n";
    return 1;
  }
  std::cout << "Loaded " << kg.size() << " asserted triples\n";

  // ---- Produce: RDFS materialization -------------------------------------
  size_t derived = MaterializeRdfs(&kg);
  std::cout << "RDFS inference derived " << derived
            << " new triples (e.g. juan rdf:type Person: "
            << (kg.Contains("juan", "rdf:type", "Person") ? "yes" : "no")
            << ", bus1 rdf:type Vehicle: "
            << (kg.Contains("bus1", "rdf:type", "Vehicle") ? "yes" : "no")
            << ")\n\n";

  // ---- Query the *inferred* graph declaratively --------------------------
  RdfGraphView view(kg);
  Result<QueryResult> who = RunMatch(
      view,
      "MATCH (x: Person) -[ rides/rides^- ]-> (y: Infected) RETURN x");
  if (!who.ok()) {
    std::cerr << who.status() << "\n";
    return 1;
  }
  std::cout << "Persons who shared a vehicle with an infected person:\n";
  for (size_t r = 0; r < who->rows.size(); ++r) {
    std::cout << "  " << view.TermOf(who->rows[r][0]) << "\n";
  }

  // ---- Complete: embeddings predict a plausible missing link -------------
  TransEOptions opts;
  opts.dimension = 16;
  opts.epochs = 300;
  TransEModel model = *TransEModel::Train(kg, opts);
  std::cout << "\nTransE (" << model.num_entities() << " entities, "
            << model.num_relations() << " relations):\n";
  std::cout << "  score(rosa rides bus1)  [asserted]   = "
            << model.Score("rosa", "rides", "bus1") << "\n";
  std::cout << "  score(ana rides bus1)   [unasserted] = "
            << model.Score("ana", "rides", "bus1") << "\n";
  std::cout << "  rank of bus1 as tail of (juan, rides, ?): "
            << model.TailRank("juan", "rides", "bus1") << " of "
            << model.num_entities() << "\n";
  return 0;
}
