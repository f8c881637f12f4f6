#ifndef KGQBENCH_HARNESS_GEN_H_
#define KGQBENCH_HARNESS_GEN_H_

// Seeded input generators of the kgq-serve benchmark: the graphs each
// workload loads, the query texts it sends and the jsonl request lines
// that carry them. Everything here is a pure function of the seed, so
// one seed always yields the same requests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/labeled_graph.h"
#include "util/rng.h"

namespace kgqbench {

/// Edge labels of the transit graph, in the order of kTransitLabels.
enum TransitLabel : uint8_t { kKnows = 0, kRides = 1, kStopsAt = 2 };
inline constexpr const char* kTransitLabels[] = {"knows", "rides",
                                                 "stops_at"};

struct TransitEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  uint8_t label = 0;
};

/// The point-read / read-write graph: node ids [0, persons) are labelled
/// `person`, the next `buses` ids `bus`, the rest `stop`. Edges are typed
/// (person -knows-> person, person -rides-> bus, bus -stops_at-> stop),
/// one third per label, endpoints uniform within their type, no
/// duplicates.
class TransitGraph {
 public:
  TransitGraph(size_t nodes, size_t edges, kgq::Rng* rng);

  size_t num_nodes() const { return persons_ + buses_ + stops_; }
  size_t persons() const { return persons_; }
  const char* NodeLabel(size_t n) const;

  /// The live edge set, in no particular order.
  const std::vector<TransitEdge>& edges() const { return edges_; }

  /// Draws an edge that is not live, adds it and returns it.
  TransitEdge InsertRandom(kgq::Rng* rng);
  /// Removes a uniformly drawn live edge and returns it.
  TransitEdge DeleteRandom(kgq::Rng* rng);

 private:
  static uint64_t Key(const TransitEdge& e) {
    return (static_cast<uint64_t>(e.from) << 34) |
           (static_cast<uint64_t>(e.to) << 4) | e.label;
  }
  TransitEdge Draw(kgq::Rng* rng) const;

  size_t persons_ = 0;
  size_t buses_ = 0;
  size_t stops_ = 0;
  std::vector<TransitEdge> edges_;
  std::unordered_map<uint64_t, size_t> index_;  // Key -> slot in edges_.
};

/// One fixed query shape of a workload: a request class name plus the
/// front-end and text sent for it.
struct Shape {
  std::string name;
  std::string lang;  // "match" | "crpq" | "bgp"
  std::string text;
  /// An equivalent CRPQ (same columns and rows) for the correctness
  /// gate's reference evaluator: the BGP shape's rewrite, or a join with
  /// its atoms ordered so the evaluator's nested loops bind each atom's
  /// source first. Empty: the reference evaluates `text` itself.
  std::string reference = {};
};

/// The unanchored CRPQ / MATCH / BGP shapes of bulk-paths, over the
/// DBLP-synth graph. Their number is odd so that, with every shape run
/// equally often, the read p50 falls inside one shape's samples rather
/// than between two shapes of very different cost.
std::vector<Shape> BulkPathShapes();

/// The read-write dashboard texts: one unanchored, bounded read per
/// front-end (plus a second CRPQ), repeated after their first read so
/// later copies hit the cache.
std::vector<Shape> DashboardShapes();

/// Anchored point-read texts on node `n<anchor>`.
std::string OneHopOutText(uint32_t anchor);
std::string OneHopInText(uint32_t anchor);
std::string TwoHopText(uint32_t anchor);
std::string JoinText(uint32_t anchor);

/// jsonl request lines of the kgq-serve protocol.
std::string QueryLine(const std::string& lang, const std::string& text,
                      size_t threads = 0);
std::string ExplainLine(const std::string& lang, const std::string& text);
std::string InsertLine(const TransitEdge& e);
std::string DeleteLine(const TransitEdge& e);
std::string PublishLine();
std::string AnalyticsLine(const std::string& view, size_t top = 0);

/// Distinct person anchors in seeded order: every anchored read names a
/// node no earlier read named, so no two read texts are equal.
class AnchorStream {
 public:
  AnchorStream(size_t persons, kgq::Rng* rng);
  uint32_t Next();

 private:
  std::vector<uint32_t> order_;
  size_t next_ = 0;
};

/// FNV-1a of a response line — what the correctness gate compares.
uint64_t Fnv1a(const std::string& s);

}  // namespace kgqbench

#endif  // KGQBENCH_HARNESS_GEN_H_
