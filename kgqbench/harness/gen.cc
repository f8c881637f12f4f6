#include "gen.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace kgqbench {

TransitGraph::TransitGraph(size_t nodes, size_t edges, kgq::Rng* rng) {
  persons_ = nodes * 6 / 10;
  buses_ = nodes * 2 / 10;
  stops_ = nodes - persons_ - buses_;
  edges_.reserve(edges);
  index_.reserve(edges * 2);
  while (edges_.size() < edges) InsertRandom(rng);
}

const char* TransitGraph::NodeLabel(size_t n) const {
  if (n < persons_) return "person";
  if (n < persons_ + buses_) return "bus";
  return "stop";
}

TransitEdge TransitGraph::Draw(kgq::Rng* rng) const {
  TransitEdge e;
  e.label = static_cast<uint8_t>(rng->Below(3));
  const uint64_t bus0 = persons_;
  const uint64_t stop0 = persons_ + buses_;
  switch (e.label) {
    case kKnows:
      e.from = static_cast<uint32_t>(rng->Below(persons_));
      e.to = static_cast<uint32_t>(rng->Below(persons_));
      break;
    case kRides:
      e.from = static_cast<uint32_t>(rng->Below(persons_));
      e.to = static_cast<uint32_t>(bus0 + rng->Below(buses_));
      break;
    default:
      e.from = static_cast<uint32_t>(bus0 + rng->Below(buses_));
      e.to = static_cast<uint32_t>(stop0 + rng->Below(stops_));
      break;
  }
  return e;
}

TransitEdge TransitGraph::InsertRandom(kgq::Rng* rng) {
  for (;;) {
    TransitEdge e = Draw(rng);
    if (index_.emplace(Key(e), edges_.size()).second) {
      edges_.push_back(e);
      return e;
    }
  }
}

TransitEdge TransitGraph::DeleteRandom(kgq::Rng* rng) {
  const size_t slot = rng->Below(edges_.size());
  const TransitEdge e = edges_[slot];
  index_.erase(Key(e));
  if (slot + 1 != edges_.size()) {
    edges_[slot] = edges_.back();
    index_[Key(edges_[slot])] = slot;
  }
  edges_.pop_back();
  return e;
}

std::vector<Shape> BulkPathShapes() {
  return {
      // Co-authorship two ways: with author tests the planner keeps the
      // NFA engine, without them kAuto sends the same pairs to matrix.
      {"coauthors_nfa", "crpq",
       "q(a1, a2) :- (a1: author) -[ writes / writes^- ]-> (a2: author)"},
      {"coauthors_matrix", "crpq",
       "q(a1, a2) :- (a1) -[ writes / writes^- ]-> (a2)"},
      // bench_e11's joins on the rare keyword.
      {"coauthors_rare", "crpq",
       "q(a1, a2) :- (a1: author) -[ writes ]-> (p), "
       "(a2: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph)",
       "q(a1, a2) :- (a1: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph), "
       "(p) -[ writes^- ]-> (a2: author)"},
      {"author_triples_rare", "crpq",
       "q(a1, a3) :- (a1: author) -[ writes ]-> (p), "
       "(a2: author) -[ writes ]-> (p), "
       "(a3: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph)",
       "q(a1, a3) :- (a1: author) -[ writes ]-> (p), "
       "(p) -[ about ]-> (k: property_graph), "
       "(p) -[ writes^- ]-> (a2: author), "
       "(p) -[ writes^- ]-> (a3: author)"},
      {"cites_into_rare", "crpq",
       "q(a) :- (a: author) -[ writes ]-> (p), "
       "(p) -[ cites*/about ]-> (k: property_graph)"},
      {"author_venues", "crpq",
       "q(a, v) :- (a) -[ writes / cites / in ]-> (v)"},
      {"kg_authors", "match",
       "MATCH (a: author) -[ writes / about ]-> (k: knowledge_graph) "
       "RETURN a"},
      {"cocitation", "bgp",
       "?a writes ?p . ?p cites ?c . ?q cites ?c . ?b writes ?q",
       "q(a, b, c, p, q) :- (a) -[ writes ]-> (p), (p) -[ cites ]-> (c), "
       "(c) -[ cites^- ]-> (q), (q) -[ writes^- ]-> (b)"},
      {"cites_closure", "crpq", "q(x, y) :- (x) -[ cites* ]-> (y)"},
  };
}

std::vector<Shape> DashboardShapes() {
  return {
      {"dash_match", "match",
       "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b LIMIT 1000"},
      {"dash_crpq", "crpq",
       "q(b, s) :- (b: bus) -[ stops_at ]-> (s: stop) LIMIT 1000"},
      // Integrity check: stops_at only lands on stops, so this is empty.
      {"dash_bgp", "bgp", "?b stops_at ?s . ?s kgq:label person"},
      {"dash_mutual", "crpq",
       "q(x, y) :- (x) -[ knows ]-> (y), (y) -[ knows ]-> (x) LIMIT 1000"},
  };
}

std::string OneHopOutText(uint32_t anchor) {
  return "n" + std::to_string(anchor) + " knows ?y";
}
std::string OneHopInText(uint32_t anchor) {
  return "?x knows n" + std::to_string(anchor);
}
std::string TwoHopText(uint32_t anchor) {
  return "n" + std::to_string(anchor) + " (knows/knows) ?y";
}
std::string JoinText(uint32_t anchor) {
  return "n" + std::to_string(anchor) +
         " rides ?b . ?y rides ?b . ?y kgq:label person";
}

namespace {

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string EdgeLine(const char* op, const TransitEdge& e) {
  return std::string("{\"op\":\"") + op + "\",\"from\":" +
         std::to_string(e.from) + ",\"to\":" + std::to_string(e.to) +
         ",\"label\":\"" + kTransitLabels[e.label] + "\"}";
}

std::string TextLine(const char* op, const std::string& lang,
                     const std::string& text) {
  std::string line = std::string("{\"op\":\"") + op + "\",\"lang\":\"" +
                     lang + "\",\"text\":";
  AppendQuoted(&line, text);
  return line;
}

}  // namespace

std::string QueryLine(const std::string& lang, const std::string& text,
                      size_t threads) {
  std::string line = TextLine("query", lang, text);
  if (threads > 0) line += ",\"threads\":" + std::to_string(threads);
  line += '}';
  return line;
}

std::string ExplainLine(const std::string& lang, const std::string& text) {
  return TextLine("explain", lang, text) + "}";
}

std::string InsertLine(const TransitEdge& e) {
  return EdgeLine("insert_edge", e);
}
std::string DeleteLine(const TransitEdge& e) {
  return EdgeLine("delete_edge", e);
}
std::string PublishLine() { return "{\"op\":\"publish\"}"; }

std::string AnalyticsLine(const std::string& view, size_t top) {
  std::string line = "{\"op\":\"analytics\",\"view\":\"" + view + "\"";
  if (top > 0) line += ",\"top\":" + std::to_string(top);
  line += '}';
  return line;
}

AnchorStream::AnchorStream(size_t persons, kgq::Rng* rng)
    : order_(persons) {
  for (size_t i = 0; i < persons; ++i) order_[i] = static_cast<uint32_t>(i);
  for (size_t i = persons; i > 1; --i) {
    std::swap(order_[i - 1], order_[rng->Below(i)]);
  }
}

uint32_t AnchorStream::Next() {
  if (next_ == order_.size()) {
    // A repeated anchor would repeat a text and turn a miss into a hit.
    std::fprintf(stderr, "anchor stream exhausted after %zu reads\n", next_);
    std::exit(3);
  }
  return order_[next_++];
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace kgqbench
