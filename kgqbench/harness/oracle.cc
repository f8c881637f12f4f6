#include "oracle.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace kgqbench {
namespace {

void SortUnique(Rows* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

Rows Column(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  Rows rows;
  rows.reserve(ids.size());
  for (uint32_t id : ids) rows.push_back({id});
  return rows;
}

}  // namespace

std::string AnswerTail(const std::vector<std::string>& columns,
                       const Rows& rows) {
  std::string out = ",\"columns\":[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + columns[i] + '"';
  }
  out += "],\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(rows[i][j]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

std::string ResponseTail(const std::string& response) {
  const size_t at = response.find(",\"columns\":");
  return at == std::string::npos ? "" : response.substr(at);
}

TransitOracle::TransitOracle(const TransitGraph& g) : g_(g) {
  for (int l = 0; l < 3; ++l) {
    out_[l].resize(g.num_nodes());
    in_[l].resize(g.num_nodes());
  }
  for (const TransitEdge& e : g.edges()) {
    out_[e.label][e.from].push_back(e.to);
    in_[e.label][e.to].push_back(e.from);
  }
  for (int l = 0; l < 3; ++l) {
    for (auto& v : out_[l]) std::sort(v.begin(), v.end());
    for (auto& v : in_[l]) std::sort(v.begin(), v.end());
  }
}

std::string TransitOracle::OneHopOut(uint32_t a) const {
  return AnswerTail({"y"}, Column(out_[kKnows][a]));
}

std::string TransitOracle::OneHopIn(uint32_t a) const {
  return AnswerTail({"x"}, Column(in_[kKnows][a]));
}

std::string TransitOracle::TwoHop(uint32_t a) const {
  std::vector<uint32_t> ys;
  for (uint32_t mid : out_[kKnows][a]) {
    ys.insert(ys.end(), out_[kKnows][mid].begin(), out_[kKnows][mid].end());
  }
  return AnswerTail({"y"}, Column(std::move(ys)));
}

std::string TransitOracle::Join(uint32_t a) const {
  Rows rows;
  for (uint32_t bus : out_[kRides][a]) {
    for (uint32_t y : in_[kRides][bus]) {
      if (std::strcmp(g_.NodeLabel(y), "person") == 0) rows.push_back({bus, y});
    }
  }
  SortUnique(&rows);
  return AnswerTail({"b", "y"}, rows);
}

Rows TransitOracle::Pairs(TransitLabel label, const char* from_label,
                          const char* to_label, size_t limit) const {
  Rows rows;
  for (uint32_t from = 0; from < out_[label].size() && rows.size() < limit;
       ++from) {
    if (std::strcmp(g_.NodeLabel(from), from_label) != 0) continue;
    for (uint32_t to : out_[label][from]) {
      if (rows.size() == limit) break;
      if (std::strcmp(g_.NodeLabel(to), to_label) == 0) {
        rows.push_back({from, to});
      }
    }
  }
  return rows;
}

std::string TransitOracle::Dashboard(const std::string& name) const {
  constexpr size_t kLimit = 1000;  // the dashboards' LIMIT
  if (name == "dash_match") {
    return AnswerTail({"x", "b"}, Pairs(kRides, "person", "bus", kLimit));
  }
  if (name == "dash_crpq") {
    return AnswerTail({"b", "s"}, Pairs(kStopsAt, "bus", "stop", kLimit));
  }
  if (name == "dash_bgp") {
    return AnswerTail({"b", "s"}, Pairs(kStopsAt, "bus", "person", SIZE_MAX));
  }
  if (name == "dash_mutual") {
    Rows rows;
    const auto& knows = out_[kKnows];
    for (uint32_t x = 0; x < knows.size() && rows.size() < kLimit; ++x) {
      for (uint32_t y : knows[x]) {
        if (rows.size() == kLimit) break;
        if (std::binary_search(knows[y].begin(), knows[y].end(), x)) {
          rows.push_back({x, y});
        }
      }
    }
    return AnswerTail({"x", "y"}, rows);
  }
  return "";
}

}  // namespace kgqbench
