#ifndef KGQBENCH_HARNESS_ORACLE_H_
#define KGQBENCH_HARNESS_ORACLE_H_

// Ground truth of the correctness gate. Answers of the transit
// workloads' reads are computed straight from the generator's live edge
// set, with no kgq code on the way (no parser, planner, executor,
// automaton, CSR or store), and rendered as the tail of a kgq-serve
// query response, which is what the gate compares.

#include <cstdint>
#include <string>
#include <vector>

#include "gen.h"

namespace kgqbench {

using Rows = std::vector<std::vector<uint32_t>>;

/// `,"columns":[…],"rows":[…]}` — the part of a query response after its
/// epoch and cached flag, for sorted, distinct `rows`.
std::string AnswerTail(const std::vector<std::string>& columns,
                       const Rows& rows);

/// The same part cut out of a served response ("" when it has none).
std::string ResponseTail(const std::string& response);

/// Anchored and dashboard reads of point-read / read-write, answered
/// from a copy of the transit graph's edges taken at construction.
class TransitOracle {
 public:
  explicit TransitOracle(const TransitGraph& g);

  std::string OneHopOut(uint32_t a) const;  // OneHopOutText(a)
  std::string OneHopIn(uint32_t a) const;   // OneHopInText(a)
  std::string TwoHop(uint32_t a) const;     // TwoHopText(a)
  std::string Join(uint32_t a) const;       // JoinText(a)
  /// A DashboardShapes() text by name; "" for an unknown name.
  std::string Dashboard(const std::string& name) const;

 private:
  /// Sorted (from, to) pairs of one label's edges whose endpoints carry
  /// the given node labels, the first `limit` of them.
  Rows Pairs(TransitLabel label, const char* from_label, const char* to_label,
             size_t limit) const;

  const TransitGraph& g_;
  // Sorted neighbour lists per edge label, by source and by target.
  std::vector<std::vector<uint32_t>> out_[3];
  std::vector<std::vector<uint32_t>> in_[3];
};

}  // namespace kgqbench

#endif  // KGQBENCH_HARNESS_ORACLE_H_
