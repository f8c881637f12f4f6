#ifndef KGQ_PATHALG_PAIRS_H_
#define KGQ_PATHALG_PAIRS_H_

#include <vector>

#include "pathalg/matrix_rpq.h"
#include "pathalg/options.h"
#include "rpq/path_nfa.h"
#include "util/bitset.h"

namespace kgq {

/// Existential (pair) semantics for regular path queries — what SPARQL
/// property paths and most graph query languages return: the set of
/// pairs (a, b) such that *some* path from a to b conforms to the query,
/// with no length bound. Computed per start node by a BFS over product
/// states (node, automaton state), which saturates because they are
/// finitely many.
///
/// The NFA engine runs one such search per source. A multi-source call
/// gives each participating thread one search scratch for the whole
/// call and resets only the entries a source touched, so a source costs
/// O(|Q| · what it reaches), never O(n) — the product-graph bound of
/// "Foundations of Modern Query Languages for Graph Databases" (§3–4).
/// The matrix engine (pathalg/matrix_rpq) evaluates the same relation
/// for all sources at once; PathEngine::kAuto picks between them from a
/// sample of sources (see PathEngine).
///
/// This is the polynomial-time face of RPQ evaluation; counting or
/// enumerating the underlying paths is where Section 4.1's machinery
/// takes over.
///
/// obs: counters pathalg.auto.sampled_sources (sources the kAuto sample
/// searched), pathalg.auto.matrix / pathalg.auto.nfa (one per kAuto
/// call, by the engine it chose).

/// Nodes b reachable from `start` via some conforming path (of any
/// length, respecting opts.avoid). kAuto runs the NFA engine.
Bitset ReachableFrom(const PathNfa& nfa, NodeId start,
                     const PathQueryOptions& opts = {});

/// The pair relation as an n × n BoolCsr: row a holds, ascending, the
/// targets of ReachableFrom(a) — empty when opts.start excludes a.
/// Sized by its pairs, not by n². `ran`, when given, receives the
/// engine that evaluated it (kNfa or kMatrix, never kAuto).
BoolCsr PairRelation(const PathNfa& nfa, const PathQueryOptions& opts = {},
                     PathEngine* ran = nullptr);

/// All pairs as n bit sets of n bits: result[a] = ReachableFrom(a) —
/// the rows of PairRelation, same engines, for the oracles and benches
/// that compare rows. `ran` as in PairRelation.
std::vector<Bitset> AllPairs(const PathNfa& nfa,
                             const PathQueryOptions& opts = {},
                             PathEngine* ran = nullptr);

/// Number of conforming pairs (the entries of PairRelation).
double CountPairs(const PathNfa& nfa, const PathQueryOptions& opts = {});

}  // namespace kgq

#endif  // KGQ_PATHALG_PAIRS_H_
