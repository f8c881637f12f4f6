// E2 — polynomial-delay enumeration (Section 4.1): after a preprocessing
// phase, answers stream with a bounded inter-answer delay regardless of
// how many answers exist. The sweep grows the answer set exponentially
// (layered DAGs) while the measured max delay stays flat; the ablation
// compares against run-level DFS with post-hoc deduplication, whose
// time-to-first-k answers degrades with ambiguity.
//
// Every configuration runs with a preprocessing thread sweep, and all
// measurements are mirrored to BENCH_e2_enum_delay.json as the
// machine-readable regression baseline.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;

/// Baseline: DFS over automaton *runs* (single states, not subsets),
/// collecting paths into a set for deduplication. Duplicate runs over
/// the same path are re-derived and rejected — the cost our
/// configuration-level enumerator avoids by construction.
size_t RunLevelDfsFirstK(const PathNfa& nfa, size_t length, size_t want,
                         double* seconds) {
  Timer timer;
  std::set<Path> seen;
  // Iterative DFS over (path, single automaton state).
  std::vector<Path> stack_paths;
  std::vector<uint32_t> stack_states;
  for (NodeId n = 0; n < nfa.num_nodes() && seen.size() < want; ++n) {
    PathNfa::StateMask start = nfa.StartMask(n);
    PathNfa::StateMask rest = start;
    while (rest != 0 && seen.size() < want) {
      uint32_t q = static_cast<uint32_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      stack_paths.push_back(Path::Trivial(n));
      stack_states.push_back(q);
      while (!stack_paths.empty() && seen.size() < want) {
        Path p = std::move(stack_paths.back());
        stack_paths.pop_back();
        uint32_t state = stack_states.back();
        stack_states.pop_back();
        if (p.Length() == length) {
          if (nfa.final_mask() & (1ull << state)) seen.insert(p);
          continue;
        }
        nfa.ForEachStep(p.End(), [&](const PathNfa::Step& s) {
          PathNfa::StateMask next = nfa.AdvanceSingle(state, s);
          PathNfa::StateMask nrest = next;
          while (nrest != 0) {
            uint32_t nq = static_cast<uint32_t>(__builtin_ctzll(nrest));
            nrest &= nrest - 1;
            Path np = p;
            np.edges.push_back(s.edge);
            np.nodes.push_back(s.to);
            stack_paths.push_back(std::move(np));
            stack_states.push_back(nq);
          }
        });
      }
    }
  }
  *seconds = timer.Seconds();
  return seen.size();
}

/// One JSON record of the delay experiment.
struct DelayRow {
  size_t layers, width, threads;
  double total, t_preproc_ms, mean_delay_us, max_delay_us;
  size_t answers;
};

/// One JSON record of the ablation.
struct AblationRow {
  std::string query;
  const char* engine;
  size_t first_k;
  double millis;
};

}  // namespace

int main() {
  using namespace kgq;

  Table t("E2 — enumeration: preprocessing + per-answer delay",
          {"layers", "width", "threads", "total answers",
           "t_preproc(ms)", "mean delay(us)", "max delay(us)",
           "answers timed"});

  std::vector<DelayRow> delay_rows;
  bool delays_flat = true;
  double first_max_delay = 0.0;
  {
    // Phase span: kernel spans (reach_table.build, pathalg.exact.count)
    // nest under it in the exported obs tree.
    KGQ_SPAN("e2.delay_sweep");
    for (size_t layers : {6, 10, 14}) {
      const size_t width = 6;
      LabeledGraph g = LayeredDag(layers, width, "n", "e");
      const LabeledGraphView view(g);
      PathNfa nfa = *PathNfa::Compile(view, **ParseRegex("e*"));

      ExactPathIndex index(nfa, layers);
      double total = index.Count(layers);

      for (size_t threads : {size_t{1}, size_t{4}}) {
        PathQueryOptions popts;
        popts.parallel.num_threads = threads;
        Timer preproc;
        PathEnumerator enumerator(nfa, layers, popts);
        double t_preproc = preproc.Millis();

        const size_t timed = 20000;
        Path p;
        double max_delay = 0.0, sum_delay = 0.0;
        size_t produced = 0;
        for (size_t i = 0; i < timed; ++i) {
          Timer delay;
          if (!enumerator.Next(&p)) break;
          double us = delay.Micros();
          max_delay = std::max(max_delay, us);
          sum_delay += us;
          ++produced;
        }
        if (layers == 6 && threads == 1) first_max_delay = max_delay;
        // "Flat": max delay on the biggest instance within 20x of the
        // smallest (wall-clock noise tolerated), although the answer
        // count grew by 6^8 ≈ 1.7M times.
        if (layers == 14 &&
            max_delay > 20.0 * std::max(first_max_delay, 5.0)) {
          delays_flat = false;
        }
        double mean = produced == 0 ? 0.0 : sum_delay / produced;
        t.AddRow({std::to_string(layers), std::to_string(width),
                  std::to_string(threads), FormatDouble(total, 0),
                  FormatDouble(t_preproc, 2), FormatDouble(mean, 2),
                  FormatDouble(max_delay, 1), std::to_string(produced)});
        delay_rows.push_back({layers, width, threads, total, t_preproc, mean,
                              max_delay, produced});
      }
    }
  }
  t.Print(std::cout);

  // Ablation: configuration-level (dedup-free) enumeration vs run-level
  // DFS + dedup on an ambiguous query, time to first 5000 distinct
  // answers.
  Table ab("E2b — ablation: config-level enumeration vs run-level DFS+dedup",
           {"n", "query", "engine", "first-k", "t(ms)"});
  std::vector<AblationRow> ablation_rows;
  Rng gen(4242);
  LabeledGraph g = ErdosRenyi(150, 600, {"p"}, {"a", "b"}, &gen);
  LabeledGraphView view(g);
  {
    KGQ_SPAN("e2.ablation");
    for (const char* q : {"(a+b/b^-)*", "((a+b)/a + b/(a+b)/(a+b))*"}) {
      RegexPtr regex = *ParseRegex(q);
      const size_t k = 8, want = 5000;

      PathNfa nfa = *PathNfa::Compile(view, *regex);
      Timer t_config;
      PathEnumerator enumerator(nfa, k);
      Path p;
      size_t produced = 0;
      while (produced < want && enumerator.Next(&p)) ++produced;
      double ms = t_config.Millis();
      ab.AddRow({"150", q, "config-level", std::to_string(produced),
                 FormatDouble(ms, 1)});
      ablation_rows.push_back({q, "config-level", produced, ms});

      double run_secs = 0.0;
      size_t run_got = RunLevelDfsFirstK(nfa, k, want, &run_secs);
      ab.AddRow({"150", q, "run-level", std::to_string(run_got),
                 FormatDouble(run_secs * 1e3, 1)});
      ablation_rows.push_back({q, "run-level", run_got, run_secs * 1e3});
    }
  }
  ab.Print(std::cout);

  // Machine-readable mirror of everything above, plus the full obs
  // registry: per-answer delay histogram, edges-scanned counters, and
  // the nested phase-span tree (e2.delay_sweep / e2.ablation with the
  // kernel spans beneath them).
  {
    std::ofstream out("BENCH_e2_enum_delay.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e2_enum_delay");
    w.Key("delay");
    w.BeginArray();
    for (const DelayRow& r : delay_rows) {
      w.BeginObject();
      w.Key("layers");
      w.UInt(r.layers);
      w.Key("width");
      w.UInt(r.width);
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("total_answers");
      w.Double(r.total);
      w.Key("t_preproc_ms");
      w.Double(r.t_preproc_ms);
      w.Key("mean_delay_us");
      w.Double(r.mean_delay_us);
      w.Key("max_delay_us");
      w.Double(r.max_delay_us);
      w.Key("answers_timed");
      w.UInt(r.answers);
      w.EndObject();
    }
    w.EndArray();
    w.Key("ablation");
    w.BeginArray();
    for (const AblationRow& r : ablation_rows) {
      w.BeginObject();
      w.Key("query");
      w.String(r.query);
      w.Key("engine");
      w.String(r.engine);
      w.Key("first_k");
      w.UInt(r.first_k);
      w.Key("t_ms");
      w.Double(r.millis);
      w.EndObject();
    }
    w.EndArray();
    w.Key("delays_flat");
    w.Bool(delays_flat);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  std::printf("Paper shape: delay bounded by a polynomial in the input, "
              "independent of the answer count → %s\n",
              delays_flat ? "OK" : "FAIL");
  return delays_flat ? 0 : 1;
}
