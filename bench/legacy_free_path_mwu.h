// The VERBATIM pre-change free-path MWU — the single canonical "before" of
// the PR-4 flat rewrite, shared by the two consumers that pin the library
// solver to it:
//
//   * bench/bench_m5_free_path.cpp   speedup control + full output-equality
//   * tests/test_free_path_flat.cpp  bit-identity sweeps on random graphs
//
// One shared MWU template computing max_log and the total over all m edges
// every round, and a best response that re-allocates the by-source table,
// the Dijkstra distance vector, the parent array, and the heap on every
// call. Do NOT "optimize" or otherwise edit this — its entire point is to
// stay what the library used to do; both consumers lose their pin if the
// replica drifts.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "graph/shortest_path.h"
#include "legacy_dijkstra.h"
#include "lp/min_congestion.h"

namespace sor::legacy_free_path {

template <typename BestResponse>
CongestionResult run_mwu(const Graph& g,
                         const std::vector<Commodity>& commodities,
                         const MinCongestionOptions& options,
                         BestResponse&& best_response) {
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  CongestionResult result;
  result.edge_load.assign(m, 0.0);
  if (k == 0 || m == 0) {
    result.congestion = 0.0;
    result.lower_bound = 0.0;
    return result;
  }

  std::vector<double> log_x(m, 0.0);
  std::vector<double> x(m, 1.0 / static_cast<double>(m));
  std::vector<double> lengths(m, 0.0);
  std::vector<double> cumulative_load(m, 0.0);
  std::vector<double> round_load(m, 0.0);
  std::vector<std::span<const int>> chosen_edges(k);
  std::vector<double> chosen_len(k, 0.0);

  const double eta =
      std::sqrt(std::log(static_cast<double>(m) + 2.0) /
                static_cast<double>(std::max(options.rounds, 1)));

  double width_norm = 0.0;
  double best_lower = 0.0;
  int round = 0;
  for (round = 0; round < options.rounds; ++round) {
    double max_log = -std::numeric_limits<double>::infinity();
    for (double lx : log_x) max_log = std::max(max_log, lx);
    double total = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      x[e] = std::exp(log_x[e] - max_log);
      total += x[e];
    }
    for (std::size_t e = 0; e < m; ++e) {
      x[e] /= total;
      lengths[e] = x[e] / g.edge(static_cast<int>(e)).capacity;
    }

    best_response(lengths, chosen_edges, chosen_len);

    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      dual += commodities[j].amount * chosen_len[j];
    }
    best_lower = std::max(best_lower, dual);

    std::fill(round_load.begin(), round_load.end(), 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      for (int e : chosen_edges[j]) {
        round_load[static_cast<std::size_t>(e)] += commodities[j].amount;
      }
    }
    double width = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      cumulative_load[e] += round_load[e];
      width = std::max(width,
                       round_load[e] / g.edge(static_cast<int>(e)).capacity);
    }
    width_norm = std::max(width_norm, width);
    if (width_norm > 0.0) {
      for (std::size_t e = 0; e < m; ++e) {
        log_x[e] += eta * (round_load[e] /
                           g.edge(static_cast<int>(e)).capacity) /
                    width_norm;
      }
    }
    if (round + 1 >= options.min_rounds && best_lower > 0.0) {
      double ub = 0.0;
      for (std::size_t e = 0; e < m; ++e) {
        ub = std::max(ub, cumulative_load[e] /
                              (static_cast<double>(round + 1) *
                               g.edge(static_cast<int>(e)).capacity));
      }
      if (ub <= best_lower * options.target_gap) {
        ++round;
        break;
      }
    }
  }

  const double rounds_used = static_cast<double>(std::max(round, 1));
  double congestion = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    result.edge_load[e] = cumulative_load[e] / rounds_used;
    congestion = std::max(
        congestion, result.edge_load[e] / g.edge(static_cast<int>(e)).capacity);
  }
  result.congestion = congestion;
  result.lower_bound = best_lower;
  result.rounds_used = round;
  return result;
}

inline CongestionResult min_congestion_free(
    const Graph& g, const std::vector<Commodity>& commodities,
    const MinCongestionOptions& options) {
  std::vector<std::vector<int>> owned(commodities.size());
  auto best_response = [&](const std::vector<double>& lengths,
                           std::vector<std::span<const int>>& chosen_edges,
                           std::vector<double>& chosen_len) {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      owned[j].clear();
      chosen_edges[j] = {};
      chosen_len[j] = 0.0;
    }
    std::vector<std::vector<std::size_t>> by_source(
        static_cast<std::size_t>(g.num_vertices()));
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      if (commodities[j].amount > 0.0) {
        by_source[static_cast<std::size_t>(commodities[j].s)].push_back(j);
      }
    }
    for (int s = 0; s < g.num_vertices(); ++s) {
      const auto& js = by_source[static_cast<std::size_t>(s)];
      if (js.empty()) continue;
      std::vector<int> parent_edge;
      const auto dist =
          legacy_dijkstra::dijkstra(g, s, lengths, &parent_edge);
      for (std::size_t j : js) {
        const int t = commodities[j].t;
        chosen_len[j] = dist[static_cast<std::size_t>(t)];
        int v = t;
        while (v != s) {
          const int e = parent_edge[static_cast<std::size_t>(v)];
          owned[j].push_back(e);
          v = g.edge(e).other(v);
        }
        chosen_edges[j] = owned[j];
      }
    }
  };

  return run_mwu(g, commodities, options, best_response);
}

}  // namespace sor::legacy_free_path
