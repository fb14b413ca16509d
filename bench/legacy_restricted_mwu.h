// The VERBATIM pre-change restricted MWU — the single canonical "before"
// of the flat-representation rewrite, shared by the two consumers that pin
// the library's restricted solver to it:
//
//   * bench/bench_m4_hot_path.cpp     speedup control + full output-equality
//   * tests/test_restricted_flat.cpp  bit-identity sweeps on random graphs
//
// Vertex-sequence candidates whose edge ids are re-resolved through the
// hash map on every solve, a nested vector<vector<vector<int>>> inner loop,
// and one MWU template computing max_log and the total over all m edges
// every round. Do NOT "optimize" or otherwise edit this — its entire point
// is to stay what the library used to do; both consumers lose their pin if
// the replica drifts.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "graph/shortest_path.h"
#include "lp/min_congestion.h"

namespace sor::legacy_restricted {

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
  std::vector<std::vector<int>> chosen_edges(k);
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

inline double congestion_of_weights(const Graph& g,
                             const std::vector<std::vector<Path>>& paths,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load) {
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t j = 0; j < paths.size(); ++j) {
    for (std::size_t i = 0; i < paths[j].size(); ++i) {
      if (weights[j][i] <= 0.0) continue;
      for (int e : path_edge_ids(g, paths[j][i])) {
        load[static_cast<std::size_t>(e)] += weights[j][i];
      }
    }
  }
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  if (edge_load) *edge_load = std::move(load);
  return congestion;
}

inline CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const std::vector<std::vector<Path>>& candidate_paths,
    const MinCongestionOptions& options) {
  const std::size_t k = commodities.size();

  // Per-call edge resolution: one hash lookup per hop per candidate.
  std::vector<std::vector<std::vector<int>>> edge_ids(k);
  for (std::size_t j = 0; j < k; ++j) {
    edge_ids[j].reserve(candidate_paths[j].size());
    for (const Path& p : candidate_paths[j]) {
      edge_ids[j].push_back(path_edge_ids(g, p));
    }
  }

  std::vector<std::vector<int>> counts(k);
  for (std::size_t j = 0; j < k; ++j) {
    counts[j].assign(candidate_paths[j].size(), 0);
  }

  auto best_response = [&](const std::vector<double>& lengths,
                           std::vector<std::vector<int>>& chosen_edges,
                           std::vector<double>& chosen_len) {
    for (std::size_t j = 0; j < k; ++j) {
      chosen_edges[j].clear();
      chosen_len[j] = 0.0;
      if (commodities[j].amount <= 0.0 || candidate_paths[j].empty()) continue;
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_i = 0;
      for (std::size_t i = 0; i < edge_ids[j].size(); ++i) {
        double len = 0.0;
        for (int e : edge_ids[j][i]) len += lengths[static_cast<std::size_t>(e)];
        if (len < best) {
          best = len;
          best_i = i;
        }
      }
      chosen_edges[j] = edge_ids[j][best_i];
      chosen_len[j] = best;
      ++counts[j][best_i];
    }
  };

  CongestionResult result = run_mwu(g, commodities, options, best_response);

  result.path_weights.assign(k, {});
  int total_rounds = std::max(result.rounds_used, 1);
  for (std::size_t j = 0; j < k; ++j) {
    result.path_weights[j].assign(candidate_paths[j].size(), 0.0);
    if (commodities[j].amount <= 0.0) continue;
    for (std::size_t i = 0; i < candidate_paths[j].size(); ++i) {
      result.path_weights[j][i] = commodities[j].amount *
                                  static_cast<double>(counts[j][i]) /
                                  static_cast<double>(total_rounds);
    }
  }
  result.congestion = congestion_of_weights(g, candidate_paths,
                                            result.path_weights,
                                            &result.edge_load);
  return result;
}

}  // namespace sor::legacy_restricted
