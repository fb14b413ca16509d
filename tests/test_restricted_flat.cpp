// Pins the flat restricted MWU (min_congestion_over_paths) to the
// pre-change reference loop, the same way tests/test_free_path_flat.cpp
// pins the free solver: the verbatim replica of the old implementation
// (bench/legacy_restricted_mwu.h, shared with bench_m4_hot_path) must give
// BIT-IDENTICAL outputs — congestion, dual bound, rounds used, every edge
// load and every path weight.
#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include "../bench/legacy_restricted_mwu.h"
#include "candidate_lists.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {
namespace {

namespace reference = sor::legacy_restricted;

/// Capacitated random graph: unit structure with varied capacities so the
/// capacity divisions and tie patterns differ from the unit-cap case.
Graph random_capacitated(int n, double p, Rng& rng) {
  const Graph base = gen::erdos_renyi_connected(n, p, rng);
  Graph g(n);
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, 0.5 + rng.uniform_double() * 3.0);
  }
  return g;
}

/// Candidates with the shapes the dedup'd scan must preserve: shortest
/// paths sampled with replacement (so duplicates occur), detours through a
/// random waypoint, and an explicit copy of the first candidate.
std::vector<Path> random_candidates(const Graph& g,
                                    const ShortestPathSampler& sampler, int s,
                                    int t, Rng& rng) {
  std::vector<Path> cands;
  const int count = 1 + rng.uniform_int(0, 6);
  for (int c = 0; c < count; ++c) {
    if (rng.uniform_int(0, 1) == 0) {
      cands.push_back(sampler.sample(s, t, rng));
      continue;
    }
    const int w = rng.uniform_int(0, g.num_vertices() - 1);
    Path walk = sampler.sample(s, w, rng);
    const Path tail = sampler.sample(w, t, rng);
    walk.insert(walk.end(), tail.begin() + 1, tail.end());
    cands.push_back(simplify_walk(walk));
  }
  cands.push_back(cands.front());
  return cands;
}

class RestrictedFlatSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestrictedFlatSweep, BitIdenticalToReferenceLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const Graph g = random_capacitated(14 + GetParam() % 5, 0.3, rng);
  const ShortestPathSampler sampler(g);
  std::vector<Commodity> commodities;
  std::vector<std::vector<Path>> paths;
  for (int i = 0; i < 9; ++i) {
    const int s = rng.uniform_int(0, g.num_vertices() - 1);
    int t = rng.uniform_int(0, g.num_vertices() - 1);
    if (s == t) t = (t + 1) % g.num_vertices();
    // Every third commodity carries no demand: both loops must skip it and
    // report all-zero weights over its candidates.
    const double amount = i % 3 == 2 ? 0.0 : 0.5 + rng.uniform_double() * 2.0;
    commodities.push_back({s, t, amount});
    paths.push_back(random_candidates(g, sampler, s, t, rng));
  }
  MinCongestionOptions options;
  options.rounds = 300;
  options.min_rounds = 30;
  const auto flat = min_congestion_over_paths(
      g, commodities, intern_candidates(g, paths), options);
  const auto ref =
      reference::min_congestion_over_paths(g, commodities, paths, options);

  EXPECT_EQ(flat.congestion, ref.congestion);
  EXPECT_EQ(flat.lower_bound, ref.lower_bound);
  EXPECT_EQ(flat.rounds_used, ref.rounds_used);
  ASSERT_EQ(flat.edge_load.size(), ref.edge_load.size());
  for (std::size_t e = 0; e < flat.edge_load.size(); ++e) {
    EXPECT_EQ(flat.edge_load[e], ref.edge_load[e]) << "edge " << e;
  }
  ASSERT_EQ(flat.path_weights.size(), ref.path_weights.size());
  for (std::size_t j = 0; j < flat.path_weights.size(); ++j) {
    ASSERT_EQ(flat.path_weights[j].size(), ref.path_weights[j].size());
    for (std::size_t i = 0; i < flat.path_weights[j].size(); ++i) {
      EXPECT_EQ(flat.path_weights[j][i], ref.path_weights[j][i])
          << "commodity " << j << " path " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestrictedFlatSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace sor
