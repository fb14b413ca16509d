// Pins the flat free-path MWU (min_congestion_free) to the pre-change
// reference loop, the same way tests/test_path_store.cpp pins the
// restricted solver: a verbatim replica of the old implementation (shared
// run_mwu template + naive Dijkstra best response, per-round allocations
// and all) is kept here, and the library solver's outputs must be
// BIT-IDENTICAL — congestion, dual bound, rounds used, and every edge load.
#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include "../bench/legacy_free_path_mwu.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sor {
namespace {

// The verbatim pre-change reference lives in bench/legacy_free_path_mwu.h
// (one canonical "before", shared with bench_m5_free_path's speedup
// control).
namespace reference = sor::legacy_free_path;

// Random sparse commodity list (distinct sources shared by several pairs,
// the shape the by-source Dijkstra grouping must preserve).
std::vector<Commodity> random_commodities(int n, int pairs, Rng& rng) {
  std::vector<Commodity> commodities;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    commodities.push_back({s, t, 0.5 + rng.uniform_double() * 2.0});
  }
  return commodities;
}

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

void expect_bit_identical(const CongestionResult& flat,
                          const CongestionResult& ref) {
  EXPECT_EQ(flat.congestion, ref.congestion);
  EXPECT_EQ(flat.lower_bound, ref.lower_bound);
  EXPECT_EQ(flat.rounds_used, ref.rounds_used);
  ASSERT_EQ(flat.edge_load.size(), ref.edge_load.size());
  for (std::size_t e = 0; e < flat.edge_load.size(); ++e) {
    EXPECT_EQ(flat.edge_load[e], ref.edge_load[e]) << "edge " << e;
  }
}

class FreePathFlatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FreePathFlatSweep, BitIdenticalToReferenceLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  const Graph g = (GetParam() % 2 == 0)
                      ? gen::erdos_renyi_connected(24, 0.2, rng)
                      : random_capacitated(20, 0.25, rng);
  const auto commodities = random_commodities(g.num_vertices(), 8, rng);
  MinCongestionOptions options;
  options.rounds = 300;
  options.min_rounds = 30;
  const auto flat = min_congestion_free(g, commodities, options);
  const auto ref = reference::min_congestion_free(g, commodities, options);
  expect_bit_identical(flat, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreePathFlatSweep, ::testing::Range(0, 8));

TEST(FreePathFlat, BitIdenticalOnHypercubeTies) {
  // Hypercube + unit capacities maximizes length ties (many equal-hop
  // shortest paths): the tie-breaking of the heap walk must match exactly.
  const Graph g = gen::hypercube(5);
  Rng rng(42);
  const auto commodities = random_commodities(g.num_vertices(), 10, rng);
  MinCongestionOptions options;
  options.rounds = 400;
  const auto flat = min_congestion_free(g, commodities, options);
  const auto ref = reference::min_congestion_free(g, commodities, options);
  expect_bit_identical(flat, ref);
}

TEST(FreePathFlat, ZeroAmountCommoditiesAndEmptyInput) {
  const Graph g = gen::complete(5);
  const auto empty = min_congestion_free(g, {});
  EXPECT_DOUBLE_EQ(empty.congestion, 0.0);

  // Zero-amount commodities are skipped by both loops identically.
  std::vector<Commodity> commodities = {{0, 1, 0.0}, {1, 4, 2.0}, {2, 3, 0.0}};
  const auto flat = min_congestion_free(g, commodities);
  const auto ref = reference::min_congestion_free(g, commodities, {});
  expect_bit_identical(flat, ref);
}

}  // namespace
}  // namespace sor
