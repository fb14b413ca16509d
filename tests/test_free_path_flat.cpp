// Pins the flat free-path MWU (min_congestion_free) to the pre-change
// reference loop, the same way tests/test_path_store.cpp pins the
// restricted solver: a verbatim replica of the old implementation (shared
// run_mwu template + naive Dijkstra best response, per-round allocations
// and all) is kept here, and the library solver's outputs must be
// BIT-IDENTICAL — congestion, dual bound, rounds used, and every edge load.
//
// The fast-math tests below enforce the opt-in epsilon contract documented
// on MinCongestionOptions::fast_math: outputs within 0.05 * max(1, exact)
// of exact mode, cross-valid certificates (each run's dual bound below the
// other run's congestion), and the knob off by default everywhere.
#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "../bench/legacy_free_path_mwu.h"
#include "api/sor_engine.h"
#include "candidate_lists.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
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

// ---------------------------------------------------------------------------
// Fast-math epsilon contract.
// ---------------------------------------------------------------------------

double contract_bound(double exact) { return 0.05 * std::max(1.0, exact); }

// Both runs certify the same LP: each dual lower bound must sit below the
// other run's congestion (up to the 1 + m * 2^-52 dual slack).
void expect_cross_valid(const CongestionResult& fast,
                        const CongestionResult& exact) {
  EXPECT_LE(fast.lower_bound, exact.congestion * (1.0 + 1e-9) + 1e-12);
  EXPECT_LE(exact.lower_bound, fast.congestion * (1.0 + 1e-9) + 1e-12);
}

TEST(FastMath, OffByDefaultEverywhere) {
  EXPECT_FALSE(MinCongestionOptions{}.fast_math);
  EXPECT_FALSE(RouteSpec{}.fast_math);
  EXPECT_FALSE(RouteSpec{}.mwu.fast_math);
}

class FastMathFreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FastMathFreeSweep, FreeSolverWithinContract) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 5);
  const Graph g = (GetParam() % 2 == 0)
                      ? gen::erdos_renyi_connected(22, 0.22, rng)
                      : random_capacitated(18, 0.3, rng);
  const auto commodities = random_commodities(g.num_vertices(), 6, rng);
  MinCongestionOptions exact_opts;
  exact_opts.rounds = 300;
  MinCongestionOptions fast_opts = exact_opts;
  fast_opts.fast_math = true;
  const auto exact = min_congestion_free(g, commodities, exact_opts);
  const auto fast = min_congestion_free(g, commodities, fast_opts);
  EXPECT_NEAR(fast.congestion, exact.congestion,
              contract_bound(exact.congestion));
  EXPECT_NEAR(fast.lower_bound, exact.lower_bound,
              contract_bound(exact.lower_bound));
  expect_cross_valid(fast, exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastMathFreeSweep, ::testing::Range(0, 6));

class FastMathRestrictedSweep : public ::testing::TestWithParam<int> {};

TEST_P(FastMathRestrictedSweep, RestrictedSolverWithinContract) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 23);
  const Graph g = gen::erdos_renyi_connected(16, 0.25, rng);
  ShortestPathSampler sampler(g);
  std::vector<Commodity> commodities;
  std::vector<std::vector<Path>> paths;
  for (int i = 0; i < 6; ++i) {
    const int s = rng.uniform_int(0, g.num_vertices() - 1);
    int t = rng.uniform_int(0, g.num_vertices() - 1);
    if (s == t) continue;
    commodities.push_back({s, t, 1.0 + rng.uniform_double()});
    std::vector<Path> cands;
    for (int c = 0; c < 4; ++c) cands.push_back(sampler.sample(s, t, rng));
    paths.push_back(std::move(cands));
  }
  if (commodities.empty()) return;
  MinCongestionOptions exact_opts;
  exact_opts.rounds = 400;
  MinCongestionOptions fast_opts = exact_opts;
  fast_opts.fast_math = true;
  const FlatCandidates candidates = intern_candidates(g, paths);
  const auto exact = min_congestion_over_paths(g, commodities, candidates,
                                               exact_opts);
  const auto fast = min_congestion_over_paths(g, commodities, candidates,
                                              fast_opts);
  EXPECT_NEAR(fast.congestion, exact.congestion,
              contract_bound(exact.congestion));
  EXPECT_NEAR(fast.lower_bound, exact.lower_bound,
              contract_bound(exact.lower_bound));
  expect_cross_valid(fast, exact);
  // The fast weights are still a feasible routing of the full demand.
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    double sum = 0.0;
    for (double w : fast.path_weights[j]) sum += w;
    EXPECT_NEAR(sum, commodities[j].amount, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastMathRestrictedSweep,
                         ::testing::Range(0, 6));

TEST(FastMath, EngineRouteSpecPropagates) {
  // RouteSpec::fast_math flows into both the restricted solve and the
  // offline-optimum oracle; results stay within the contract of the exact
  // run and the flag defaults to off.
  Rng rng(7);
  Graph g = gen::grid(4, 4, /*wrap=*/true);
  SorEngine engine = SorEngine::build(std::move(g), "shortest_path", 3);
  Demand d;
  d.set(0, 15, 2.0);
  d.set(5, 10, 1.0);
  engine.install_paths(SamplingSpec::for_demand(d, /*alpha=*/4));

  RouteSpec exact_spec;
  const RouteReport exact = engine.route(d, exact_spec);
  RouteSpec fast_spec;
  fast_spec.fast_math = true;
  const RouteReport fast = engine.route(d, fast_spec);
  EXPECT_NEAR(fast.congestion, exact.congestion,
              contract_bound(exact.congestion));
  EXPECT_NEAR(fast.opt_lower_bound, exact.opt_lower_bound,
              contract_bound(exact.opt_lower_bound));
}

}  // namespace
}  // namespace sor
