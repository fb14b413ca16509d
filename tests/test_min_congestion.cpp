#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include "candidate_lists.h"
#include "fault/sor_error.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {
namespace {

TEST(MinCongestion, CongestionOfWeightsComputesLoads) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<Commodity> demand = {{0, 2, 3.0}};
  const FlatCandidates paths = intern_candidates(g, {{{0, 1, 2}}});
  const std::vector<std::vector<double>> weights = {{3.0}};
  std::vector<double> load;
  const double cong = congestion_of_weights(g, demand, paths, weights, &load);
  EXPECT_DOUBLE_EQ(load[0], 3.0);
  EXPECT_DOUBLE_EQ(load[1], 3.0);
  EXPECT_DOUBLE_EQ(cong, 3.0);  // edge (1,2) capacity 1
}

TEST(MinCongestion, SingleCommoditySinglePath) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const std::vector<Commodity> demand = {{0, 1, 2.0}};
  const FlatCandidates paths = intern_candidates(g, {{{0, 1}}});
  const auto result = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(result.congestion, 2.0, 1e-9);
  EXPECT_NEAR(result.path_weights[0][0], 2.0, 1e-9);
}

TEST(MinCongestion, SplitsAcrossParallelPaths) {
  // Diamond: 0-1-3 and 0-2-3, unit capacities, demand 2 from 0 to 3:
  // optimal split gives congestion 1.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 3, 2.0}};
  const FlatCandidates paths = intern_candidates(g, {{{0, 1, 3}, {0, 2, 3}}});
  const auto result = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(result.congestion, 1.0, 0.05);
  EXPECT_NEAR(result.path_weights[0][0], 1.0, 0.1);
  EXPECT_NEAR(result.path_weights[0][1], 1.0, 0.1);
  // Dual certificate is valid: lower <= true optimum (1.0).
  EXPECT_LE(result.lower_bound, 1.0 + 1e-9);
}

TEST(MinCongestion, RespectsCapacities) {
  // Two paths, one with capacity 3 and one with capacity 1; optimal load
  // ratio is 3:1 giving congestion demand/4.
  Graph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<Commodity> demand = {{0, 3, 4.0}};
  const FlatCandidates paths = intern_candidates(g, {{{0, 1, 3}, {0, 2, 3}}});
  const auto exact = min_congestion_over_paths_exact(g, demand, paths);
  EXPECT_NEAR(exact.congestion, 1.0, 1e-6);
  const auto mwu = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(mwu.congestion, 1.0, 0.08);
}

TEST(MinCongestion, ExactMatchesHandSolvedInstance) {
  // Two commodities forced over a shared edge of capacity 1.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {0, 2, 1.0}};
  const FlatCandidates paths = intern_candidates(g, {{{0, 1}}, {{0, 1, 2}}});
  const auto exact = min_congestion_over_paths_exact(g, demand, paths);
  EXPECT_NEAR(exact.congestion, 2.0, 1e-6);  // edge (0,1) carries both
}

TEST(MinCongestion, FreeExactOnDiamond) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 3, 2.0}};
  EXPECT_NEAR(min_congestion_free_exact(g, demand), 1.0, 1e-6);
}

TEST(MinCongestion, FreeExactTerminatesWithRedundantConservationRows) {
  // A tree with opposing commodities: each commodity's conservation rows
  // sum to zero, so phase 1 leaves redundant rows behind. The simplex used
  // to keep their artificials basic under a big-M cost and cycled forever
  // in phase 2 on exactly this instance.
  Graph g(5);
  g.add_edge(0, 2, 0.57865062787394228);
  g.add_edge(0, 4, 1.3550520603025531);
  g.add_edge(1, 4, 0.75407908775768329);
  g.add_edge(3, 2, 0.62130551202654849);
  const std::vector<Commodity> demand = {
      {3, 1, 2.33482}, {1, 3, 1.91885}, {3, 4, 1.15986}};
  // Every commodity crosses edge (0, 2), the bottleneck of the only routing.
  EXPECT_NEAR(min_congestion_free_exact(g, demand),
              (2.33482 + 1.91885 + 1.15986) / 0.57865062787394228, 1e-9);
}

TEST(MinCongestion, FreeMwuSandwichedByDuality) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(10, 0.35, rng);
  std::vector<Commodity> demand;
  for (int i = 0; i < 4; ++i) {
    demand.push_back({i, 9 - i, 1.0 + i * 0.5});
  }
  MinCongestionOptions options;
  options.rounds = 1500;
  const auto result = min_congestion_free(g, demand, options);
  const double exact = min_congestion_free_exact(g, demand);
  EXPECT_LE(result.lower_bound, exact + 1e-6);
  EXPECT_GE(result.congestion, exact - 1e-6);
  // MWU should be close to optimal.
  EXPECT_LE(result.congestion, exact * 1.1 + 1e-6);
}

TEST(MinCongestion, EmptyDemandIsZero) {
  const Graph g = gen::complete(4);
  const auto result = min_congestion_free(g, {});
  EXPECT_DOUBLE_EQ(result.congestion, 0.0);
}

// ---------------------------------------------------------------------------
// Simplex sandwiches: the dense-simplex LP optimum LP* shares no code with
// the MWU driver, and every tier's certificate must bracket it,
//   lower_bound <= LP* <= congestion.
// ---------------------------------------------------------------------------

struct Tier {
  const char* name;
  MinCongestionOptions options;
};

/// Cold, round-budgeted and warm-seeded variants of `base`.
std::vector<Tier> three_tiers(const MinCongestionOptions& base,
                              const MwuWarmStart& warm) {
  std::vector<Tier> tiers(3, Tier{"cold", base});
  tiers[1].name = "max_rounds=40";
  tiers[1].options.budget.max_rounds = 40;
  tiers[2].name = "warm";
  tiers[2].options.warm = &warm;
  return tiers;
}

void expect_sandwich(const CongestionResult& result, double lp_star,
                     const char* tier) {
  EXPECT_LE(result.lower_bound, lp_star + 1e-6) << tier;
  EXPECT_LE(lp_star, result.congestion + 1e-6) << tier;
}

/// Random demand over a few pairs; candidates = 3 random shortest paths.
void random_restricted_instance(const Graph& g,
                                const ShortestPathSampler& sampler, Rng& rng,
                                std::vector<Commodity>& demand,
                                FlatCandidates& candidates) {
  const int n = g.num_vertices();
  std::vector<std::vector<Path>> paths;
  for (int i = 0; i < 5; ++i) {
    int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) continue;
    demand.push_back({s, t, 1.0 + rng.uniform_double() * 2.0});
    std::vector<Path> cands;
    for (int c = 0; c < 3; ++c) cands.push_back(sampler.sample(s, t, rng));
    paths.push_back(std::move(cands));
  }
  candidates = intern_candidates(g, paths);
}

class MwuVsSimplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(MwuVsSimplexSweep, RestrictedMwuNearExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  ShortestPathSampler sampler(g);

  std::vector<Commodity> demand;
  FlatCandidates paths;
  random_restricted_instance(g, sampler, rng, demand, paths);
  if (demand.empty()) return;

  const auto exact = min_congestion_over_paths_exact(g, demand, paths);
  MinCongestionOptions options;
  options.rounds = 2000;
  options.target_gap = 1.01;
  const auto mwu = min_congestion_over_paths(g, demand, paths, options);

  EXPECT_GE(mwu.congestion, exact.congestion - 1e-6);
  EXPECT_LE(mwu.congestion, exact.congestion * 1.1 + 1e-6);
  EXPECT_LE(mwu.lower_bound, exact.congestion + 1e-6);

  // Weights are a feasible routing: per-commodity sums match demands.
  for (std::size_t j = 0; j < demand.size(); ++j) {
    double sum = 0.0;
    for (double w : mwu.path_weights[j]) sum += w;
    EXPECT_NEAR(sum, demand[j].amount, 1e-6);
  }

  // The warm tier is seeded from a different demand on the same graph.
  std::vector<Commodity> other_demand;
  FlatCandidates other_paths;
  random_restricted_instance(g, sampler, rng, other_demand, other_paths);
  std::vector<double> captured;
  MinCongestionOptions capture = options;
  capture.capture_log_x = &captured;
  min_congestion_over_paths(g, other_demand, other_paths, capture);
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(g.num_edges()));
  const MwuWarmStart warm{captured, 1.0};
  for (const Tier& tier : three_tiers(options, warm)) {
    expect_sandwich(
        min_congestion_over_paths(g, demand, paths, tier.options),
        exact.congestion, tier.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwuVsSimplexSweep, ::testing::Range(0, 50));

/// Random demand over a few pairs of a small connected graph.
std::vector<Commodity> random_free_demand(int n, Rng& rng) {
  std::vector<Commodity> demand;
  for (int i = 0; i < 3; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    demand.push_back({s, t, 0.5 + rng.uniform_double() * 2.0});
  }
  return demand;
}

class FreeMwuVsSimplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(FreeMwuVsSimplexSweep, EveryTierBracketsTheEdgeFlowLp) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 29);
  const int n = 5 + GetParam() % 4;  // n in [5, 8]
  const Graph base = gen::erdos_renyi_connected(n, 0.4, rng);
  Graph g(n);
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, 0.5 + rng.uniform_double() * 2.0);
  }
  const auto demand = random_free_demand(n, rng);
  const double lp_star = min_congestion_free_exact(g, demand);

  std::vector<double> captured;
  MinCongestionOptions capture;
  capture.capture_log_x = &captured;
  min_congestion_free(g, random_free_demand(n, rng), capture);
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(g.num_edges()));
  const MwuWarmStart warm{captured, 1.0};
  for (const Tier& tier : three_tiers(MinCongestionOptions{}, warm)) {
    expect_sandwich(min_congestion_free(g, demand, tier.options), lp_star,
                    tier.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeMwuVsSimplexSweep,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------------
// Input guards that hold in every build type (typed errors, not asserts).
// ---------------------------------------------------------------------------

TEST(MinCongestion, UncoveredCommodityIsATypedError) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const FlatCandidates paths = intern_candidates(g, {{{0, 1}}, {}});
  // A zero-amount commodity may have no candidates...
  const std::vector<Commodity> idle = {{0, 1, 1.0}, {1, 2, 0.0}};
  EXPECT_NO_THROW(min_congestion_over_paths(g, idle, paths));
  // ...a positive one may not: dropping it would under-report congestion.
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {1, 2, 5.0}};
  try {
    min_congestion_over_paths(g, demand, paths);
    FAIL() << "expected SorError";
  } catch (const SorError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUninstalledPair);
    EXPECT_EQ(e.site(), "min_congestion_over_paths");
  }
}

TEST(MinCongestion, FreeUnreachableTargetIsATypedError) {
  // Two components: 0-1 and 2-3.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {0, 3, 2.0}};
  try {
    min_congestion_free(g, demand);
    FAIL() << "expected SorError";
  } catch (const SorError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedDemand);
    EXPECT_EQ(e.site(), "min_congestion_free");
  }
  // The reachable part alone solves normally.
  EXPECT_NEAR(min_congestion_free(g, {{0, 1, 1.0}}).congestion, 1.0, 1e-9);
}

/// Runs `call`, which must throw SorError{code, site}.
template <class Call>
void expect_sor_error(Call call, ErrorCode code, const std::string& site) {
  try {
    call();
    ADD_FAILURE() << "expected SorError at " << site;
  } catch (const SorError& e) {
    EXPECT_EQ(e.code(), code) << error_code_name(e.code());
    EXPECT_EQ(e.site(), site);
  }
}

TEST(MinCongestion, ExactOraclesRejectWhatTheMwuSolversReject) {
  // Restricted: a positive-amount commodity without candidates used to
  // solve to congestion 0 (the LP simply had no row for it).
  Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  const FlatCandidates paths = intern_candidates(path, {{{0, 1}}, {}});
  expect_sor_error(
      [&] {
        min_congestion_over_paths_exact(path, {{0, 1, 1.0}, {1, 2, 5.0}},
                                        paths);
      },
      ErrorCode::kUninstalledPair, "min_congestion_over_paths_exact");
  // A zero-amount commodity may have none, exactly as in the MWU solve.
  EXPECT_NEAR(min_congestion_over_paths_exact(path, {{0, 1, 1.0}, {1, 2, 0.0}},
                                              paths)
                  .congestion,
              1.0, 1e-9);

  // Free: an unreachable target used to solve to congestion 0.
  Graph two(4);
  two.add_edge(0, 1);
  two.add_edge(2, 3);
  expect_sor_error(
      [&] { min_congestion_free_exact(two, {{0, 1, 1.0}, {0, 3, 2.0}}); },
      ErrorCode::kMalformedDemand, "min_congestion_free_exact");
  expect_sor_error([&] { min_congestion_free_exact(two, {{0, 7, 1.0}}); },
                   ErrorCode::kMalformedDemand, "min_congestion_free_exact");
  EXPECT_NEAR(min_congestion_free_exact(two, {{0, 1, 1.0}, {0, 3, 0.0}}), 1.0,
              1e-9);
}

TEST(MinCongestion, CommodityCountMismatchIsATypedError) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // Two commodities, one candidate entry: used to read past the list.
  const FlatCandidates one = intern_candidates(g, {{{0, 1}}});
  const std::vector<Commodity> two = {{0, 1, 1.0}, {1, 2, 1.0}};
  expect_sor_error([&] { min_congestion_over_paths(g, two, one); },
                   ErrorCode::kMalformedDemand, "min_congestion_over_paths");
  MinCongestionScratch scratch;
  CongestionResult out;
  expect_sor_error(
      [&] { min_congestion_over_paths_into(g, two, one, {}, scratch, out); },
      ErrorCode::kMalformedDemand, "min_congestion_over_paths");
  expect_sor_error([&] { min_congestion_over_paths_exact(g, two, one); },
                   ErrorCode::kMalformedDemand,
                   "min_congestion_over_paths_exact");
  expect_sor_error([&] { congestion_of_weights(g, two, one, {{1.0}, {1.0}}); },
                   ErrorCode::kMalformedDemand, "congestion_of_weights");

  // Matching candidates, mismatched weights: too few commodities' worth,
  // and the wrong count for one commodity.
  const FlatCandidates both = intern_candidates(g, {{{0, 1}}, {{1, 2}}});
  expect_sor_error([&] { congestion_of_weights(g, two, both, {{1.0}}); },
                   ErrorCode::kMalformedDemand, "congestion_of_weights");
  expect_sor_error(
      [&] { congestion_of_weights(g, two, both, {{1.0}, {1.0, 0.0}}); },
      ErrorCode::kMalformedDemand, "congestion_of_weights");
  EXPECT_NEAR(congestion_of_weights(g, two, both, {{1.0}, {2.0}}), 2.0, 1e-12);
}

}  // namespace
}  // namespace sor
