#include "oblivious/racke.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/semi_oblivious.h"
#include "fault/sor_error.h"
#include "graph/generators.h"

namespace sor {
namespace {

TEST(Racke, SampledPathsAreValid) {
  Rng rng(1);
  const Graph g = gen::grid(4, 4);
  RackeRouting routing(g, {.num_trees = 6}, rng);
  for (int trial = 0; trial < 100; ++trial) {
    const int s = rng.uniform_int(0, g.num_vertices() - 1);
    int t = rng.uniform_int(0, g.num_vertices() - 1);
    if (s == t) continue;
    const Path p = routing.sample_path(s, t, rng);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
  }
}

TEST(Racke, TreeRouteIsDeterministicPerTree) {
  Rng rng(2);
  const Graph g = gen::grid(3, 4);
  RackeRouting routing(g, {.num_trees = 4}, rng);
  EXPECT_EQ(routing.num_trees(), 4);
  for (int i = 0; i < routing.num_trees(); ++i) {
    EXPECT_EQ(routing.tree_route(i, 0, 11), routing.tree_route(i, 0, 11));
  }
}

class RackeCompetitivenessSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RackeCompetitivenessSweep, ObliviousCongestionNearOptimal) {
  const std::string which = GetParam();
  Rng rng(11);
  Graph g;
  if (which == "grid") g = gen::grid(4, 4);
  else if (which == "two_cliques") g = gen::two_cliques(5, 2);
  else if (which == "expander") g = gen::random_regular(16, 4, rng);
  else if (which == "gadget") g = gen::lower_bound_gadget(8, 3);
  ASSERT_TRUE(g.is_connected());

  RackeRouting routing(g, {.num_trees = 10}, rng);

  // A handful of random permutation demands; Racke's oblivious congestion
  // should be within a moderate factor of the offline optimum.
  double worst_ratio = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
    const double oblivious =
        estimate_congestion(routing, d.commodities(), 24, rng);
    const OptimalCongestion opt = optimal_congestion(g, d);
    ASSERT_GT(opt.value(), 0.0);
    worst_ratio = std::max(worst_ratio, oblivious / opt.value());
  }
  // O(log n) with generous constant for small instances + MC noise.
  EXPECT_LT(worst_ratio, 20.0) << "graph " << which;
}

INSTANTIATE_TEST_SUITE_P(Graphs, RackeCompetitivenessSweep,
                         ::testing::Values("grid", "two_cliques", "expander",
                                           "gadget"));

TEST(Racke, IterationBalancesLoad) {
  // With several trees, the max relative embedding load should not exceed
  // a single tree's by much; sanity-check it is finite and positive.
  Rng rng(3);
  const Graph g = gen::two_cliques(6, 2);
  RackeRouting one(g, {.num_trees = 1}, rng);
  RackeRouting many(g, {.num_trees = 12}, rng);
  EXPECT_GT(one.max_relative_embedding_load(), 0.0);
  EXPECT_GT(many.max_relative_embedding_load(), 0.0);
  // Averaging over many reweighted trees should not be worse than a single
  // unweighted tree (allow slack for randomness).
  EXPECT_LE(many.max_relative_embedding_load(),
            one.max_relative_embedding_load() * 1.5 + 1e-9);
}

// An infinite distance makes the FRT radius infinite, so clusters would
// never split and the build would never end. Both inputs below must fail
// fast with a typed error in every build type.
TEST(Racke, DisconnectedGraphThrowsTypedErrorInsteadOfHanging) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  std::string first_message;
  for (int threads : {1, 4}) {
    try {
      SorEngine::build(g, "racke:num_trees=2", 3, threads);
      ADD_FAILURE() << "build of a disconnected graph did not throw";
    } catch (const SorError& err) {
      EXPECT_EQ(err.code(), ErrorCode::kInfiniteDistance);
      EXPECT_EQ(err.site(), "frt_metric");
      // The reported pair is the first in row-major order, whatever the
      // thread count.
      if (first_message.empty()) first_message = err.what();
      EXPECT_EQ(first_message, err.what());
    }
  }
}

TEST(Racke, OverflowingLengthsThrowTypedErrorInsteadOfHanging) {
  // On a path every tree loads every edge, and eta = 1000 overflows the
  // most loaded edge's length exp(eta * 1) / cap to infinity.
  Graph g(8);
  for (int v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1);
  try {
    SorEngine::build(g, "racke:num_trees=8,eta=1000", 1);
    ADD_FAILURE() << "overflowing lengths did not throw";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kInfiniteDistance);
    EXPECT_EQ(err.site(), "frt_metric");
  }
}

TEST(Racke, RegistryRejectsNonFiniteOrNegativeEta) {
  const Graph g = gen::grid(3, 3);
  for (const char* spec : {"racke:eta=-1", "racke:eta=inf", "racke:eta=nan"}) {
    EXPECT_THROW(SorEngine::build(g, spec, 1), std::invalid_argument) << spec;
  }
  EXPECT_NO_THROW(SorEngine::build(g, "racke:num_trees=2,eta=0", 1));
}

}  // namespace
}  // namespace sor
