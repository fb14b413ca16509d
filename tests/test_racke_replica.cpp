// Pins the Räcke/FRT construction to its verbatim pre-change replica
// (bench/legacy_racke.h), which recomputes the all-pairs metric inside
// every FRT tree with a binary-heap Dijkstra. The library shares one metric
// per MWU wave and runs its rows on the CSR kernel; every tree it builds —
// nodes (parent, center, depth, embedded path), leaves, cluster boundaries
// and the tree route of every ordered pair — must be BIT-IDENTICAL to the
// replica's, for every wave size, thread count and tree count.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "../bench/legacy_racke.h"
#include "graph/generators.h"
#include "oblivious/frt.h"
#include "oblivious/racke.h"
#include "util/rng.h"

namespace sor {
namespace {

namespace reference = sor::legacy_racke;

Graph make_graph(const std::string& which) {
  Rng rng(77);
  if (which == "torus8x8") return gen::grid(8, 8, /*wrap=*/true);
  if (which == "hypercube6") return gen::hypercube(6);
  if (which == "two_cliques") return gen::two_cliques(12, 3);
  // random_regular64: degree 4 with random capacities, so lengths (and
  // hence distances) are not multiples of one unit.
  Graph g = gen::random_regular(64, 4, rng);
  for (int e = 0; e < g.num_edges(); ++e) {
    g.set_capacity(e, 0.5 + 4.0 * rng.uniform_double());
  }
  return g;
}

template <class LibraryTree, class ReplicaTree>
void expect_same_tree(const Graph& g, const LibraryTree& tree,
                      const ReplicaTree& replica, const std::string& where) {
  ASSERT_EQ(tree.nodes().size(), replica.nodes().size()) << where;
  for (std::size_t id = 0; id < tree.nodes().size(); ++id) {
    const FrtNode& a = tree.nodes()[id];
    const FrtNode& b = replica.nodes()[id];
    ASSERT_EQ(a.parent, b.parent) << where << " node " << id;
    ASSERT_EQ(a.center, b.center) << where << " node " << id;
    ASSERT_EQ(a.depth, b.depth) << where << " node " << id;
    ASSERT_EQ(a.path_to_parent, b.path_to_parent) << where << " node " << id;
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(tree.leaf_of(v), replica.leaf_of(v)) << where << " vertex " << v;
  }
  ASSERT_EQ(tree.cluster_boundary(), replica.cluster_boundary()) << where;
}

class RackeReplica
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(RackeReplica, EveryTreeMatchesThePerTreeConstruction) {
  const auto [which, wave] = GetParam();
  const Graph g = make_graph(which);
  const int n = g.num_vertices();
  for (int threads : {1, 4}) {
    for (int num_trees : {1, 5, 10}) {
      const RackeOptions options{
          .num_trees = num_trees, .wave = wave, .threads = threads};
      const std::string where = which + " wave=" +
                                std::to_string(wave) + " threads=" +
                                std::to_string(threads) + " trees=" +
                                std::to_string(num_trees);
      Rng rng_lib(1000 + static_cast<std::uint64_t>(num_trees));
      Rng rng_ref(1000 + static_cast<std::uint64_t>(num_trees));
      const RackeRouting routing(g, options, rng_lib);
      const reference::RackeTrees replica =
          reference::build_racke(g, options, rng_ref);
      // The construction consumes the caller's stream identically.
      EXPECT_EQ(rng_lib.next(), rng_ref.next()) << where;
      ASSERT_EQ(static_cast<std::size_t>(routing.num_trees()),
                replica.trees.size())
          << where;
      EXPECT_EQ(routing.max_relative_embedding_load(), replica.max_rel_load)
          << where;
      for (int i = 0; i < routing.num_trees(); ++i) {
        const auto& ref_tree = replica.trees[static_cast<std::size_t>(i)];
        const std::string tree_where = where + " tree " + std::to_string(i);
        expect_same_tree(g, routing.tree(i), ref_tree, tree_where);
        for (int s = 0; s < n; ++s) {
          for (int t = 0; t < n; ++t) {
            if (s == t) continue;
            ASSERT_EQ(routing.tree_route(i, s, t), ref_tree.route(s, t))
                << tree_where << " pair (" << s << "," << t << ")";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, RackeReplica,
    ::testing::Combine(::testing::Values("torus8x8", "hypercube6",
                                         "random_regular64", "two_cliques"),
                       ::testing::Values(1, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_wave" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RackeReplica, StandaloneFrtTreeMatchesOnRandomLengths) {
  // The public per-tree constructor (FrtTree(g, lengths, rng)) must agree
  // with the replica too, under lengths that are not a multiple of a unit.
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = gen::erdos_renyi_connected(40, 0.12, rng);
    std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
    for (double& l : lengths) l = 0.01 + rng.uniform_double();
    const std::uint64_t seed = rng.next();
    Rng rng_lib(seed);
    Rng rng_ref(seed);
    const FrtTree tree(g, lengths, rng_lib);
    const reference::FrtTree replica(g, lengths, rng_ref);
    expect_same_tree(g, tree, replica, "trial " + std::to_string(trial));
    for (int s = 0; s < g.num_vertices(); ++s) {
      for (int t = 0; t < g.num_vertices(); ++t) {
        if (s == t) continue;
        ASSERT_EQ(tree.route(s, t), replica.route(s, t));
      }
    }
  }
}

}  // namespace
}  // namespace sor
