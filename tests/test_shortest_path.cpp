#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "../bench/legacy_dijkstra.h"
#include "graph/generators.h"

namespace sor {
namespace {

TEST(ShortestPath, BfsOnPathGraph) {
  Graph g(5);
  for (int v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  const auto dist = bfs_distances(g, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
}

TEST(ShortestPath, BfsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(ShortestPath, AllPairsSymmetric) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi_connected(25, 0.15, rng);
  const auto dist = all_pairs_hop_distances(g);
  for (int u = 0; u < 25; ++u) {
    for (int v = 0; v < 25; ++v) {
      EXPECT_EQ(dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)],
                dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]);
    }
    EXPECT_EQ(dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(u)], 0);
  }
}

TEST(ShortestPath, DijkstraMatchesBfsOnUnitLengths) {
  const Graph g = gen::hypercube(4);
  const std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto dd = dijkstra(g, 3, unit);
  const auto bd = bfs_distances(g, 3);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(dd[static_cast<std::size_t>(v)],
                     static_cast<double>(bd[static_cast<std::size_t>(v)]));
  }
}

TEST(ShortestPath, DijkstraPrefersLightDetour) {
  // 0-1 heavy direct edge vs 0-2-1 light detour.
  Graph g(3);
  const int direct = g.add_edge(0, 1);
  const int leg1 = g.add_edge(0, 2);
  const int leg2 = g.add_edge(2, 1);
  std::vector<double> len(3, 0.0);
  len[static_cast<std::size_t>(direct)] = 10.0;
  len[static_cast<std::size_t>(leg1)] = 1.0;
  len[static_cast<std::size_t>(leg2)] = 2.0;
  const auto dist = dijkstra(g, 0, len);
  EXPECT_DOUBLE_EQ(dist[1], 3.0);
  EXPECT_EQ(shortest_path(g, 0, 1, len), (Path{0, 2, 1}));
}

TEST(ShortestPath, ShortestPathHopsIsValidAndTight) {
  const Graph g = gen::grid(4, 4);
  const Path p = shortest_path_hops(g, 0, 15);
  EXPECT_TRUE(is_valid_path(g, p, 0, 15));
  EXPECT_EQ(hop_count(p), 6);  // Manhattan distance in the grid
}

TEST(ShortestPath, DijkstraIntoTargetsMatchesFullRun) {
  // The early-exit CSR variant must agree bit-for-bit with a full
  // binary-heap run on everything its contract covers: the target's dist
  // and the whole parent chain back to the source (strictly positive
  // lengths make the settled prefix final).
  Rng rng(29);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = gen::erdos_renyi_connected(30, 0.15, rng);
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    std::vector<double> length(static_cast<std::size_t>(g.num_edges()));
    for (double& l : length) l = 0.05 + rng.uniform_double();
    const FlatAdjacency adj(g);
    ASSERT_EQ(adj.num_vertices(), g.num_vertices());
    std::vector<double> full_dist(n), dist(n);
    std::vector<int> full_parent(n), parent(n);
    DijkstraScratch scratch;
    for (int probe = 0; probe < 5; ++probe) {
      const int s = rng.uniform_int(0, g.num_vertices() - 1);
      int t = rng.uniform_int(0, g.num_vertices() - 1);
      if (s == t) t = (t + 1) % g.num_vertices();
      legacy_dijkstra::dijkstra_into(g, s, length, full_dist, full_parent);
      std::vector<char> is_target(n, 0);
      is_target[static_cast<std::size_t>(t)] = 1;
      dijkstra_into(adj, s, length, dist, parent, scratch, is_target, 1);
      EXPECT_EQ(dist[static_cast<std::size_t>(t)],
                full_dist[static_cast<std::size_t>(t)]);
      int v = t;
      while (v != s) {
        ASSERT_EQ(parent[static_cast<std::size_t>(v)],
                  full_parent[static_cast<std::size_t>(v)]);
        EXPECT_EQ(dist[static_cast<std::size_t>(v)],
                  full_dist[static_cast<std::size_t>(v)]);
        v = g.edge(parent[static_cast<std::size_t>(v)]).other(v);
      }
    }
  }
}

TEST(ShortestPath, CsrFullSweepMatchesBinaryHeapReference) {
  // The full-sweep CSR Dijkstra (4-ary heap over FlatAdjacency) against the
  // binary-heap reference over Graph::incident: every dist and parent bit
  // of every source, on graphs with zero-length edges (ties the heap must
  // break identically), parallel edges and unreachable vertices.
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 24 + trial;
    const int isolated = 1 + trial % 3;  // vertices n - isolated .. n - 1
    Graph g(n);
    for (int i = 0; i < 3 * n; ++i) {
      const int u = rng.uniform_int(0, n - isolated - 1);
      int v = rng.uniform_int(0, n - isolated - 1);
      if (u == v) v = (v + 1) % (n - isolated);
      g.add_edge(u, v);
      if (rng.uniform_int(0, 4) == 0) g.add_edge(v, u);  // parallel edge
    }
    std::vector<double> length(static_cast<std::size_t>(g.num_edges()));
    for (double& l : length) {
      l = rng.uniform_int(0, 3) == 0 ? 0.0
                                     : static_cast<double>(rng.uniform_int(1, 4));
    }
    const std::size_t sn = static_cast<std::size_t>(n);
    const FlatAdjacency adj(g);
    ASSERT_TRUE(adj.has_parallel_arcs());
    DijkstraScratch scratch;
    std::vector<double> dist(sn), ref_dist(sn);
    std::vector<int> parent(sn), ref_parent(sn);
    for (int s = 0; s < n; ++s) {
      dijkstra_into(adj, s, length, dist, parent, scratch);
      legacy_dijkstra::dijkstra_into(g, s, length, ref_dist, ref_parent);
      EXPECT_EQ(dist, ref_dist) << "trial " << trial << " source " << s;
      EXPECT_EQ(parent, ref_parent) << "trial " << trial << " source " << s;
      if (s < n - isolated) {
        EXPECT_EQ(dist[sn - 1], std::numeric_limits<double>::infinity());
      }
    }
  }
}

TEST(ShortestPath, FlatAdjacencyMirrorsIncidenceLists) {
  Rng rng(31);
  const Graph g = gen::erdos_renyi_connected(20, 0.2, rng);
  const FlatAdjacency adj(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = adj.arcs(v);
    ASSERT_EQ(static_cast<int>(arcs.size()), g.degree(v));
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const int e = g.incident(v)[i];
      EXPECT_EQ(arcs[i].edge, e);
      EXPECT_EQ(arcs[i].to, g.edge(e).other(v));
    }
  }
}

TEST(ShortestPathSampler, SamplesAreShortestPaths) {
  const Graph g = gen::hypercube(4);
  ShortestPathSampler sampler(g);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int s = rng.uniform_int(0, 15);
    int t = rng.uniform_int(0, 15);
    if (s == t) t = s ^ 1;
    const Path p = sampler.sample(s, t, rng);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
    EXPECT_EQ(hop_count(p), sampler.hop_distance(s, t));
  }
}

TEST(ShortestPathSampler, DeterministicIsStable) {
  const Graph g = gen::grid(3, 3);
  ShortestPathSampler sampler(g);
  const Path a = sampler.deterministic(0, 8);
  const Path b = sampler.deterministic(0, 8);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(is_valid_path(g, a, 0, 8));
}

TEST(ShortestPathSampler, UniformOverGadgetMiddles) {
  // On C(n, k), a random shortest leaf-to-leaf path picks the middle vertex
  // uniformly; check rough uniformity.
  const int n = 8;
  const int k = 4;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  ShortestPathSampler sampler(g);
  Rng rng(6);
  std::map<int, int> middle_count;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    const Path p =
        sampler.sample(layout.left_leaf(0), layout.right_leaf(0), rng);
    ASSERT_EQ(hop_count(p), 4);
    ++middle_count[p[2]];  // s, v1, middle, v2, t
  }
  ASSERT_EQ(static_cast<int>(middle_count.size()), k);
  for (const auto& [mid, count] : middle_count) {
    EXPECT_NEAR(static_cast<double>(count) / draws, 1.0 / k, 0.05);
  }
}

}  // namespace
}  // namespace sor
