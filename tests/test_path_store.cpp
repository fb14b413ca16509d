// The flat-memory path substrate: interning round-trips, ref stability
// across append/merge, and every interned edge-id span checked against the
// independent path_edge_ids (Graph::edge_between) on random graphs — the
// contract the hot loops rely on.
#include "core/path_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "api/sor_engine.h"
#include "candidate_lists.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "core/weak_routing.h"
#include "fault/sor_error.h"
#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

Graph triangle_plus() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(PathStore, InternRoundTripsAndPrecomputesEdges) {
  const Graph g = triangle_plus();
  PathStore store(g);
  const Path p = {0, 1, 2, 3};
  const PathRef ref = store.intern(p);
  EXPECT_EQ(ref.hops, 3);
  EXPECT_EQ(store.num_paths(), 1u);

  const auto verts = store.vertices(ref);
  ASSERT_EQ(verts.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(verts[i], p[i]);
  EXPECT_EQ(store.to_path(ref), p);

  const auto expected = path_edge_ids(g, p);
  const auto edges = store.edge_ids(ref);
  ASSERT_EQ(edges.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(edges[i], expected[i]);
  }
}

TEST(PathStore, RefsStableAcrossAppends) {
  const Graph g = triangle_plus();
  PathStore store(g);
  const Path first = {0, 2, 3};
  const PathRef ref = store.intern(first);
  // Append enough to force arena reallocation; the old ref must still
  // resolve to the same content (offsets, not pointers).
  for (int i = 0; i < 1000; ++i) store.intern({1, 2, 3});
  EXPECT_EQ(store.to_path(ref), first);
  EXPECT_EQ(store.edge_ids(ref).size(), 2u);
  EXPECT_EQ(store.edge_ids(ref)[0], path_edge_ids(g, first)[0]);
}

TEST(PathStore, AdoptCopiesSlabsAcrossStores) {
  const Graph g = triangle_plus();
  PathStore a(g);
  PathStore b(g);
  const Path p = {3, 2, 0, 1};
  const PathRef in_a = a.intern(p);
  const PathRef in_b = b.adopt(a, in_a);
  EXPECT_EQ(b.to_path(in_b), p);
  const auto ea = a.edge_ids(in_a);
  const auto eb = b.edge_ids(in_b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
}

TEST(PathSystemFlat, BoundSystemsInternEveryPath) {
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(7);
  const PathSystem ps = sample_path_system_all_pairs(routing, 3, rng);
  ASSERT_TRUE(ps.bound_to(g));
  EXPECT_EQ(ps.store().num_paths(), ps.total_paths());

  for (const auto& [pair, list] : candidate_lists(ps)) {
    const auto refs = ps.refs(pair.first, pair.second);
    ASSERT_EQ(refs.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(ps.store().to_path(refs[i]), list[i]);
      const auto expected = path_edge_ids(g, list[i]);
      const auto edges = ps.store().edge_ids(refs[i]);
      ASSERT_EQ(edges.size(), expected.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(edges[e], expected[e]);
      }
    }
  }
}

/// A system bound to one Graph object is a typed error on any other one,
/// even a structurally identical copy: its edge ids were interned against
/// the first and are never silently re-resolved.
TEST(PathSystemFlat, SystemBoundToAnotherGraphIsATypedError) {
  const Graph g = triangle_plus();
  const Graph copy = triangle_plus();
  PathSystem ps(g);
  ps.add_path(0, 3, {0, 2, 3});
  EXPECT_TRUE(ps.bound_to(g));
  EXPECT_FALSE(ps.bound_to(copy));
  Demand d;
  d.set(0, 3, 1.0);
  EXPECT_NO_THROW(route_fractional(g, ps, d));
  EXPECT_NO_THROW(run_deletion_process(g, ps, d, 1.0));
  const auto expect_mismatch = [](const auto& call, const std::string& site) {
    try {
      call();
      FAIL() << site << " accepted a system bound to another graph";
    } catch (const SorError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kGraphMismatch);
      EXPECT_EQ(e.site(), site);
    }
  };
  expect_mismatch([&] { route_fractional(copy, ps, d); }, "route_fractional");
  expect_mismatch([&] { route_fractional_exact(copy, ps, d); },
                  "route_fractional");
  expect_mismatch([&] { run_deletion_process(copy, ps, d, 1.0); },
                  "run_deletion_process");
  expect_mismatch([&] { iterative_halving_route(copy, ps, d, 1.0); },
                  "iterative_halving_route");
}

TEST(PathSystemFlat, CountersMatchRecount) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(11);
  PathSystem ps = sample_path_system_all_pairs(routing, 2, rng);
  std::size_t total = 0;
  std::size_t widest = 0;
  for (const auto& [pair, list] : candidate_lists(ps)) {
    total += list.size();
    widest = std::max(widest, list.size());
  }
  EXPECT_EQ(ps.total_paths(), total);
  EXPECT_EQ(ps.sparsity(), widest);
}

TEST(PathSystemFlat, MergeKeepsRefsValidAndAdopts) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(3);
  PathSystem a = sample_path_system(routing, 2, {{0, 8}, {1, 7}}, rng);
  const PathSystem b = sample_path_system(routing, 3, {{0, 8}, {2, 6}}, rng);
  a.merge(b);
  EXPECT_EQ(a.paths(0, 8).size(), 5u);
  EXPECT_EQ(a.refs(0, 8).size(), 5u);
  EXPECT_EQ(a.store().num_paths(), a.total_paths());
  // Every ref (old and adopted) resolves to its boundary path.
  for (const auto& [pair, list] : candidate_lists(a)) {
    const auto refs = a.refs(pair.first, pair.second);
    ASSERT_EQ(refs.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(a.store().to_path(refs[i]), list[i]);
    }
  }
}

TEST(PathStore, InternRejectsNonAdjacentVerticesInEveryBuildType) {
  const Graph g = triangle_plus();  // has no (1, 3) edge
  PathStore store(g);
  EXPECT_THROW(store.intern({0, 1, 3}), std::invalid_argument);
  // The failed intern leaves the arena unchanged.
  EXPECT_EQ(store.num_paths(), 0u);
  EXPECT_EQ(store.arena_size(), 0u);
}

TEST(PathSystemFlat, CrossGraphMergeOfUntransferablePathThrows) {
  Graph a(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  Graph b(3);
  b.add_edge(0, 2);
  PathSystem on_b(b);
  on_b.add_path(0, 2, {0, 2});
  PathSystem on_a(a);  // bound to a DIFFERENT graph with no (0,2) edge
  EXPECT_THROW(on_a.merge(on_b), std::invalid_argument);
}

/// Merging across Graph objects re-interns every path against the target's
/// graph: the merged refs carry the target graph's edge ids, not the
/// source's, even where the two graphs number their edges differently.
TEST(PathSystemFlat, MergeAcrossGraphsReinternsEdgeIds) {
  const Graph g = gen::grid(3, 3);
  // The same edges, added in reverse order: every edge id differs.
  Graph reversed(g.num_vertices());
  for (int e = g.num_edges() - 1; e >= 0; --e) {
    reversed.add_edge(g.edge(e).u, g.edge(e).v, g.edge(e).capacity);
  }
  RandomShortestPathRouting routing(g);
  Rng rng(5);
  const PathSystem bound = sample_path_system(routing, 2, {{0, 8}}, rng);
  PathSystem target(reversed);
  target.merge(bound);
  EXPECT_EQ(target.paths(0, 8), bound.paths(0, 8));
  const auto refs = target.refs(0, 8);
  ASSERT_EQ(refs.size(), 2u);
  for (PathRef ref : refs) {
    const Path p = target.store().to_path(ref);
    const auto want = path_edge_ids(reversed, p);
    const auto got = target.store().edge_ids(ref);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want);
    EXPECT_NE(want, path_edge_ids(g, p));
  }
}

/// The interned edge ids the router reads, checked span by span against
/// the independent resolution path_edge_ids (one Graph::edge_between per
/// hop), on random graphs and demands; and route_fractional's solution
/// carries exactly those candidates. The deeper old-vs-new contract — the
/// specialized solver against a verbatim copy of the pre-change
/// nested-vector MWU — is pinned per run by bench_m4_hot_path, which
/// compares congestion, dual bound, edge loads and path weights and is
/// asserted identical in CI.
TEST(PathSystemFlat, FlatAndLegacyRoutingBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::random_regular(24, 4, rng);
    ASSERT_TRUE(g.is_connected());
    RandomShortestPathRouting routing(g);
    const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
    const PathSystem ps =
        sample_path_system(routing, 4, support_pairs(d), rng);
    ASSERT_TRUE(ps.bound_to(g));

    // Every slab's edge ids against the hash-per-hop resolution.
    for (const auto& [s, t] : ps.pairs()) {
      for (PathRef ref : ps.refs(s, t)) {
        const auto got = ps.store().edge_ids(ref);
        EXPECT_EQ(std::vector<int>(got.begin(), got.end()),
                  path_edge_ids(g, ps.store().to_path(ref)))
            << "seed " << seed;
      }
    }

    // The solution's candidates are the system's, paths and edge ids
    // aligned, and its loads are exactly those of its weights.
    const auto routed = route_fractional(g, ps, d);
    ASSERT_EQ(routed.flat.num_commodities(), routed.commodities.size());
    for (std::size_t j = 0; j < routed.commodities.size(); ++j) {
      const Commodity& c = routed.commodities[j];
      EXPECT_EQ(routed.paths[j], ps.paths(c.s, c.t)) << "seed " << seed;
      ASSERT_EQ(routed.flat.num_paths(j), routed.paths[j].size());
      for (std::size_t i = 0; i < routed.paths[j].size(); ++i) {
        const auto edges = routed.flat.edges(j, i);
        EXPECT_EQ(std::vector<int>(edges.begin(), edges.end()),
                  path_edge_ids(g, routed.paths[j][i]))
            << "seed " << seed;
      }
    }
    std::vector<double> load;
    const double congestion = congestion_of_weights(
        g, routed.commodities,
        intern_candidates(g, routed.paths), routed.weights, &load);
    EXPECT_EQ(congestion, routed.congestion) << "seed " << seed;
    EXPECT_EQ(load, routed.edge_load) << "seed " << seed;
  }
}

/// route_batch over the new substrate: still bit-identical across thread
/// counts and equal to a serial route() loop (re-check of the PR 2
/// contract on top of the flat representation).
TEST(PathSystemFlat, RouteBatchBitIdenticalOverFlatSubstrate) {
  const int n = 32;
  Rng rng(17);
  Graph g = gen::random_regular(n, 4, rng);
  std::vector<Demand> demands;
  for (int b = 0; b < 6; ++b) {
    demands.push_back(gen::random_permutation_demand(n, rng));
  }

  auto run = [&](int threads) {
    SorEngine engine =
        SorEngine::build(Graph(g), "shortest_path", /*seed=*/5, threads);
    engine.install_paths(SamplingSpec::for_demands(demands, 3));
    RouteSpec spec;
    spec.compute_optimum = false;
    return engine.route_batch(demands, spec);
  };
  const BatchReport serial = run(1);
  const BatchReport wide = run(4);
  ASSERT_EQ(serial.reports.size(), wide.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].congestion, wide.reports[i].congestion);
    EXPECT_EQ(serial.reports[i].solution.edge_load,
              wide.reports[i].solution.edge_load);
  }
}

}  // namespace
}  // namespace sor
