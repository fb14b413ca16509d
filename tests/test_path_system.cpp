#include "core/path_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "candidate_lists.h"
#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"
#include "oblivious/valiant.h"
#include "util/thread_pool.h"

namespace sor {
namespace {

/// Edges 0-1, 0-2, 1-2, 1-3, 2-3: every path the small tests add.
Graph diamond_with_chord() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(PathSystem, AddAndQuery) {
  const Graph g = diamond_with_chord();
  PathSystem ps(g);
  EXPECT_FALSE(ps.has_pair(0, 3));
  ps.add_path(0, 3, {0, 1, 3});
  ps.add_path(0, 3, {0, 2, 3});
  ps.add_path(1, 2, {1, 2});
  EXPECT_TRUE(ps.has_pair(0, 3));
  EXPECT_EQ(ps.paths(0, 3).size(), 2u);
  EXPECT_EQ(ps.paths(3, 0).size(), 0u);  // directed pairs
  EXPECT_EQ(ps.sparsity(), 2u);
  EXPECT_EQ(ps.total_paths(), 3u);
  EXPECT_EQ(ps.num_pairs(), 2u);
}

TEST(PathSystem, PairsIterateInLexicographicOrder) {
  const Graph g = diamond_with_chord();
  PathSystem ps(g);
  ps.add_path(2, 1, {2, 1});
  ps.add_path(0, 3, {0, 2, 3});
  ps.add_path(1, 0, {1, 0});
  ps.add_path(0, 2, {0, 2});
  ps.add_path(2, 1, {2, 0, 1});
  EXPECT_EQ(ps.pairs(), (std::vector<std::pair<int, int>>{
                            {0, 2}, {0, 3}, {1, 0}, {2, 1}}));
  // Within a pair, insertion order.
  EXPECT_EQ(ps.paths(2, 1), (std::vector<Path>{{2, 1}, {2, 0, 1}}));
}

TEST(PathSystem, MergeUnionsPaths) {
  const Graph g = gen::complete(3);
  PathSystem a(g);
  a.add_path(0, 2, {0, 1, 2});
  PathSystem b(g);
  b.add_path(0, 2, {0, 2});
  b.add_path(1, 0, {1, 0});
  a.merge(b);
  EXPECT_EQ(a.paths(0, 2).size(), 2u);
  EXPECT_EQ(a.paths(1, 0).size(), 1u);
}

TEST(PathSystem, AlphaSampleSparsityAndValidity) {
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(1);
  const std::vector<std::pair<int, int>> pairs = {{0, 15}, {3, 12}, {5, 10}};
  const int alpha = 5;
  const PathSystem ps = sample_path_system(routing, alpha, pairs, rng);
  EXPECT_EQ(ps.num_pairs(), pairs.size());
  EXPECT_EQ(ps.sparsity(), static_cast<std::size_t>(alpha));
  for (const auto& [s, t] : pairs) {
    ASSERT_EQ(ps.paths(s, t).size(), static_cast<std::size_t>(alpha));
    for (const Path& p : ps.paths(s, t)) {
      EXPECT_TRUE(is_valid_path(g, p, s, t));
    }
  }
}

TEST(PathSystem, AllPairsSampleCoversEverything) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(2);
  const PathSystem ps = sample_path_system_all_pairs(routing, 2, rng);
  EXPECT_EQ(ps.num_pairs(), static_cast<std::size_t>(9 * 8));
  EXPECT_EQ(ps.sparsity(), 2u);
}

TEST(PathSystem, CutSampleSizesFollowMinCuts) {
  // On the gadget: leaf-to-leaf cut is 1, center-to-center cut is k.
  const int n = 8;
  const int k = 3;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  RandomShortestPathRouting routing(g);
  Rng rng(3);
  const int alpha = 2;
  const std::vector<std::pair<int, int>> pairs = {
      {layout.left_leaf(0), layout.right_leaf(0)},
      {layout.left_center(), layout.right_center()}};
  const PathSystem ps =
      sample_path_system_with_cut(routing, alpha, pairs, rng);
  EXPECT_EQ(ps.paths(pairs[0].first, pairs[0].second).size(),
            static_cast<std::size_t>(alpha + 1));
  EXPECT_EQ(ps.paths(pairs[1].first, pairs[1].second).size(),
            static_cast<std::size_t>(alpha + k));
}

TEST(PathSystem, SupportPairsOfDemand) {
  Demand d;
  d.set(4, 2, 1.0);
  d.set(1, 3, 2.0);
  const auto pairs = support_pairs(d);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair{1, 3}));
  EXPECT_EQ(pairs[1], (std::pair{4, 2}));
}

TEST(PathSystem, MissesAreEmptyAndInsertNoPair) {
  const Graph g4 = diamond_with_chord();
  const Graph g8 = gen::hypercube(3);
  PathSystem a(g4);
  const PathSystem b(g8);
  a.add_path(0, 3, {0, 1, 3});

  // A miss is an empty list and an empty ref span, on any instance.
  const std::vector<Path> miss_a = a.paths(1, 2);
  EXPECT_TRUE(miss_a.empty());
  EXPECT_TRUE(b.paths(5, 6).empty());
  EXPECT_TRUE(a.paths(3, 0).empty());
  EXPECT_TRUE(a.refs(1, 2).empty());
  EXPECT_TRUE(b.refs(5, 6).empty());

  // Const lookups never materialize entries.
  EXPECT_EQ(a.num_pairs(), 1u);
  EXPECT_EQ(b.num_pairs(), 0u);
  EXPECT_FALSE(a.has_pair(1, 2));
  EXPECT_EQ(a.pairs(), (std::vector<std::pair<int, int>>{{0, 3}}));

  // A later insert fills the pair without touching the earlier miss.
  a.add_path(1, 2, {1, 2});
  EXPECT_TRUE(miss_a.empty());
  EXPECT_EQ(a.paths(1, 2).size(), 1u);
  EXPECT_EQ(a.refs(1, 2).size(), 1u);
}

TEST(PathSystem, SpecialDemandValues) {
  // Definition 5.5: d(s,t) = alpha + cut_G(s,t) on the support.
  const int n = 6;
  const int k = 2;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  const int alpha = 3;
  const Demand d = special_demand(
      g, alpha,
      {{layout.left_leaf(0), layout.right_leaf(1)},
       {layout.left_center(), layout.right_center()}});
  EXPECT_DOUBLE_EQ(d.at(layout.left_leaf(0), layout.right_leaf(1)),
                   static_cast<double>(alpha + 1));
  EXPECT_DOUBLE_EQ(d.at(layout.left_center(), layout.right_center()),
                   static_cast<double>(alpha + k));
}

// ---- bulk install vs the serial add_path loop ---------------------------

/// Verbatim replica of the serial install the bulk add_paths replaced:
/// alpha draws per pair on seed-split streams, then one add_path per path
/// in pair order, each appending its slab (vertices, then canonical edge
/// ids resolved through edge_between) at the arena's end.
struct SerialInstall {
  std::vector<int> arena;
  std::map<std::pair<int, int>, std::vector<Path>> paths;
  std::map<std::pair<int, int>, std::vector<PathRef>> refs;

  void begin_reinstall() {
    paths.clear();
    refs.clear();
  }

  void sample(const ObliviousRouting& routing, int alpha,
              const std::vector<std::pair<int, int>>& pairs, Rng& rng) {
    const Graph& g = routing.graph();
    std::vector<Rng> streams = rng.split(pairs.size());
    std::vector<std::vector<Path>> sampled(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      if (s == t) continue;
      for (int k = 0; k < alpha; ++k) {
        sampled[i].push_back(routing.sample_path(s, t, streams[i]));
      }
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (const Path& path : sampled[i]) {
        PathRef ref;
        ref.offset = static_cast<std::int64_t>(arena.size());
        ref.hops = hop_count(path);
        arena.insert(arena.end(), path.begin(), path.end());
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
          arena.push_back(g.edge_between(path[h], path[h + 1]));
        }
        refs[pairs[i]].push_back(ref);
        paths[pairs[i]].push_back(path);
      }
    }
  }

  /// The compaction of an arena whose live slabs all sit past `dead`.
  void drop_prefix(std::size_t dead) {
    arena.erase(arena.begin(),
                arena.begin() + static_cast<std::ptrdiff_t>(dead));
    for (auto& [pair, list] : refs) {
      for (PathRef& ref : list) ref.offset -= static_cast<std::int64_t>(dead);
    }
  }
};

void expect_same_install(const PathSystem& ps, const SerialInstall& want) {
  const auto arena = ps.store().arena();
  ASSERT_EQ(std::vector<int>(arena.begin(), arena.end()), want.arena);
  ASSERT_EQ(ps.num_pairs(), want.paths.size());
  std::size_t total = 0;
  std::size_t sparsity = 0;
  for (const auto& [pair, list] : want.paths) {
    EXPECT_EQ(ps.paths(pair.first, pair.second), list);
    const auto refs = ps.refs(pair.first, pair.second);
    const std::vector<PathRef>& want_refs = want.refs.at(pair);
    ASSERT_EQ(refs.size(), want_refs.size());
    for (std::size_t k = 0; k < refs.size(); ++k) {
      EXPECT_EQ(refs[k].offset, want_refs[k].offset);
      EXPECT_EQ(refs[k].hops, want_refs[k].hops);
    }
    total += list.size();
    sparsity = std::max(sparsity, list.size());
  }
  EXPECT_EQ(ps.total_paths(), total);
  EXPECT_EQ(ps.sparsity(), sparsity);
}

/// The three pair-list shapes an install sees: every ordered pair, a
/// sorted explicit support, and an unsorted one with duplicates and s == t.
std::vector<std::vector<std::pair<int, int>>> pair_lists(int n, Rng& rng) {
  const std::vector<std::pair<int, int>> all = all_ordered_pairs(n);
  std::vector<std::pair<int, int>> sorted;
  for (const auto& pair : all) {
    if (rng.bernoulli(0.3)) sorted.push_back(pair);
  }
  std::vector<std::pair<int, int>> messy = sorted;
  for (std::size_t i = 0; i < sorted.size(); i += 7) messy.push_back(sorted[i]);
  messy.emplace_back(3, 3);
  rng.shuffle(messy);
  return {all, sorted, messy};
}

TEST(PathSystem, FreshInstallBitIdenticalToSerialLoop) {
  const int dim = 5;
  const Graph g = gen::hypercube(dim);
  const ValiantRouting routing(g, dim);
  Rng lists_rng(5);
  for (const auto& pairs : pair_lists(g.num_vertices(), lists_rng)) {
    SerialInstall want;
    Rng want_rng(42);
    want.sample(routing, 3, pairs, want_rng);
    const std::uint64_t want_next = want_rng.next();
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << pairs.size() << " pairs, threads "
                                      << threads);
      util::ThreadPool pool(threads);
      Rng rng(42);
      PathSystem ps(g);
      sample_path_system_into(routing, 3, pairs, rng,
                              threads == 1 ? nullptr : &pool, ps);
      expect_same_install(ps, want);
      EXPECT_EQ(rng.next(), want_next);  // same draws off the parent stream
    }
  }
}

TEST(PathSystem, ReinstallBitIdenticalToSerialLoop) {
  const Graph g = gen::grid(5, 5, /*wrap=*/true);
  const RandomShortestPathRouting routing(g);
  Rng lists_rng(6);
  const auto lists = pair_lists(g.num_vertices(), lists_rng);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    util::ThreadPool pool(threads);
    util::ThreadPool* workers = threads == 1 ? nullptr : &pool;
    SerialInstall want;
    Rng want_rng(9);
    Rng rng(9);
    PathSystem ps(g);
    // Each list in turn reinstalls over the previous one's arena: first
    // appending behind the dead slabs, then after the compaction.
    for (std::size_t round = 0; round < 2 * lists.size(); ++round) {
      const auto& pairs = lists[round % lists.size()];
      ps.begin_reinstall();
      want.begin_reinstall();
      const std::size_t dead = want.arena.size();
      sample_path_system_into(routing, 2, pairs, rng, workers, ps);
      want.sample(routing, 2, pairs, want_rng);
      expect_same_install(ps, want);
      ps.compact_store();
      want.drop_prefix(dead);
      expect_same_install(ps, want);
    }
  }
}

/// Delegates to random shortest paths, except that one pair gets a direct
/// (non-adjacent) hop.
class NonAdjacentHopRouting final : public ObliviousRouting {
 public:
  NonAdjacentHopRouting(const Graph& g, std::pair<int, int> bad)
      : inner_(g), bad_(bad) {}
  Path sample_path(int s, int t, Rng& rng) const override {
    if (std::pair{s, t} == bad_) return {s, t};
    return inner_.sample_path(s, t, rng);
  }
  std::string name() const override { return "non_adjacent_hop"; }
  const Graph& graph() const override { return inner_.graph(); }

 private:
  RandomShortestPathRouting inner_;
  std::pair<int, int> bad_;
};

TEST(PathSystem, InterningFailureLeavesSystemUntouched) {
  const Graph g = gen::grid(4, 4);
  ASSERT_LT(g.edge_between(0, 15), 0);
  const NonAdjacentHopRouting routing(g, {0, 15});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    util::ThreadPool pool(threads);
    PathSystem ps(g);
    Rng rng(3);
    sample_path_system_into(routing, 2, {{1, 2}, {4, 9}}, rng, nullptr, ps);
    const auto arena = ps.store().arena();
    const std::vector<int> arena_before(arena.begin(), arena.end());
    const auto lists_before = candidate_lists(ps);
    const std::size_t paths_before = ps.store().num_paths();

    std::vector<std::pair<int, int>> pairs = all_ordered_pairs(16);
    EXPECT_THROW(sample_path_system_into(routing, 2, pairs, rng,
                                         threads == 1 ? nullptr : &pool, ps),
                 std::invalid_argument);

    EXPECT_EQ(ps.store().arena_size(), arena_before.size());
    const auto after = ps.store().arena();
    EXPECT_EQ(std::vector<int>(after.begin(), after.end()), arena_before);
    EXPECT_EQ(ps.store().num_paths(), paths_before);
    EXPECT_EQ(candidate_lists(ps), lists_before);
    EXPECT_EQ(ps.total_paths(), 4u);
    EXPECT_EQ(ps.refs(1, 2).size(), 2u);
    EXPECT_TRUE(ps.refs(0, 15).empty());
    EXPECT_TRUE(ps.refs(0, 1).empty());
  }
}

// ---- simplify_walk -------------------------------------------------------

/// The hash-map implementation simplify_walk replaced, verbatim.
Path map_simplify_walk(const Path& walk) {
  Path out;
  if (walk.empty()) return out;
  std::unordered_map<int, std::size_t> position;
  out.reserve(walk.size());
  for (int v : walk) {
    auto it = position.find(v);
    if (it != position.end()) {
      for (std::size_t i = it->second + 1; i < out.size(); ++i) {
        position.erase(out[i]);
      }
      out.resize(it->second + 1);
    } else {
      position.emplace(v, out.size());
      out.push_back(v);
    }
  }
  return out;
}

/// A random walk over n vertices: mostly uniform jumps, sometimes a step
/// back to a recent vertex so that short and long loops both occur.
Path random_walk(int n, std::size_t length, Rng& rng) {
  Path walk;
  walk.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (!walk.empty() && rng.bernoulli(0.2)) {
      const std::size_t back =
          std::min<std::size_t>(walk.size(), 1 + rng.uniform_u64(40));
      walk.push_back(walk[walk.size() - back]);
    } else {
      walk.push_back(rng.uniform_int(0, n - 1));
    }
  }
  return walk;
}

TEST(PathSystem, SimplifyWalkMatchesMapReference) {
  Rng rng(17);
  EXPECT_TRUE(simplify_walk({}).empty());
  EXPECT_EQ(simplify_walk({4}), (Path{4}));
  EXPECT_EQ(simplify_walk({0, 1, 2, 1, 3, 0, 5}), (Path{0, 5}));
  for (int n : {1, 2, 7, 64, 1024}) {
    for (std::size_t length : {1u, 2u, 10u, 300u, 5000u}) {
      for (int rep = 0; rep < 4; ++rep) {
        const Path walk = random_walk(n, length, rng);
        ASSERT_EQ(simplify_walk(walk), map_simplify_walk(walk))
            << "n " << n << ", length " << length;
      }
    }
  }
}

TEST(PathSystem, SimplifyWalkConcurrentCallsMatchMapReference) {
  util::ThreadPool pool(4);
  const std::size_t jobs = 256;
  std::vector<Rng> streams = Rng(23).split(jobs);
  std::vector<char> same(jobs, 0);
  pool.parallel_for(jobs, [&](std::size_t i) {
    bool ok = true;
    for (int rep = 0; rep < 8; ++rep) {
      const int n = 1 + static_cast<int>(streams[i].uniform_u64(1024));
      const Path walk = random_walk(n, 1 + streams[i].uniform_u64(2000),
                                    streams[i]);
      ok = ok && simplify_walk(walk) == map_simplify_walk(walk);
    }
    same[i] = ok ? 1 : 0;
  });
  EXPECT_EQ(std::count(same.begin(), same.end(), 1),
            static_cast<std::ptrdiff_t>(jobs));
}

}  // namespace
}  // namespace sor
