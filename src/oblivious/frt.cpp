#include "oblivious/frt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "fault/sor_error.h"
#include "util/thread_pool.h"

namespace sor {
namespace {

/// Reconstructs the shortest path from `src` to `dst` given `parent_edge`,
/// the parent row of `src` in a ShortestPathMetric.
Path reconstruct(const Graph& g, int src, int dst,
                 std::span<const int> parent_edge) {
  Path reversed = {dst};
  int v = dst;
  while (v != src) {
    const int e = parent_edge[static_cast<std::size_t>(v)];
    assert(e >= 0);
    v = g.edge(e).other(v);
    reversed.push_back(v);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace

ShortestPathMetric::ShortestPathMetric(const FlatAdjacency& adj,
                                       const std::vector<double>& edge_length,
                                       util::ThreadPool* pool)
    : n_(adj.num_vertices()) {
  assert(n_ >= 1);
  const std::size_t sn = static_cast<std::size_t>(n_);
  dist_.resize(sn * sn);
  parent_.resize(sn * sn);
  // Contiguous row chunks, a few per thread so work stealing can balance
  // them; one heap scratch per chunk. Each chunk writes only its own rows
  // and its own max, and max is exact in any order, so the metric does not
  // depend on the chunking. The first non-finite distance in row-major
  // order is the one reported: the pool rethrows the smallest throwing
  // chunk's error, and a chunk stops at its first.
  const std::size_t chunks =
      pool ? std::min(sn, 4 * static_cast<std::size_t>(pool->num_threads()))
           : 1;
  std::vector<double> chunk_max(chunks, 0.0);
  auto run_chunk = [&](std::size_t c) {
    DijkstraScratch scratch;
    double max_dist = 0.0;
    for (std::size_t u = c * sn / chunks; u < (c + 1) * sn / chunks; ++u) {
      const std::span<double> row(dist_.data() + u * sn, sn);
      dijkstra_into(adj, static_cast<int>(u), edge_length, row,
                    std::span<int>(parent_.data() + u * sn, sn), scratch);
      for (std::size_t v = 0; v < sn; ++v) {
        if (!std::isfinite(row[v])) {
          throw SorError(ErrorCode::kInfiniteDistance, "frt_metric",
                         "frt_metric: distance from " + std::to_string(u) +
                             " to " + std::to_string(v) +
                             " is not finite (FRT trees need a connected "
                             "graph and finite edge lengths)");
        }
        max_dist = std::max(max_dist, row[v]);
      }
    }
    chunk_max[c] = max_dist;
  };
  if (pool) {
    pool->parallel_for(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
  diameter_ = *std::max_element(chunk_max.begin(), chunk_max.end());
  if (diameter_ <= 0.0) diameter_ = 1.0;
}

namespace {

/// `edge_length` itself, once every entry is finite and positive. A zero
/// length puts two vertices at distance 0 inside every ball, so their
/// cluster would never split and the partition loop would not terminate.
const std::vector<double>& positive_lengths(
    const std::vector<double>& edge_length) {
  for (std::size_t e = 0; e < edge_length.size(); ++e) {
    if (!(std::isfinite(edge_length[e]) && edge_length[e] > 0.0)) {
      throw SorError(ErrorCode::kBadLength, "frt_lengths",
                     "FrtTree: edge " + std::to_string(e) + " has length " +
                         std::to_string(edge_length[e]) +
                         "; lengths must be finite and > 0");
    }
  }
  return edge_length;
}

}  // namespace

FrtTree::FrtTree(const Graph& g, const std::vector<double>& edge_length,
                 Rng& rng)
    : FrtTree(g,
              ShortestPathMetric(FlatAdjacency(g),
                                 positive_lengths(edge_length)),
              rng) {}

FrtTree::FrtTree(const Graph& g, const ShortestPathMetric& metric, Rng& rng) {
  const int n = g.num_vertices();
  assert(metric.num_vertices() == n);

  // Random permutation and scale parameter beta in [1, 2).
  const std::vector<int> pi = rng.permutation(n);
  const double beta = rng.uniform_double(1.0, 2.0);

  // Root cluster = V, centered at pi[0].
  nodes_.push_back(FrtNode{-1, pi[0], 0, {}});
  leaf_.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> members = {std::vector<int>()};
  members[0].resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) members[0][static_cast<std::size_t>(v)] = v;

  // Peel levels with geometrically decreasing radii until all clusters are
  // singletons.
  std::vector<int> frontier = {0};  // node ids whose clusters may split
  std::vector<int> next_frontier;
  std::vector<char> assigned;       // partition scratch, reused across levels
  double radius = beta * metric.diameter();
  int depth = 0;
  while (!frontier.empty()) {
    radius /= 2.0;
    ++depth;
    next_frontier.clear();
    for (int node_id : frontier) {
      auto cluster = std::move(members[static_cast<std::size_t>(node_id)]);
      members[static_cast<std::size_t>(node_id)].clear();
      if (cluster.size() == 1) {
        leaf_[static_cast<std::size_t>(cluster[0])] = node_id;
        continue;
      }
      // Partition by first permutation vertex within `radius`.
      assigned.assign(cluster.size(), 0);
      std::size_t remaining = cluster.size();
      for (int u : pi) {
        if (remaining == 0) break;
        // Loop-local on purpose: the buffer is moved into `members` for
        // every non-empty child, so there is no capacity to reuse.
        std::vector<int> child_members;
        for (std::size_t i = 0; i < cluster.size(); ++i) {
          if (assigned[i]) continue;
          const int v = cluster[i];
          if (metric.dist(u, v) <= radius) {
            assigned[i] = 1;
            --remaining;
            child_members.push_back(v);
          }
        }
        if (child_members.empty()) continue;
        const int child_id = static_cast<int>(nodes_.size());
        FrtNode child;
        child.parent = node_id;
        // A singleton cluster is centered on its own vertex so that the leaf
        // of v starts/ends tree walks exactly at v.
        child.center = child_members.size() == 1 ? child_members[0] : u;
        child.depth = depth;
        const int parent_center =
            nodes_[static_cast<std::size_t>(node_id)].center;
        const int u_center = child.center;
        if (u_center != parent_center) {
          child.path_to_parent = reconstruct(
              g, parent_center, u_center, metric.parent_row(parent_center));
          std::reverse(child.path_to_parent.begin(),
                       child.path_to_parent.end());
        }
        nodes_.push_back(std::move(child));
        members.push_back(std::move(child_members));
        next_frontier.push_back(child_id);
      }
      assert(remaining == 0 && "every vertex is within radius of itself");
    }
    frontier.swap(next_frontier);
    // Terminates: the metric's distances are finite and lengths positive,
    // so once the halving radius drops below the least distance between
    // distinct vertices every cluster is a singleton — within
    // log2(diameter / least distance) + 1 levels, a few thousand at most
    // across the double range.
  }

  for (int v = 0; v < n; ++v) {
    assert(leaf_[static_cast<std::size_t>(v)] >= 0);
  }

  // Boundary capacities per tree node's cluster. Recompute membership from
  // leaves (cluster of a node = leaves under it).
  std::vector<std::vector<int>> leaves_under(nodes_.size());
  for (int v = 0; v < n; ++v) {
    int node = leaf_[static_cast<std::size_t>(v)];
    while (node >= 0) {
      leaves_under[static_cast<std::size_t>(node)].push_back(v);
      node = nodes_[static_cast<std::size_t>(node)].parent;
    }
  }
  cluster_boundary_.assign(nodes_.size(), 0.0);
  std::vector<char> in_set(static_cast<std::size_t>(n), 0);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].parent < 0) continue;  // root has no parent edge
    for (int v : leaves_under[id]) in_set[static_cast<std::size_t>(v)] = 1;
    // Only edges incident to cluster members can cross the boundary, so the
    // total cost over all nodes is O(depth * m) rather than O(#nodes * m).
    double boundary = 0.0;
    for (int v : leaves_under[id]) {
      for (int e : g.incident(v)) {
        if (!in_set[static_cast<std::size_t>(g.edge(e).other(v))]) {
          boundary += g.edge(e).capacity;
        }
      }
    }
    cluster_boundary_[id] = boundary;
    for (int v : leaves_under[id]) in_set[static_cast<std::size_t>(v)] = 0;
  }
}

Path FrtTree::route(int s, int t) const {
  assert(s != t);
  int a = leaf_of(s);
  int b = leaf_of(t);
  // Climb to equal depth, then in lockstep to the LCA, collecting the
  // embedded paths: up-walk from s (paths in child->parent direction) and
  // up-walk from t (to be reversed).
  Path up_from_s = {s};
  Path up_from_t = {t};
  auto climb = [&](int& node, Path& walk) {
    const FrtNode& nd = nodes_[static_cast<std::size_t>(node)];
    assert(nd.parent >= 0);
    if (!nd.path_to_parent.empty()) {
      assert(nd.path_to_parent.front() == walk.back());
      walk.insert(walk.end(), nd.path_to_parent.begin() + 1,
                  nd.path_to_parent.end());
    }
    node = nd.parent;
  };
  while (nodes_[static_cast<std::size_t>(a)].depth >
         nodes_[static_cast<std::size_t>(b)].depth) {
    climb(a, up_from_s);
  }
  while (nodes_[static_cast<std::size_t>(b)].depth >
         nodes_[static_cast<std::size_t>(a)].depth) {
    climb(b, up_from_t);
  }
  while (a != b) {
    climb(a, up_from_s);
    climb(b, up_from_t);
  }
  std::reverse(up_from_t.begin(), up_from_t.end());
  // up_from_s ends at the LCA center; up_from_t starts there.
  assert(up_from_s.back() == up_from_t.front());
  Path walk = concatenate_walks(up_from_s, up_from_t);
  Path simple = simplify_walk(walk);
  assert(simple.front() == s && simple.back() == t);
  return simple;
}

void FrtTree::accumulate_embedding_load(const Graph& g,
                                        std::vector<double>& load) const {
  assert(static_cast<int>(load.size()) == g.num_edges());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const FrtNode& nd = nodes_[id];
    if (nd.parent < 0 || nd.path_to_parent.empty()) continue;
    for (int e : path_edge_ids(g, nd.path_to_parent)) {
      load[static_cast<std::size_t>(e)] += cluster_boundary_[id];
    }
  }
}

}  // namespace sor
