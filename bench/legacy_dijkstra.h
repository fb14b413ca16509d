// The VERBATIM pre-change Dijkstra: a binary heap (std::push_heap/pop_heap
// over (dist, vertex) pairs with std::greater, exactly what
// std::priority_queue does) over Graph::incident, plus the allocating
// single-source helper built on it. The library now runs every Dijkstra on
// one 4-ary-heap kernel over a FlatAdjacency snapshot; this is the
// independent reference that kernel is pinned to, and the cost the legacy
// replicas keep paying:
//
//   * bench/legacy_racke.h, bench/legacy_free_path_mwu.h  the replicas
//   * tests/test_shortest_path.cpp  CSR kernel vs this reference, bitwise
//
// Do NOT "optimize" or otherwise edit this — its entire point is to stay
// what the library used to do.
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sor::legacy_dijkstra {

struct DijkstraScratch {
  std::vector<std::pair<double, int>> heap;
};

inline void dijkstra_into(const Graph& g, int source,
                          const std::vector<double>& length,
                          std::span<double> dist, std::span<int> parent_edge,
                          DijkstraScratch& scratch) {
  assert(static_cast<int>(length.size()) == g.num_edges());
  assert(static_cast<int>(dist.size()) == g.num_vertices());
  assert(parent_edge.empty() ||
         static_cast<int>(parent_edge.size()) == g.num_vertices());
  const double inf = std::numeric_limits<double>::infinity();
  std::fill(dist.begin(), dist.end(), inf);
  std::fill(parent_edge.begin(), parent_edge.end(), -1);
  // A min-heap over (dist, vertex) run directly with push_heap/pop_heap on
  // the reused scratch vector — the exact operation sequence of a
  // std::priority_queue with std::greater, minus its per-call allocation.
  using Item = std::pair<double, int>;
  std::vector<Item>& heap = scratch.heap;
  heap.clear();
  dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<Item>{});
    heap.pop_back();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (int e : g.incident(v)) {
      assert(length[static_cast<std::size_t>(e)] >= 0.0);
      const int w = g.edge(e).other(v);
      const double nd = d + length[static_cast<std::size_t>(e)];
      if (nd < dist[static_cast<std::size_t>(w)]) {
        dist[static_cast<std::size_t>(w)] = nd;
        if (!parent_edge.empty()) {
          parent_edge[static_cast<std::size_t>(w)] = e;
        }
        heap.emplace_back(nd, w);
        std::push_heap(heap.begin(), heap.end(), std::greater<Item>{});
      }
    }
  }
}

inline void dijkstra_into(const Graph& g, int source,
                          const std::vector<double>& length,
                          std::span<double> dist,
                          std::span<int> parent_edge) {
  DijkstraScratch scratch;
  legacy_dijkstra::dijkstra_into(g, source, length, dist, parent_edge,
                                 scratch);
}

inline std::vector<double> dijkstra(const Graph& g, int source,
                                    const std::vector<double>& length,
                                    std::vector<int>* parent_edge = nullptr) {
  std::vector<double> dist(static_cast<std::size_t>(g.num_vertices()));
  if (parent_edge) {
    parent_edge->resize(static_cast<std::size_t>(g.num_vertices()));
    legacy_dijkstra::dijkstra_into(g, source, length, dist, *parent_edge);
  } else {
    legacy_dijkstra::dijkstra_into(g, source, length, dist, {});
  }
  return dist;
}

}  // namespace sor::legacy_dijkstra
