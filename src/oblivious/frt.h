// Fakcharoenphol–Rao–Talwar (FRT) hierarchical tree embedding.
//
// Given positive edge lengths, builds a random hierarchically-well-separated
// tree whose leaves are the graph vertices and whose expected path-length
// stretch is O(log n). Each tree edge (cluster -> parent cluster) is
// embedded back into the graph as a shortest path between the cluster
// centers, so tree routes translate into graph walks.
//
// This is the building block of the Räcke-style oblivious routing
// (racke.h): Räcke's O(log n)-competitive scheme is a distribution over
// decomposition trees; we realize it as iteratively reweighted FRT trees,
// the construction deployed by SMORE [KYY+18] (see DESIGN.md substitutions).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {

namespace util {
class ThreadPool;
}

/// The all-pairs shortest-path metric under one edge-length vector: the
/// input every FRT tree partitions. Row-major n*n slabs hold dist(u, v)
/// and, per source u, the parent edge of every v in u's shortest-path
/// tree. Räcke builds one per MWU wave and shares it read-only among the
/// wave's trees.
class ShortestPathMetric {
 public:
  /// One full-sweep Dijkstra per vertex over `adj`, the graph's CSR
  /// snapshot. Rows are independent, so they fan over `pool` (serial when
  /// null) in contiguous chunks and the output is the same for every
  /// thread count. Throws SorError{kInfiniteDistance, "frt_metric"} in
  /// every build type when some distance is not finite: a disconnected
  /// graph, or lengths that overflowed to infinity.
  ShortestPathMetric(const FlatAdjacency& adj,
                     const std::vector<double>& edge_length,
                     util::ThreadPool* pool = nullptr);

  int num_vertices() const { return n_; }
  double dist(int u, int v) const {
    return dist_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(v)];
  }
  /// Parent edge ids of u's shortest-path tree (-1 at u itself).
  std::span<const int> parent_row(int u) const {
    return {parent_.data() +
                static_cast<std::size_t>(u) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }
  /// The largest distance, or 1 when every distance is 0 (n = 1).
  double diameter() const { return diameter_; }

 private:
  int n_;
  std::vector<double> dist_;
  std::vector<int> parent_;
  double diameter_ = 0.0;
};

/// One node of the FRT cluster tree.
struct FrtNode {
  int parent = -1;        ///< node id of parent (-1 for root)
  int center = 0;         ///< graph vertex acting as cluster center
  int depth = 0;          ///< root has depth 0
  /// Embedded graph path from this node's center to the parent's center
  /// (empty for the root or when centers coincide).
  Path path_to_parent;
};

/// An FRT tree plus its embedding into the host graph.
class FrtTree {
 public:
  /// Builds a random FRT tree of `metric`, which must be the metric of
  /// `g` under positive edge lengths: only the random ball-growing
  /// partition and the embedding run here, so trees of one metric share
  /// its all-pairs Dijkstra cost.
  FrtTree(const Graph& g, const ShortestPathMetric& metric, Rng& rng);

  /// Builds a random FRT tree w.r.t. `edge_length`, computing the metric
  /// for this tree alone. Throws SorError{kBadLength, "frt_lengths"} (every
  /// build type) unless every length is finite and > 0, and like
  /// ShortestPathMetric when the graph is disconnected.
  FrtTree(const Graph& g, const std::vector<double>& edge_length, Rng& rng);

  const std::vector<FrtNode>& nodes() const { return nodes_; }
  int leaf_of(int vertex) const {
    return leaf_[static_cast<std::size_t>(vertex)];
  }

  /// The graph walk obtained by routing s -> t through the tree (climb to
  /// the lowest common ancestor, descend), concatenating the embedded
  /// per-tree-edge paths, then removing loops. Always a simple s-t path.
  Path route(int s, int t) const;

  /// For every tree edge (node -> parent): the boundary capacity of the
  /// node's vertex cluster (sum of capacities leaving the cluster). This is
  /// the Räcke load the tree places on its embedded paths.
  const std::vector<double>& cluster_boundary() const {
    return cluster_boundary_;
  }

  /// Adds this tree's Räcke embedding load onto `load` (size num_edges):
  /// for every tree edge, its cluster boundary capacity is charged to every
  /// graph edge of its embedded path.
  void accumulate_embedding_load(const Graph& g,
                                 std::vector<double>& load) const;

 private:
  std::vector<FrtNode> nodes_;
  std::vector<int> leaf_;              ///< vertex -> leaf node id
  std::vector<double> cluster_boundary_;
};

}  // namespace sor
