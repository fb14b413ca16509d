#include "core/semi_oblivious.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "fault/sor_error.h"
#include "graph/shortest_path.h"

namespace sor {
namespace {

/// Refills out.commodities, out.paths and out.flat with d's support and its
/// candidates, read from the arena. Each nested buffer keeps its capacity,
/// so under a stable demand shape the refill allocates nothing. A positive
/// demand on a pair without candidates is a typed error in every build
/// type: dropping it would report a congestion that ignores part of the
/// demand.
void gather_into(const Graph& g, const PathSystem& ps, const Demand& d,
                 SemiObliviousSolution& out) {
  ps.require_bound_to(g, "route_fractional");
  d.commodities_into(out.commodities);
  const std::size_t k = out.commodities.size();
  const PathStore& store = ps.store();
  out.paths.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    const Commodity& c = out.commodities[j];
    const auto refs = ps.refs(c.s, c.t);
    if (c.amount > 0.0 && refs.empty()) {
      std::ostringstream msg;
      msg << "route_fractional: demand pair (" << c.s << ", " << c.t
          << ") has no candidate paths in the path system";
      throw SorError(ErrorCode::kUninstalledPair, "route_fractional",
                     msg.str());
    }
    out.paths[j].resize(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const auto verts = store.vertices(refs[i]);
      out.paths[j][i].assign(verts.begin(), verts.end());
    }
  }
  flat_candidates_into(ps, out.commodities, out.flat);
}

/// Copies the solver's result into `out` (capacity-retaining assigns).
void take_result(const CongestionResult& result, SemiObliviousSolution& out) {
  const std::size_t k = out.commodities.size();
  out.weights.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.weights[j].assign(result.path_weights[j].begin(),
                          result.path_weights[j].end());
  }
  out.edge_load.assign(result.edge_load.begin(), result.edge_load.end());
  out.congestion = result.congestion;
  out.lower_bound = result.lower_bound;
  out.status = result.status;
  out.optimality_gap = result.optimality_gap;
  out.rounds_used = result.rounds_used;
  out.max_hops = 0;
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < out.weights[j].size(); ++i) {
      if (out.weights[j][i] > 1e-12) {
        out.max_hops = std::max(
            out.max_hops, static_cast<int>(out.flat.edges(j, i).size()));
      }
    }
  }
}

}  // namespace

void route_fractional_into(const Graph& g, const PathSystem& ps,
                           const Demand& d,
                           const MinCongestionOptions& options,
                           RouteScratch& scratch, SemiObliviousSolution& out) {
  gather_into(g, ps, d, out);
  min_congestion_over_paths_into(g, out.commodities, out.flat, options,
                                 scratch.mwu, scratch.result);
  take_result(scratch.result, out);
}

SemiObliviousSolution route_fractional(const Graph& g, const PathSystem& ps,
                                       const Demand& d,
                                       const MinCongestionOptions& options) {
  RouteScratch scratch;
  SemiObliviousSolution out;
  route_fractional_into(g, ps, d, options, scratch, out);
  return out;
}

SemiObliviousSolution route_fractional_exact(const Graph& g,
                                             const PathSystem& ps,
                                             const Demand& d) {
  SemiObliviousSolution out;
  gather_into(g, ps, d, out);
  take_result(min_congestion_over_paths_exact(g, out.commodities, out.flat),
              out);
  return out;
}

OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options,
                                     OptimumScratch& scratch) {
  OptimalCongestion opt;
  if (d.empty()) return opt;
  d.commodities_into(scratch.commodities);
  min_congestion_free_into(g, scratch.commodities, options, scratch.mwu,
                           scratch.result);
  opt.upper = scratch.result.congestion;
  opt.lower = scratch.result.lower_bound;
  opt.status = scratch.result.status;
  // opt >= siz(d) / total capacity (Lemma 5.16 generalized to capacities):
  // every unit of demand crosses at least one edge.
  const double trivial = d.size() / g.total_capacity();
  opt.lower = std::max(opt.lower, trivial);
  opt.upper = std::max(opt.upper, opt.lower);
  return opt;
}

OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options) {
  OptimumScratch scratch;
  return optimal_congestion(g, d, options, scratch);
}

double competitive_ratio(const SemiObliviousSolution& solution,
                         const OptimalCongestion& opt) {
  assert(opt.value() > 0.0);
  return solution.congestion / opt.value();
}

double distance_lower_bound(const Graph& g, const Demand& d,
                            DistanceBoundScratch& scratch) {
  if (d.empty()) return 0.0;
  auto& lengths = scratch.lengths;
  lengths.resize(static_cast<std::size_t>(g.num_edges()));
  double denominator = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    lengths[static_cast<std::size_t>(e)] = 1.0 / g.edge(e).capacity;
    denominator += 1.0;  // cap_e * w_e with w_e = 1/cap_e
  }
  // One Dijkstra per distinct source in the support, into reused scratch.
  double numerator = 0.0;
  int current_source = -1;
  auto& dist = scratch.dist;
  dist.assign(static_cast<std::size_t>(g.num_vertices()), 0.0);
  const FlatAdjacency& adj = scratch.adj.get(g);
  for (const auto& [pair, value] : d.entries()) {
    if (pair.first != current_source) {
      current_source = pair.first;
      dijkstra_into(adj, current_source, lengths, dist, {}, scratch.dijkstra);
    }
    numerator += value * dist[static_cast<std::size_t>(pair.second)];
  }
  return numerator / denominator;
}

double distance_lower_bound(const Graph& g, const Demand& d) {
  DistanceBoundScratch scratch;
  return distance_lower_bound(g, d, scratch);
}

}  // namespace sor
