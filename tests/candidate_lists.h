// Test helpers for candidate lists written out as vertex sequences.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "core/path_store.h"
#include "core/path_system.h"
#include "graph/graph.h"

namespace sor {

/// The restricted solvers' flat input from one candidate list per
/// commodity. Each path is interned into a PathStore bound to `g` — the
/// edge resolution every installed path goes through — so commodities that
/// share an (s, t) pair keep their own lists.
inline FlatCandidates intern_candidates(
    const Graph& g, const std::vector<std::vector<Path>>& paths) {
  PathStore store(g);
  FlatCandidates flat;
  for (const auto& list : paths) {
    for (const Path& p : list) flat.add_path(store.edge_ids(store.intern(p)));
    flat.end_commodity();
  }
  return flat;
}

/// Every pair's candidate list, in (s, t) order: a path system's whole
/// content as one comparable value.
inline std::map<std::pair<int, int>, std::vector<Path>> candidate_lists(
    const PathSystem& ps) {
  std::map<std::pair<int, int>, std::vector<Path>> lists;
  for (const auto& [s, t] : ps.pairs()) lists[{s, t}] = ps.paths(s, t);
  return lists;
}

}  // namespace sor
