#include "core/path_system.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>

#include "graph/maxflow.h"
#include "obs/trace.h"

namespace sor {

void PathSystem::add_path(int s, int t, Path path) {
  assert(s != t);
  assert(!path.empty() && path.front() == s && path.back() == t);
#ifndef NDEBUG
  if (n_ > 0) {
    for (int v : path) assert(v >= 0 && v < n_ && "path vertex out of range");
  }
#endif
  if (store_.graph() != nullptr) {
    refs_[pair_key(s, t)].push_back(store_.intern(path));
  }
  auto& list = paths_[{s, t}];
  list.push_back(std::move(path));
  ++total_paths_;
  sparsity_ = std::max(sparsity_, list.size());
}

namespace {

/// body(0), ..., body(n - 1) on `pool`, or inline in index order without
/// one; either way the caller's shared-nothing writes give one result.
void for_each_index(util::ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (pool) {
    pool->parallel_for(n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace

void PathSystem::add_paths(const std::vector<std::pair<int, int>>& pairs,
                           std::vector<std::vector<Path>>&& paths,
                           util::ThreadPool* pool) {
  assert(paths.size() == pairs.size());
  const bool bound = store_.graph() != nullptr;
  std::vector<std::vector<PathRef>> pair_refs(bound ? pairs.size() : 0);
  if (bound) {
    const obs::TraceSpan span("intern", "install");
    // One serial prefix sum over the slab sizes gives every pair the
    // offset the add_path loop would give it; the arena then grows once.
    const std::size_t size_before = store_.arena_size();
    const std::size_t paths_before = store_.num_paths();
    std::vector<std::int64_t> first(pairs.size());
    std::size_t ints = 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      first[i] = static_cast<std::int64_t>(size_before + ints);
      for (const Path& path : paths[i]) {
        ints += PathStore::slab_ints(hop_count(path));
      }
      count += paths[i].size();
    }
    store_.extend(ints, count);
    try {
      for_each_index(pool, pairs.size(), [&](std::size_t i) {
        std::int64_t offset = first[i];
        pair_refs[i].reserve(paths[i].size());
        for (const Path& path : paths[i]) {
          pair_refs[i].push_back(store_.write_slab(offset, path));
          offset += static_cast<std::int64_t>(
              PathStore::slab_ints(hop_count(path)));
        }
      });
    } catch (...) {
      store_.truncate(size_before, paths_before);
      throw;
    }
  }

  const obs::TraceSpan span("index", "install");
  if (bound) refs_.reserve(refs_.size() + pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::vector<Path>& added = paths[i];
    if (added.empty()) continue;
    const auto [s, t] = pairs[i];
#ifndef NDEBUG
    assert(s != t);
    for (const Path& path : added) {
      assert(!path.empty() && path.front() == s && path.back() == t);
      for (int v : path) {
        assert((n_ == 0 || (v >= 0 && v < n_)) && "path vertex out of range");
      }
    }
#endif
    total_paths_ += added.size();
    if (bound) {
      auto& refs = refs_[pair_key(s, t)];
      if (refs.empty()) {
        refs = std::move(pair_refs[i]);
      } else {
        refs.insert(refs.end(), pair_refs[i].begin(), pair_refs[i].end());
      }
    }
    // The end hint makes each insertion O(1) when pairs arrive sorted, as
    // the samplers' pair lists usually do. Stored lists are never empty,
    // so an empty one was just created.
    auto& list = paths_.try_emplace(paths_.end(), pairs[i])->second;
    if (list.empty()) {
      list = std::move(added);
    } else {
      list.insert(list.end(), std::make_move_iterator(added.begin()),
                  std::make_move_iterator(added.end()));
    }
    sparsity_ = std::max(sparsity_, list.size());
  }
}

const std::vector<Path>& PathSystem::paths(int s, int t) const {
  // One immutable empty list for every miss across every instance; a
  // per-instance member would tie the returned reference's lifetime to the
  // queried object and invite accidental mutation through const lookups.
  static const std::vector<Path> kNoPaths;
  auto it = paths_.find({s, t});
  return it == paths_.end() ? kNoPaths : it->second;
}

std::span<const PathRef> PathSystem::refs(int s, int t) const {
  auto it = refs_.find(pair_key(s, t));
  if (it == refs_.end()) return {};
  return {it->second.data(), it->second.size()};
}

bool PathSystem::has_pair(int s, int t) const {
  return paths_.find({s, t}) != paths_.end();
}

void PathSystem::begin_reinstall() {
  paths_.clear();
  refs_.clear();
  sparsity_ = 0;
  total_paths_ = 0;
  // store_ intentionally untouched: its slabs are now dead but its capacity
  // is the budget the next install's interning runs inside. compact_store()
  // after re-sampling reclaims the dead prefix in place.
}

std::size_t PathSystem::compact_store(PathRemap* out_remap) {
  if (store_.graph() == nullptr) return 0;
  const std::size_t before = store_.arena_size();
  // Gather live refs in ORDERED pair-map order so the compacted layout (and
  // with it every downstream arena dump) is deterministic regardless of
  // refs_'s unordered iteration order.
  std::vector<PathRef> live;
  live.reserve(total_paths_);
  for (const auto& [pair, list] : paths_) {
    for (PathRef ref : refs(pair.first, pair.second)) live.push_back(ref);
  }
  PathRemap remap = store_.compact(live);
  for (auto& [key, refs] : refs_) {
    for (PathRef& ref : refs) ref = remap(ref);
  }
  if (out_remap != nullptr) *out_remap = std::move(remap);
  return before - store_.arena_size();
}

void PathSystem::merge(const PathSystem& other) {
  assert(n_ == 0 || other.num_vertices() == 0 || n_ == other.num_vertices());
  // When both systems are interned against the same graph, slabs are copied
  // arena-to-arena without re-resolving edges; otherwise (this bound, other
  // not or differently bound) paths are re-interned through edge_between.
  const bool adopt =
      store_.graph() != nullptr && store_.graph() == other.store_.graph();
  std::vector<PathRef> staged;
  for (const auto& [pair, list] : other.entries()) {
    if (store_.graph() != nullptr) {
      // Stage the pair's refs before touching refs_/paths_: intern may
      // throw (untransferable path), and refs(s,t) must stay aligned with
      // paths(s,t) — a caller that catches keeps a consistent system with
      // every fully-processed pair merged and the failing pair untouched.
      staged.clear();
      if (adopt) {
        for (PathRef ref : other.refs(pair.first, pair.second)) {
          staged.push_back(store_.adopt(other.store_, ref));
        }
      } else {
        for (const Path& p : list) staged.push_back(store_.intern(p));
      }
      auto& refs = refs_[pair_key(pair.first, pair.second)];
      refs.insert(refs.end(), staged.begin(), staged.end());
    }
    auto& mine = paths_[pair];
    mine.insert(mine.end(), list.begin(), list.end());
    total_paths_ += list.size();
    sparsity_ = std::max(sparsity_, mine.size());
  }
}

void flat_candidates_into(const PathSystem& ps,
                          const std::vector<Commodity>& commodities,
                          FlatCandidates& out) {
  assert(ps.store().graph() != nullptr &&
         "flat_candidates requires a graph-bound path system");
  const PathStore& store = ps.store();
  out.clear();
  std::size_t total_paths = 0;
  std::size_t total_edges = 0;
  for (const Commodity& c : commodities) {
    for (PathRef ref : ps.refs(c.s, c.t)) {
      ++total_paths;
      total_edges += static_cast<std::size_t>(ref.hops);
    }
  }
  out.reserve(total_paths, total_edges, commodities.size());
  for (const Commodity& c : commodities) {
    for (PathRef ref : ps.refs(c.s, c.t)) {
      out.add_path(store.edge_ids(ref));
    }
    out.end_commodity();
  }
}

FlatCandidates flat_candidates(const PathSystem& ps,
                               const std::vector<Commodity>& commodities) {
  FlatCandidates flat;
  flat_candidates_into(ps, commodities, flat);
  return flat;
}

namespace {

/// Shared fan-out skeleton of the two samplers: `draws(i)` paths for pair
/// i, each pair on its own seed-split stream, results appended to `ps` in
/// pair order by add_paths, which interns them on the same pool.
/// Pair-independent streams make the output thread-count invariant, and
/// appending into a caller-owned system lets a service reinstall into the
/// same arena it has been serving from.
template <typename DrawCount>
void sample_pairs_into(const ObliviousRouting& routing,
                       const std::vector<std::pair<int, int>>& pairs,
                       Rng& rng, util::ThreadPool* pool,
                       const DrawCount& draws, PathSystem& ps) {
  assert(ps.flat_for(routing.graph()) &&
         "sample_pairs_into requires a system bound to the routing's graph");
  std::vector<Rng> streams = rng.split(pairs.size());
  std::vector<std::vector<Path>> sampled(pairs.size());
  {
    const obs::TraceSpan span("sample", "install");
    for_each_index(pool, pairs.size(), [&](std::size_t i) {
      const auto [s, t] = pairs[i];
      if (s == t) return;
      const int count = draws(i);
      sampled[i].reserve(static_cast<std::size_t>(count));
      for (int k = 0; k < count; ++k) {
        sampled[i].push_back(routing.sample_path(s, t, streams[i]));
      }
    });
  }
  ps.add_paths(pairs, std::move(sampled), pool);
}

}  // namespace

void sample_path_system_into(const ObliviousRouting& routing, int alpha,
                             const std::vector<std::pair<int, int>>& pairs,
                             Rng& rng, util::ThreadPool* pool,
                             PathSystem& ps) {
  assert(alpha >= 1);
  sample_pairs_into(routing, pairs, rng, pool,
                    [alpha](std::size_t) { return alpha; }, ps);
}

PathSystem sample_path_system(const ObliviousRouting& routing, int alpha,
                              const std::vector<std::pair<int, int>>& pairs,
                              Rng& rng, util::ThreadPool* pool) {
  PathSystem ps(routing.graph());
  sample_path_system_into(routing, alpha, pairs, rng, pool, ps);
  return ps;
}

std::vector<std::pair<int, int>> all_ordered_pairs(int n) {
  std::vector<std::pair<int, int>> pairs;
  if (n > 1) {
    pairs.reserve(static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(n - 1));
  }
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

PathSystem sample_path_system_all_pairs(const ObliviousRouting& routing,
                                        int alpha, Rng& rng,
                                        util::ThreadPool* pool) {
  return sample_path_system(routing, alpha,
                            all_ordered_pairs(routing.graph().num_vertices()),
                            rng, pool);
}

void sample_path_system_with_cut_into(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool, PathSystem& ps) {
  assert(alpha >= 1);
  const Graph& g = routing.graph();
  // The Dinic cut runs inside the fan-out too: it is deterministic, so it
  // only affects the per-pair draw count, never the stream assignment.
  sample_pairs_into(
      routing, pairs, rng, pool,
      [&](std::size_t i) {
        return alpha + cut_value(g, pairs[i].first, pairs[i].second);
      },
      ps);
}

PathSystem sample_path_system_with_cut(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool) {
  PathSystem ps(routing.graph());
  sample_path_system_with_cut_into(routing, alpha, pairs, rng, pool, ps);
  return ps;
}

std::vector<std::pair<int, int>> support_pairs(const Demand& d) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(d.support_size());
  for (const auto& [pair, value] : d.entries()) pairs.push_back(pair);
  return pairs;
}

Demand special_demand(const Graph& g, int alpha,
                      const std::vector<std::pair<int, int>>& pairs) {
  Demand d;
  for (const auto& [s, t] : pairs) {
    if (s == t) continue;
    d.set(s, t, static_cast<double>(alpha + cut_value(g, s, t)));
  }
  return d;
}

}  // namespace sor
