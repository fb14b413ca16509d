#include "core/path_system.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <string>

#include "fault/sor_error.h"
#include "graph/maxflow.h"
#include "obs/trace.h"

namespace sor {

void PathSystem::add_path(int s, int t, const Path& path) {
  assert(s != t);
  assert(!path.empty() && path.front() == s && path.back() == t);
  const PathRef ref = store_.intern(path);
  auto& refs = refs_[pair_key(s, t)];
  refs.push_back(ref);
  ++total_paths_;
  sparsity_ = std::max(sparsity_, refs.size());
}

void PathSystem::require_bound_to(const Graph& g, const char* site) const {
  if (bound_to(g)) return;
  throw SorError(ErrorCode::kGraphMismatch, site,
                 std::string(site) +
                     ": the path system is bound to a different Graph "
                     "object than the one routed on");
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
                           const std::vector<std::span<const int>>& packed,
                           util::ThreadPool* pool) {
  assert(packed.size() == pairs.size());
  // Calls body(h, vertices) for each path packed in `buf`.
  const auto for_each_packed = [](std::span<const int> buf, const auto& body) {
    for (std::size_t pos = 0; pos < buf.size();) {
      const int hops = buf[pos];
      body(hops, buf.subspan(pos + 1, static_cast<std::size_t>(hops) + 1));
      pos += static_cast<std::size_t>(hops) + 2;
    }
  };
  std::vector<std::vector<PathRef>> pair_refs(pairs.size());
  {
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
      for_each_packed(packed[i], [&](int hops, std::span<const int>) {
        ints += PathStore::slab_ints(hops);
        ++count;
      });
    }
    store_.extend(ints, count);
    try {
      for_each_index(pool, pairs.size(), [&](std::size_t i) {
        std::int64_t offset = first[i];
        for_each_packed(packed[i], [&](int hops, std::span<const int> path) {
          assert(path.front() == pairs[i].first &&
                 path.back() == pairs[i].second);
          pair_refs[i].push_back(store_.write_slab(offset, path));
          offset += static_cast<std::int64_t>(PathStore::slab_ints(hops));
        });
      });
    } catch (...) {
      store_.truncate(size_before, paths_before);
      throw;
    }
  }

  const obs::TraceSpan span("index", "install");
  refs_.reserve(refs_.size() + pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::vector<PathRef>& added = pair_refs[i];
    if (added.empty()) continue;
    const auto [s, t] = pairs[i];
    assert(s != t);
    total_paths_ += added.size();
    auto& refs = refs_[pair_key(s, t)];
    if (refs.empty()) {
      refs = std::move(added);
    } else {
      refs.insert(refs.end(), added.begin(), added.end());
    }
    sparsity_ = std::max(sparsity_, refs.size());
  }
}

std::vector<Path> PathSystem::paths(int s, int t) const {
  const auto pair_refs = refs(s, t);
  std::vector<Path> out;
  out.reserve(pair_refs.size());
  for (PathRef ref : pair_refs) out.push_back(store_.to_path(ref));
  return out;
}

std::span<const PathRef> PathSystem::refs(int s, int t) const {
  auto it = refs_.find(pair_key(s, t));
  if (it == refs_.end()) return {};
  return {it->second.data(), it->second.size()};
}

std::vector<std::pair<int, int>> PathSystem::pairs() const {
  // Packed keys of non-negative vertex ids sort lexicographically by (s, t).
  std::vector<std::int64_t> keys;
  keys.reserve(refs_.size());
  for (const auto& entry : refs_) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<int, int>> out;
  out.reserve(keys.size());
  for (std::int64_t key : keys) {
    out.emplace_back(static_cast<int>(key >> 32),
                     static_cast<int>(static_cast<std::uint32_t>(key)));
  }
  return out;
}

void PathSystem::begin_reinstall() {
  refs_.clear();
  sparsity_ = 0;
  total_paths_ = 0;
  // store_ intentionally untouched: its slabs are now dead but its capacity
  // is the budget the next install's interning runs inside. compact_store()
  // after re-sampling reclaims the dead prefix in place.
}

std::size_t PathSystem::compact_store(PathRemap* out_remap) {
  const std::size_t before = store_.arena_size();
  // PathStore::compact orders live slabs by offset, so the compacted layout
  // does not depend on refs_'s unordered iteration order.
  std::vector<PathRef> live;
  live.reserve(total_paths_);
  for (const auto& [key, refs] : refs_) {
    live.insert(live.end(), refs.begin(), refs.end());
  }
  PathRemap remap = store_.compact(live);
  for (auto& [key, refs] : refs_) {
    for (PathRef& ref : refs) ref = remap(ref);
  }
  if (out_remap != nullptr) *out_remap = std::move(remap);
  return before - store_.arena_size();
}

void PathSystem::merge(const PathSystem& other) {
  const bool adopt = store_.graph() == other.store_.graph();
  std::vector<PathRef> staged;
  for (const auto& [s, t] : other.pairs()) {
    // Stage the pair's refs before touching refs_: intern may throw
    // (untransferable path), and a caller that catches keeps a consistent
    // system with every fully-processed pair merged and the failing pair
    // untouched.
    staged.clear();
    for (PathRef ref : other.refs(s, t)) {
      staged.push_back(adopt ? store_.adopt(other.store_, ref)
                             : store_.intern(other.store_.to_path(ref)));
    }
    auto& refs = refs_[pair_key(s, t)];
    refs.insert(refs.end(), staged.begin(), staged.end());
    total_paths_ += staged.size();
    sparsity_ = std::max(sparsity_, refs.size());
  }
}

void flat_candidates_into(const PathSystem& ps,
                          const std::vector<Commodity>& commodities,
                          FlatCandidates& out) {
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
  assert(ps.bound_to(routing.graph()) &&
         "sample_pairs_into requires a system bound to the routing's graph");
  std::vector<Rng> streams = rng.split(pairs.size());
  // Contiguous chunks of pairs each sample into one packed buffer, so an
  // install allocates a few buffers rather than one vector per path: freeing
  // those, across threads, cost about as much as interning them.
  const std::size_t chunks =
      pool == nullptr
          ? 1
          : std::min(pairs.size(),
                     4 * static_cast<std::size_t>(pool->num_threads()));
  std::vector<std::vector<int>> buffers(chunks);
  std::vector<std::size_t> end(pairs.size());  // pair's end in its buffer
  const auto chunk_first = [&](std::size_t c) {
    return c * pairs.size() / chunks;
  };
  {
    const obs::TraceSpan span("sample", "install");
    for_each_index(pool, chunks, [&](std::size_t c) {
      std::vector<int>& buf = buffers[c];
      for (std::size_t i = chunk_first(c); i < chunk_first(c + 1); ++i) {
        const auto [s, t] = pairs[i];
        const int count = s == t ? 0 : draws(i);
        for (int k = 0; k < count; ++k) {
          const Path path = routing.sample_path(s, t, streams[i]);
          buf.push_back(hop_count(path));
          buf.insert(buf.end(), path.begin(), path.end());
        }
        end[i] = buf.size();
      }
    });
  }
  std::vector<std::span<const int>> packed(pairs.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t begin = 0;
    for (std::size_t i = chunk_first(c); i < chunk_first(c + 1); ++i) {
      packed[i] =
          std::span<const int>(buffers[c]).subspan(begin, end[i] - begin);
      begin = end[i];
    }
  }
  ps.add_paths(pairs, packed, pool);
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
