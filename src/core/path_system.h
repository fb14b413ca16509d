// Path systems (Definition 2.1) and the paper's sampling constructions
// (Definition 5.2): alpha-samples and (alpha + cut_G)-samples of an
// oblivious routing.
//
// A path system is THE semi-oblivious routing object: the candidate paths
// are fixed obliviously (Stage 2); route weights are chosen adaptively per
// demand by core/semi_oblivious.h (Stage 4).
//
// Storage is two-layered. The boundary layer keeps vertex-sequence `Path`s
// in a std::map — the representation backends, serialization, and tests
// speak. A graph-BOUND system (constructed from a Graph, as every sampler
// does) additionally interns each path into a flat PathStore arena with
// precomputed edge ids, indexed by packed (s,t) int64 key -> [PathRef]; the
// hot consumers (route_fractional's MWU loop, rounding, packet simulation)
// iterate those spans with zero hashing and zero allocation, and produce
// bit-identical results to the boundary representation.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/demand.h"
#include "core/path_store.h"
#include "graph/graph.h"
#include "oblivious/routing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sor {

/// A collection P(s, t) of candidate simple (s, t)-paths per vertex pair.
/// Multiplicities are kept (sampling is with replacement, Definition 5.2);
/// `sparsity()` counts paths with multiplicity, matching |P(s, t)| <= alpha.
class PathSystem {
 public:
  PathSystem() = default;
  explicit PathSystem(int num_vertices) : n_(num_vertices) {}
  /// Graph-bound construction: paths are additionally interned into the
  /// flat PathStore with edge ids precomputed at insertion. `g` is not
  /// owned and must outlive every add_path/merge/flat access.
  explicit PathSystem(const Graph& g)
      : n_(g.num_vertices()), store_(g) {}

  int num_vertices() const { return n_; }

  /// Appends a candidate (s, t)-path. The path must run from s to t; in
  /// debug builds every vertex is validated against num_vertices().
  void add_path(int s, int t, Path path);

  /// Bulk add_path: appends paths[i] to pair pairs[i] for every i, leaving
  /// the arena, refs(s, t) and paths(s, t) bit-identical to calling
  /// add_path on each path in pair order. Each pair's slabs land at the
  /// prefix-sum offset that loop would give them, so interning fans out
  /// over `pool` (null = inline) with every pair writing its own range.
  /// Pairs with no paths are skipped. A non-adjacent hop throws
  /// std::invalid_argument (in every build type) and leaves the system,
  /// and `paths`, exactly as they were.
  void add_paths(const std::vector<std::pair<int, int>>& pairs,
                 std::vector<std::vector<Path>>&& paths,
                 util::ThreadPool* pool = nullptr);

  /// Candidate paths for a pair. A miss returns a reference to a single
  /// immutable program-wide empty list: no allocation, no per-instance
  /// state, safe to call concurrently on a const PathSystem.
  const std::vector<Path>& paths(int s, int t) const;

  bool has_pair(int s, int t) const;

  /// max_{(s,t)} |P(s, t)| (with multiplicity). O(1): maintained on insert.
  std::size_t sparsity() const { return sparsity_; }

  /// Total number of stored paths. O(1): maintained on insert.
  std::size_t total_paths() const { return total_paths_; }

  /// Number of pairs with at least one path.
  std::size_t num_pairs() const { return paths_.size(); }

  /// Deterministic iteration over (pair -> paths).
  const std::map<std::pair<int, int>, std::vector<Path>>& entries() const {
    return paths_;
  }

  /// Merges another path system into this one (pairwise union of path
  /// lists; used by the multi-scale completion-time construction, Lemma 2.8).
  /// When this system is graph-bound, other's paths are re-interned against
  /// OUR graph (slabs are adopted arena-to-arena when both are bound to the
  /// same graph); a path that does not transfer — consecutive vertices not
  /// adjacent here — throws std::invalid_argument rather than storing a
  /// poisoned edge id.
  void merge(const PathSystem& other);

  // ---- flat substrate (graph-bound systems only) -----------------------

  /// True iff this system was built bound to exactly `g`, i.e. the interned
  /// edge-id spans below are valid for `g` and hot loops may use them.
  bool flat_for(const Graph& g) const { return store_.graph() == &g; }

  /// The interning arena (empty for unbound systems).
  const PathStore& store() const { return store_; }

  /// Interned refs for a pair, in the same order as paths(s, t). Empty for
  /// a miss or an unbound system.
  std::span<const PathRef> refs(int s, int t) const;

  // ---- reinstall lifecycle (service runtime) ---------------------------

  /// Begins a reinstall cycle on a long-lived system: drops the pair index
  /// (paths_, refs_, counters) but KEEPS the interning arena — the old
  /// slabs become dead weight that the post-sampling compact_store() call
  /// reclaims in place. Container capacities (including the per-pair ref
  /// vectors' node allocations) are released with the index; the arena,
  /// which dominates the footprint, is not.
  void begin_reinstall();

  /// In-place GC of the interning arena: compacts the store down to the
  /// slabs currently referenced by the pair index and rewrites every ref
  /// through the remap. Layout is deterministic — live slabs are gathered
  /// by iterating the ORDERED pair map, not the unordered ref index — so a
  /// fixed seed still yields a bit-identical arena. No-op for unbound
  /// systems. Returns the number of ints reclaimed. A non-null `out_remap`
  /// receives the compaction's remap so OUTSIDE holders of refs into the
  /// store (the warm-start column pool) can rewrite — or retire — theirs
  /// through PathRemap::try_remap.
  std::size_t compact_store(PathRemap* out_remap = nullptr);

 private:
  static std::int64_t pair_key(int s, int t) {
    return (static_cast<std::int64_t>(s) << 32) |
           static_cast<std::uint32_t>(t);
  }

  int n_ = 0;
  std::map<std::pair<int, int>, std::vector<Path>> paths_;
  PathStore store_;
  std::unordered_map<std::int64_t, std::vector<PathRef>> refs_;
  std::size_t sparsity_ = 0;
  std::size_t total_paths_ = 0;
};

/// Zero-hashing gather: the flat candidate view of `commodities` over a
/// graph-bound path system (spans copied straight from the interning
/// arena). Requires ps.flat_for(the graph the commodities live on).
FlatCandidates flat_candidates(const PathSystem& ps,
                               const std::vector<Commodity>& commodities);

/// Scratch-reusing variant: clears `out` (capacity retained) and refills
/// it with the identical gather — the steady-state form route_fractional's
/// scratch path uses to rebuild candidates with zero allocation once warm.
void flat_candidates_into(const PathSystem& ps,
                          const std::vector<Commodity>& commodities,
                          FlatCandidates& out);

/// All n*(n-1) ordered vertex pairs, lexicographic.
std::vector<std::pair<int, int>> all_ordered_pairs(int n);

/// alpha-sample of an oblivious routing R over the given pairs: for each
/// pair, `alpha` independent draws from R(s, t) (with replacement).
///
/// Each pair draws from its own Rng stream, seed-split from `rng` in pair
/// order, so the sampled system is a pure function of (pairs, seed): pass
/// a `pool` and the pairs are sampled concurrently with bit-identical
/// output for every thread count (including none).
PathSystem sample_path_system(const ObliviousRouting& routing, int alpha,
                              const std::vector<std::pair<int, int>>& pairs,
                              Rng& rng, util::ThreadPool* pool = nullptr);

/// Appending variant for a long-lived system: samples into `ps` (which must
/// be bound to routing.graph(); typically just begin_reinstall()'ed) instead
/// of constructing a fresh one, so the interning arena's capacity survives
/// reinstall cycles. Identical draws and insertion order to
/// sample_path_system on an empty system.
void sample_path_system_into(const ObliviousRouting& routing, int alpha,
                             const std::vector<std::pair<int, int>>& pairs,
                             Rng& rng, util::ThreadPool* pool, PathSystem& ps);

/// alpha-sample over ALL ordered vertex pairs (quadratic; small graphs).
PathSystem sample_path_system_all_pairs(const ObliviousRouting& routing,
                                        int alpha, Rng& rng,
                                        util::ThreadPool* pool = nullptr);

/// (alpha + cut_G)-sample (Definition 5.2): alpha + cut_G(s, t) draws per
/// pair. Min cuts are computed with Dinic on the host graph. Same
/// seed-split determinism contract as sample_path_system.
PathSystem sample_path_system_with_cut(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool = nullptr);

/// Appending variant of sample_path_system_with_cut (see
/// sample_path_system_into for the contract).
void sample_path_system_with_cut_into(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool, PathSystem& ps);

/// The support pairs of a demand (convenience for the samplers above).
std::vector<std::pair<int, int>> support_pairs(const Demand& d);

/// An alpha-special demand (Definition 5.5) supported on `pairs`:
/// d(s, t) = alpha + cut_G(s, t) on every listed pair.
Demand special_demand(const Graph& g, int alpha,
                      const std::vector<std::pair<int, int>>& pairs);

}  // namespace sor
