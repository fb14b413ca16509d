// Experiment M4 — flat-memory hot-path throughput (PathStore substrate).
//
// Measures the staged pipeline's single-thread throughput on the m1
// substrates: build (backend construction), install (path sampling +
// interning), route (MWU rate selection over the frozen PathSystem), and
// route_batch. For the route stage — the per-demand serving loop and the
// target of the PathStore change — the harness ALSO runs a verbatim copy
// of the pre-change representation (vertex-sequence candidates, hash-based
// edge resolution per call, nested vector-of-vector edge ids) on the same
// inputs, reports new-vs-legacy speedup, and checks the outputs are
// BIT-IDENTICAL. A row with identical=no is a bug, not a measurement.
//
//   bench_m4_hot_path [--quick] [--json PATH]
#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/shortest_path.h"
#include "legacy_restricted_mwu.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Pre-change reference implementation (the PR 2 era representation), kept
// verbatim as the "before" of the before/after measurement. The solver
// itself lives in legacy_restricted_mwu.h (shared with the tier-1
// bit-identity test); only the vertex-sequence candidate gather is here.
// ---------------------------------------------------------------------------
namespace legacy {

/// Pre-change route_fractional: gather vertex-sequence candidates, solve
/// over the nested representation.
CongestionResult route_fractional(const Graph& g, const PathSystem& ps,
                                  const Demand& d,
                                  const MinCongestionOptions& options) {
  const auto commodities = d.commodities();
  std::vector<std::vector<Path>> paths;
  paths.reserve(commodities.size());
  for (const Commodity& c : commodities) {
    paths.push_back(ps.paths(c.s, c.t));
  }
  // Qualified: ADL would otherwise also find (and prefer-tie with) the
  // library's overload on the same argument types.
  return legacy_restricted::min_congestion_over_paths(g, commodities, paths,
                                                    options);
}

}  // namespace legacy

// ---------------------------------------------------------------------------

/// A sparse "tenant" demand: `pairs` random unit-demand pairs on [0, n).
/// This is the serving-loop shape the route stage is measured on — each
/// revealed demand touches a sliver of a large shared substrate, which is
/// exactly where the flat representation's demand-footprint-proportional
/// round cost beats the pre-change full-graph passes.
Demand sparse_demand(int n, int pairs, Rng& rng) {
  Demand d;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    d.set(s, t, 1.0);
  }
  return d;
}

void bench_instance(Table& table, const std::string& name, Graph graph,
                    const std::string& backend_spec, std::uint64_t seed,
                    int alpha, int batch_size, int reps) {
  // ---- build --------------------------------------------------------------
  const auto build_start = Clock::now();
  sor::bench::Instance inst{
      name, SorEngine::build(std::move(graph), backend_spec, seed)};
  const double build_ms = ms_since(build_start);
  sor::bench::stage_row(table, "build", name, 1, build_ms, 1, 0.0, "");

  SorEngine& engine = inst.engine;
  const int n = engine.graph().num_vertices();
  Rng demand_rng(seed ^ 0x9e37u);
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(batch_size));
  for (int b = 0; b < batch_size; ++b) {
    demands.push_back(sparse_demand(n, /*pairs=*/16, demand_rng));
  }
  const SamplingSpec sampling = SamplingSpec::for_demands(demands, alpha);

  // ---- install (sampling + interning) -------------------------------------
  double install_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    engine.install_paths(sampling);
    install_ms += ms_since(start);
  }
  sor::bench::stage_row(table, "install", name, 1, install_ms, reps, 0.0, "");

  // ---- route: new flat representation vs pre-change representation --------
  const PathSystem& ps = engine.paths();
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;

  std::vector<SemiObliviousSolution> new_solutions;
  double route_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const Demand& d : demands) {
      const auto start = Clock::now();
      RouteReport report = engine.route(d, spec);
      route_ms += ms_since(start);
      if (r == 0) new_solutions.push_back(std::move(report.solution));
    }
  }

  // Full-output bit-identity: congestion, dual bound, per-edge loads AND
  // per-path weights must all equal the pre-change representation's —
  // congestion alone is a max and could mask a divergence underneath.
  double legacy_ms = 0.0;
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const auto start = Clock::now();
      const CongestionResult result = legacy::route_fractional(
          engine.graph(), ps, demands[i], spec.mwu);
      legacy_ms += ms_since(start);
      if (r == 0) {
        const SemiObliviousSolution& fast = new_solutions[i];
        identical = identical && result.congestion == fast.congestion &&
                    result.lower_bound == fast.lower_bound &&
                    result.edge_load == fast.edge_load &&
                    result.path_weights == fast.weights;
      }
    }
  }

  const int route_ops = reps * batch_size;
  sor::bench::stage_row(table, "route", name, 1, route_ms, route_ops,
                        route_ms > 0.0 ? legacy_ms / route_ms : 0.0,
                        identical ? "yes" : "no");
  sor::bench::stage_row(table, "route_legacy", name, 1, legacy_ms, route_ops,
                        1.0, identical ? "yes" : "no");

  // ---- sim edge resolution: FlatAdjacency arena-append vs hash-per-hop ----
  // The packet simulator's setup resolves every packet's hops into one
  // flat arena; since PR 5 that resolution appends over a FlatAdjacency
  // snapshot (contiguous early-exit arc scan, zero per-path temporaries)
  // instead of the pre-change per-path path_edge_ids temp + hash lookup
  // per hop. Resolve every installed candidate path both ways: arenas
  // must be bit-identical (same canonical parallel-edge choice), the
  // scan-and-append is the speedup.
  {
    std::vector<Path> all_paths;
    for (const auto& [s, t] : ps.pairs()) {
      for (PathRef ref : ps.refs(s, t)) {
        all_paths.push_back(ps.store().to_path(ref));
      }
    }
    const FlatAdjacency adj(engine.graph());
    double flat_ms = 0.0;
    double hash_ms = 0.0;
    bool ids_identical = true;
    std::vector<int> flat_arena;
    std::vector<int> hash_arena;
    // Resolution is ns-scale per path; sweep the path set many times so
    // the gated ratio rests on multi-ms totals.
    const int resolve_reps = reps * 16;
    for (int r = 0; r < resolve_reps; ++r) {
      flat_arena.clear();
      const auto flat_start = Clock::now();
      for (const Path& p : all_paths) {
        append_path_edge_ids(adj, engine.graph(), p, flat_arena);
      }
      flat_ms += ms_since(flat_start);
      hash_arena.clear();
      const auto hash_start = Clock::now();
      for (const Path& p : all_paths) {
        // Verbatim pre-change simulator setup: temp vector per path, one
        // edge_between hash per hop, then the arena copy.
        const auto ids = path_edge_ids(engine.graph(), p);
        hash_arena.insert(hash_arena.end(), ids.begin(), ids.end());
      }
      hash_ms += ms_since(hash_start);
      if (r == 0) {
        ids_identical = !flat_arena.empty() && flat_arena == hash_arena;
      }
    }
    const int resolve_ops = resolve_reps * static_cast<int>(all_paths.size());
    sor::bench::stage_row(table, "sim_resolve", name, 1, flat_ms, resolve_ops,
                          flat_ms > 0.0 ? hash_ms / flat_ms : 0.0,
                          ids_identical ? "yes" : "no");
  }

  // ---- route_batch (single-thread serving loop through the facade) --------
  double batch_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const BatchReport batch = engine.route_batch(demands, spec);
    batch_ms += ms_since(start);
    assert(batch.reports.size() == demands.size());
    (void)batch;
  }
  sor::bench::stage_row(table, "route_batch",
                        name + ",batch=" + std::to_string(batch_size), 1,
                        batch_ms, reps * batch_size, 0.0, "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M4 — flat-memory hot path",
         "PathStore substrate: interned vertex+edge-id spans through the "
         "whole pipeline. The route stage is measured against a verbatim "
         "copy of the pre-change representation (hash-per-hop resolution, "
         "nested vectors); outputs must be bit-identical, speedup is the "
         "point.");

  Table table = stage_table();

  const int reps = args.quick ? 2 : 3;
  {
    const int dim = args.quick ? 8 : 10;
    bench_instance(table, "hypercube(d=" + std::to_string(dim) + ")+valiant",
                   sor::gen::hypercube(dim), "valiant", 2, /*alpha=*/8,
                   /*batch=*/args.quick ? 4 : 8, reps);
  }
  {
    const int side = args.quick ? 24 : 32;
    const int trees = args.quick ? 4 : 6;
    bench_instance(
        table,
        "torus(" + std::to_string(side) + "x" + std::to_string(side) +
            ")+racke",
        sor::gen::grid(side, side, /*wrap=*/true),
        "racke:num_trees=" + std::to_string(trees), 3, /*alpha=*/8,
        /*batch=*/args.quick ? 4 : 8, reps);
  }

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m4_hot_path", table);
  sink.flush();
  return 0;
}
