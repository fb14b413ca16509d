// e2ebench — the end-to-end benchmark's binary (run.py builds and
// runs it; README.md documents workloads, metrics and the trajectory).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// One process runs one workload as a closed loop for S seconds (and at
// least the minimum operation count the workload needs), checks every
// output, and prints as its LAST stdout line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it, "exact {..}", lists the numbers that
// are exact for a given seed, for run.py's cross-run determinism ledger.
//
// Per-layer numbers are taken from OUTSIDE the library: the traced run
// calls each layer's public function itself (route_fractional_into,
// distance_lower_bound, optimal_congestion, round_randomized, ...) on the
// same inputs the serving call saw, and times each call with the same
// steady_clock the library's StageTimes use. A layer that the workload's
// serving path never runs reports 0.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/rounding.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "scale/demand_source.h"
#include "scenario/scenario.h"
#include "sim/packet_sim.h"
#include "util/rng.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- small statistics ---------------------------------------------------

/// Linear-interpolation quantile (numpy's default); q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Online CPUs this process may run on — what `nproc` prints.
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Relative slack for certificate comparisons (lower <= upper and friends),
/// which hold exactly in real arithmetic.
constexpr double kTol = 1e-9;
bool leq(double a, double b) { return a <= b + kTol * std::max(1.0, std::fabs(b)); }

// ---- the result ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics, exact-per-seed numbers, and the
/// failure tally. An operation fails when it throws or any of its output
/// checks fails; the first few failure messages go to stdout.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void exact(const std::string& name, double value) {
    exact_.push_back({name, value, ""});
  }

  /// Output checks of the current operation; settle() books it.
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    op_ok_ = false;
    if (++problems_ <= 10) std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  /// Books one operation of `weight` units (a batch books its demands).
  void settle(long weight = 1) {
    attempted_ += weight;
    if (!op_ok_) failed_ += weight;
    op_ok_ = true;
  }

  void print(bool traced) const {
    const double fail_frac =
        attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
    std::printf("%s metrics:\n", traced ? "per-layer" : "end-to-end");
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  %-28s %16.6f fraction  (%ld of %ld operations)\n",
                "fail_frac", fail_frac, failed_, attempted_);
    std::printf("exact {");
    for (std::size_t i = 0; i < exact_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i ? ", " : "", exact_[i].name.c_str(),
                  exact_[i].value);
    }
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false", attempted_,
                failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> exact_;
  long attempted_ = 0;
  long failed_ = 0;
  long problems_ = 0;
  bool op_ok_ = true;
};

/// The engine's own randomness (backend trees, path sampling, rounding)
/// is fixed. --seed drives only the inputs: demands, scenario traces and
/// link churn. So a seed changes the traffic, not the engine it meets.
constexpr std::uint64_t kEngineSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The closed loop's stopping rule: at least `min_ops` operations and at
/// least the run length, but never past the hard cap (the run must end
/// well inside a 180 s per-run limit even on a slow machine).
class LoopClock {
 public:
  LoopClock(double seconds, long min_ops) : seconds_(seconds), min_ops_(min_ops) {}
  bool more(long done) const {
    const double elapsed = ms_since(start_) / 1000.0;
    if (elapsed > kHardCapSeconds) return false;
    return done < min_ops_ || elapsed < seconds_;
  }

 private:
  static constexpr double kHardCapSeconds = 120.0;
  Clock::time_point start_ = Clock::now();
  double seconds_;
  long min_ops_;
};

/// Set-up samples. Runs take them at intervals across the whole serving
/// loop, so their median sees the same machine conditions as the loop.
struct SetupSamples {
  std::vector<double> build_ms, install_ms, setup_s;
  void add(double build, double install, double other_ms = 0.0) {
    build_ms.push_back(build);
    install_ms.push_back(install);
    setup_s.push_back((build + install + other_ms) / 1000.0);
  }
};

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end list).
void add_end_to_end(Result& r, double op_ms_p50, double op_ms_p90,
                    double demands_per_s, double setup_s,
                    double congestion_mean, double ratio_mean) {
  r.add("op_ms_p50", op_ms_p50, "ms");
  r.add("op_ms_p90", op_ms_p90, "ms");
  r.add("demands_per_s", demands_per_s, "1/s");
  r.add("setup_s", setup_s, "s");
  r.add("congestion_mean", congestion_mean, "ratio");
  r.add("ratio_mean", ratio_mean, "ratio");
  r.add("rss_peak_mb", peak_rss_mb(), "MB");
}

/// Per-layer timings and counts; every workload reports every name, and a
/// layer its serving path never runs stays 0.
struct Layers {
  double build_ms = 0, install_ms = 0, reinstalls = 0, arena_ints = 0;
  double route_ms = 0, restricted_rounds = 0, lower_bound_ms = 0;
  double optimum_ms = 0, optimum_rounds = 0, opt_gap_mean = 0;
  double rounding_ms = 0, sim_ms = 0, route_allocs = 0;
  double api_unattributed_ms = 0, api_attributed_frac = 0;
  double capacity_edit_ms = 0, warm_hit_frac = 0, warm_rounds_saved = 0;
  double scenario_unattributed_ms = 0;
  double groups_frac = 0, serial_work_ms = 0, scale_overhead_ms = 0;
  double pool_speedup = 0;
  // The traced run's own end-to-end numbers, to set beside the untraced
  // run's: their difference is the tracing overhead.
  double traced_op_ms_p50 = 0, traced_op_ms_p90 = 0, traced_demands_per_s = 0;

  void report(Result& r) const {
    const auto per_round_us = [](double ms, double rounds) {
      return rounds > 0 ? 1000.0 * ms / rounds : 0.0;
    };
    r.add("oblivious.build_ms", build_ms, "ms");
    r.add("core.install_ms", install_ms, "ms");
    r.add("core.reinstalls", reinstalls, "count");
    r.add("core.arena_ints", arena_ints, "count");
    r.add("core.route_ms", route_ms, "ms");
    r.add("lp.restricted_rounds", restricted_rounds, "count");
    r.add("lp.restricted_us_per_round",
          per_round_us(route_ms, restricted_rounds), "us");
    r.add("core.lower_bound_ms", lower_bound_ms, "ms");
    r.add("lp.optimum_ms", optimum_ms, "ms");
    r.add("lp.optimum_rounds", optimum_rounds, "count");
    r.add("lp.optimum_us_per_round", per_round_us(optimum_ms, optimum_rounds),
          "us");
    r.add("lp.opt_gap_mean", opt_gap_mean, "ratio");
    r.add("core.rounding_ms", rounding_ms, "ms");
    r.add("sim.sim_ms", sim_ms, "ms");
    r.add("runtime.route_allocs", route_allocs, "count");
    r.add("api.unattributed_ms", api_unattributed_ms, "ms");
    r.add("api.attributed_frac", api_attributed_frac, "fraction");
    r.add("graph.capacity_edit_ms", capacity_edit_ms, "ms");
    r.add("warm.hit_frac", warm_hit_frac, "fraction");
    r.add("warm.rounds_saved", warm_rounds_saved, "count");
    r.add("scenario.unattributed_ms", scenario_unattributed_ms, "ms");
    r.add("scale.groups_frac", groups_frac, "fraction");
    r.add("scale.serial_work_ms", serial_work_ms, "ms");
    r.add("scale.overhead_ms", scale_overhead_ms, "ms");
    r.add("util.pool_speedup", pool_speedup, "x");
    r.add("trace.op_ms_p50", traced_op_ms_p50, "ms");
    r.add("trace.op_ms_p90", traced_op_ms_p90, "ms");
    r.add("trace.demands_per_s", traced_demands_per_s, "1/s");
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- route-default --------------------------------------------------------
// torus 8x8 + racke:num_trees=10, alpha 4, all pairs installed once; one
// fresh permutation demand per route_into with the quickstart spec plus
// stage 5; threads 1.

constexpr long kRouteMinTimed = 100;   // p90 keeps ten samples above it
constexpr long kRouteExact = 100;      // quality means: routes [0, 100)
constexpr long kRouteTraced = 30;      // routes replayed layer by layer
constexpr long kRouteSetupEvery = 4;  // one extra set-up per 4 routes
constexpr int kRouteTwinRoutes = 2;    // determinism probe on a twin engine

SorEngine route_default_engine(double* build_ms, double* install_ms) {
  const auto start = Clock::now();
  SorEngine engine = SorEngine::build(gen::grid(8, 8, /*wrap=*/true),
                                      "racke:num_trees=10", kEngineSeed, 1);
  *build_ms = ms_since(start);
  const auto install_start = Clock::now();
  engine.install_paths(SamplingSpec{.alpha = 4});
  *install_ms = ms_since(install_start);
  return engine;
}

/// The bits of a route the determinism probe compares.
std::vector<double> route_fingerprint(const RouteReport& r) {
  return {r.congestion,
          r.competitive_ratio,
          r.optimum ? r.optimum->upper : -1.0,
          r.optimum ? r.optimum->lower : -1.0,
          r.integral ? r.integral->congestion : -1.0,
          r.simulation ? static_cast<double>(r.simulation->makespan) : -1.0,
          static_cast<double>(r.solution.rounds_used)};
}

void run_route_default(const Args& args, Result& result) {
  SetupSamples setups;
  const auto setup = [&setups] {
    double b = 0, i = 0;
    SorEngine e = route_default_engine(&b, &i);
    setups.add(b, i);
    return e;
  };
  SorEngine twin = setup();  // for the determinism probe
  SorEngine engine = setup();
  const Graph& g = engine.graph();
  const PathSystem& ps = engine.paths();

  const RouteSpec spec{.round_integral = true, .simulate_packets = true};
  const std::uint64_t demand_seed = args.seed ^ 0xde3a9d5eedull;
  Rng demand_rng(demand_seed);
  RouteReport report;
  std::vector<double> op_ms;
  std::vector<std::vector<double>> first_prints;
  double cong_sum = 0, ratio_sum = 0, gap_sum = 0, rounds_sum = 0;
  double allocs_sum = 0;
  long allocs_n = 0;

  // Traced run only: the direct layer calls on the same demand.
  Layers layers;
  RouteScratch route_scratch;
  DistanceBoundScratch bound_scratch;
  OptimumScratch optimum_scratch;
  SemiObliviousSolution direct;
  Rng direct_rng(args.seed ^ 0x0dd5eedull);
  std::vector<Path> packet_paths;
  std::vector<double> l_route, l_bound, l_opt, l_opt_rounds, l_round, l_sim,
      l_unattr, l_frac;

  const LoopClock loop(args.seconds, kRouteMinTimed + 1);
  long n = 0;
  for (; loop.more(n); ++n) {
    const Demand d = gen::random_permutation_demand(g.num_vertices(), demand_rng);
    try {
      const auto start = Clock::now();
      engine.route_into(d, spec, report);
      const double wall = ms_since(start);
      if (n > 0) op_ms.push_back(wall);  // route 0 warms the scratch arenas

      const bool has_opt = report.optimum.has_value();
      result.expect(has_opt, "route: optimum certificate missing");
      if (has_opt) {
        result.expect(leq(report.optimum->lower, report.optimum->upper),
                      "route: opt.lower > opt.upper");
      }
      result.expect(leq(report.opt_lower_bound, report.congestion),
                    "route: opt_lower_bound > congestion");
      // Any integral routing over the frozen paths is a feasible
      // fractional one, so it cannot beat the restricted LP's certified
      // lower bound on the fractional optimum over those paths.
      result.expect(report.integral.has_value() &&
                        leq(report.solution.lower_bound,
                            report.integral->congestion),
                    "route: integral congestion below the fractional optimum");
      if (n < kRouteExact) {
        cong_sum += report.congestion;
        ratio_sum += report.competitive_ratio;
        rounds_sum += report.solution.rounds_used;
        if (has_opt && report.optimum->lower > 0) {
          gap_sum += report.optimum->upper / report.optimum->lower - 1.0;
        }
      }
      if (n < kRouteTwinRoutes) first_prints.push_back(route_fingerprint(report));
      if (n >= 5) {
        allocs_sum += static_cast<double>(report.mem.allocs);
        ++allocs_n;
      }

      if (args.trace && n < kRouteTraced) {
        auto t = Clock::now();
        route_fractional_into(g, ps, d, spec.mwu, route_scratch, direct);
        const double route_ms = ms_since(t);
        t = Clock::now();
        distance_lower_bound(g, d, bound_scratch);
        const double bound_ms = ms_since(t);
        t = Clock::now();
        const OptimalCongestion opt =
            optimal_congestion(g, d, spec.mwu, optimum_scratch);
        const double opt_ms = ms_since(t);
        t = Clock::now();
        IntegralSolution integral =
            round_randomized(g, direct, direct_rng, spec.rounding_trials);
        local_search_improve(g, integral);
        const double round_ms = ms_since(t);
        packet_paths.clear();
        for (std::size_t j = 0; j < integral.choices.size(); ++j) {
          for (int c : integral.choices[j]) {
            packet_paths.push_back(integral.paths[j][static_cast<std::size_t>(c)]);
          }
        }
        t = Clock::now();
        simulate_packets(g, packet_paths, spec.policy, direct_rng);
        const double sim_ms = ms_since(t);

        result.expect(same_bits(direct.congestion, report.congestion) &&
                          direct.rounds_used == report.solution.rounds_used,
                      "route: direct route_fractional_into != route_into");
        result.expect(has_opt && same_bits(opt.upper, report.optimum->upper) &&
                          same_bits(opt.lower, report.optimum->lower),
                      "route: direct optimal_congestion != route_into");
        const double attributed =
            route_ms + bound_ms + opt_ms + round_ms + sim_ms;
        l_route.push_back(route_ms);
        l_bound.push_back(bound_ms);
        l_opt.push_back(opt_ms);
        l_opt_rounds.push_back(optimum_scratch.result.rounds_used);
        l_round.push_back(round_ms);
        l_sim.push_back(sim_ms);
        l_unattr.push_back(wall - attributed);
        l_frac.push_back(attributed / wall);
      }
    } catch (const std::exception& err) {
      result.expect(false, std::string("route threw: ") + err.what());
    }
    result.settle();
    if (n % kRouteSetupEvery == kRouteSetupEvery - 1) setup();
  }

  // Determinism probe: a twin engine built from the same seed routes the
  // same first demands to the same bits.
  {
    Rng twin_rng(demand_seed);
    RouteReport twin_report;
    for (std::size_t k = 0; k < first_prints.size(); ++k) {
      const Demand d = gen::random_permutation_demand(g.num_vertices(), twin_rng);
      twin.route_into(d, spec, twin_report);
      result.expect(route_fingerprint(twin_report) == first_prints[k],
                    "determinism: twin engine routed differently");
      result.settle();
    }
  }

  const double routes = static_cast<double>(std::min(n, kRouteExact));
  const double congestion_mean = cong_sum / routes;
  const double ratio_mean = ratio_sum / routes;
  result.exact("congestion_mean", congestion_mean);
  result.exact("ratio_mean", ratio_mean);
  result.exact("lp.restricted_rounds", rounds_sum / routes);
  const double p50 = quantile(op_ms, 0.5), p90 = quantile(op_ms, 0.9);
  const double routes_per_s = 1000.0 / mean(op_ms);
  std::printf("routes timed: %zu; set-ups: %zu\n", op_ms.size(),
              setups.setup_s.size());
  if (!args.trace) {
    add_end_to_end(result, p50, p90, routes_per_s, median(setups.setup_s),
                   congestion_mean, ratio_mean);
    return;
  }
  layers.build_ms = median(setups.build_ms);
  layers.install_ms = median(setups.install_ms);
  layers.arena_ints = static_cast<double>(engine.mem_stats().arena_ints);
  layers.route_ms = median(l_route);
  layers.restricted_rounds = rounds_sum / routes;
  layers.lower_bound_ms = median(l_bound);
  layers.optimum_ms = median(l_opt);
  layers.optimum_rounds = mean(l_opt_rounds);
  layers.opt_gap_mean = gap_sum / routes;
  layers.rounding_ms = median(l_round);
  layers.sim_ms = median(l_sim);
  layers.route_allocs = allocs_n > 0 ? allocs_sum / allocs_n : 0.0;
  layers.api_unattributed_ms = median(l_unattr);
  layers.api_attributed_frac = median(l_frac);
  layers.traced_op_ms_p50 = p50;
  layers.traced_op_ms_p90 = p90;
  layers.traced_demands_per_s = routes_per_s;
  result.exact("lp.optimum_rounds", layers.optimum_rounds);
  layers.report(result);
}

// ---- te-storm / te-warm ---------------------------------------------------
// run_scenario on the storm / diurnal presets moved to torus 16x16 +
// racke:num_trees=10, 200 epochs, no optimum oracle; threads 1.

constexpr int kScenarioMinReps = 3;
constexpr int kScenarioSetupsPerRep = 4;  // one serves, three are samples only

scenario::ScenarioSpec scenario_spec(const std::string& workload,
                                     std::uint64_t seed) {
  const bool warm = workload == "te-warm";
  scenario::ScenarioSpec spec =
      *scenario::scenario_preset(warm ? "diurnal" : "storm");
  spec.topology = "torus";
  spec.size = 16;
  spec.backend = "racke:num_trees=10";
  spec.seed = seed;
  spec.epochs = 200;
  spec.measure_ratio = false;
  if (warm) {
    spec.model = *scenario::TrafficModelSpec::parse(
        "diurnal_gravity:total=512,amplitude=0.6,period=6,max_pairs=512");
    spec.reinstall = *scenario::ReinstallPolicy::parse("every_k:8");
    spec.churn = {.rate = 0.5, .down_factor = 0.05, .mean_outage = 2};
    spec.warm_start = true;
  }
  // storm keeps its preset's permutation_storm, install_horizon 1 and
  // every_k:1.
  return spec;
}

/// Stage 1 for the spec's topology, from the fixed engine seed (the trace
/// still comes from spec.seed).
SorEngine scenario_engine(scenario::ScenarioSpec spec) {
  spec.seed = kEngineSeed;
  return scenario::build_scenario_engine(spec, 1);
}

/// The RouteSpec run_scenario hands every epoch (mirrors scenario.cpp).
RouteSpec scenario_route_spec(const scenario::ScenarioSpec& spec) {
  RouteSpec route;
  route.compute_optimum = spec.measure_ratio;
  route.compute_lower_bound = spec.measure_ratio;
  if (spec.mwu_rounds > 0) route.mwu.rounds = spec.mwu_rounds;
  route.warm_start = spec.warm_start;
  return route;
}

/// Replays a trace's link events epoch by epoch exactly as run_scenario
/// applies them: down/up against the pre-scenario capacities, each event's
/// edge resolved once against the pristine graph.
class LinkEventReplay {
 public:
  LinkEventReplay(const Graph& pristine, const scenario::ScenarioSpec& spec,
                  const scenario::ScenarioTrace& trace)
      : events_(trace.events), down_factor_(spec.churn.down_factor) {
    for (int e = 0; e < pristine.num_edges(); ++e) {
      original_.push_back(pristine.edge(e).capacity);
    }
    for (const scenario::LinkEvent& ev : events_) {
      edge_.emplace(std::make_pair(ev.u, ev.v), pristine.edge_between(ev.u, ev.v));
    }
  }

  /// Calls set(edge, capacity) for each event of `epoch`; `live` is the
  /// graph the sets land on (kScale scales its current capacity).
  template <class Set>
  void apply(int epoch, const Graph& live, Set&& set) {
    // run_scenario's floor for a degraded capacity (scenario.cpp).
    constexpr double kMinCapacity = 1e-9;
    for (; next_ < events_.size() && events_[next_].epoch == epoch; ++next_) {
      const scenario::LinkEvent& ev = events_[next_];
      const int e = edge_.at({ev.u, ev.v});
      if (e < 0) continue;
      const double orig = original_[static_cast<std::size_t>(e)];
      switch (ev.kind) {
        case scenario::LinkEvent::Kind::kDown:
          set(e, std::max(orig * down_factor_, kMinCapacity));
          break;
        case scenario::LinkEvent::Kind::kUp:
          set(e, orig);
          break;
        case scenario::LinkEvent::Kind::kScale:
          set(e, std::max(live.edge(e).capacity * ev.factor, kMinCapacity));
          break;
      }
    }
  }

 private:
  const std::vector<scenario::LinkEvent>& events_;
  double down_factor_;
  std::vector<double> original_;
  std::map<std::pair<int, int>, int> edge_;
  std::size_t next_ = 0;
};

struct ReplayTimes {
  double build_ms = 0, edit_ms = 0, edits = 0, install_ms = 0, installs = 0;
};

/// Replays a served scenario on a fresh engine through the public calls
/// run_scenario makes between routes — set_edge_capacity for each link
/// event, install_paths over the same window on the epochs the served run
/// reinstalled — timing each, and hands every epoch to serve(engine,
/// epoch, demand).
template <class Serve>
ReplayTimes replay_scenario(const scenario::ScenarioSpec& spec,
                            const scenario::ScenarioTrace& trace,
                            const scenario::ScenarioReport& served,
                            Serve&& serve) {
  ReplayTimes times;
  const auto build_start = Clock::now();
  SorEngine engine = scenario_engine(spec);
  times.build_ms = ms_since(build_start);
  LinkEventReplay events(engine.graph(), spec, trace);
  const int n_epochs = static_cast<int>(trace.demands.size());
  for (int e = 0; e < n_epochs; ++e) {
    events.apply(e, engine.graph(), [&](int edge, double cap) {
      const auto t = Clock::now();
      engine.set_edge_capacity(edge, cap);
      times.edit_ms += ms_since(t);
      ++times.edits;
    });
    if (served.epochs[static_cast<std::size_t>(e)].reinstalled) {
      const int to = spec.install_horizon <= 0
                         ? n_epochs
                         : std::min(n_epochs, e + spec.install_horizon);
      const std::span<const Demand> window(trace.demands.data() + e,
                                           static_cast<std::size_t>(to - e));
      const auto t = Clock::now();
      engine.install_paths(SamplingSpec::for_demands(window, spec.alpha));
      times.install_ms += ms_since(t);
      ++times.installs;
    }
    serve(engine, e, trace.demands[static_cast<std::size_t>(e)]);
  }
  return times;
}

void run_scenario_workload(const Args& args, Result& result) {
  const bool warm = args.workload == "te-warm";
  const scenario::ScenarioSpec spec = scenario_spec(args.workload, args.seed);
  SetupSamples setups;
  std::vector<double> wall_ms, epoch_ms;
  scenario::ScenarioReport first;  // repetition 0: the quality numbers
  scenario::ScenarioTrace trace;

  const LoopClock loop(args.seconds, kScenarioMinReps);
  for (long rep = 0; loop.more(rep); ++rep) {
    // Each repetition serves its own trace (repetition 0 the seed's own),
    // so a run's timing averages over several traces: how many MWU rounds
    // an epoch needs depends on the trace (te-warm's churn decides how
    // often a warm solve can exit early).
    scenario::ScenarioSpec rep_spec = spec;
    rep_spec.seed = args.seed + static_cast<std::uint64_t>(rep) * 0x9e3779b97f4a7c15ull;
    scenario::ScenarioTrace rep_trace;
    std::optional<SorEngine> engine;
    for (int k = 0; k < kScenarioSetupsPerRep; ++k) {
      const auto start = Clock::now();
      engine.emplace(scenario_engine(spec));
      const double build = ms_since(start);
      const auto trace_start = Clock::now();
      rep_trace = scenario::generate_trace(engine->graph(), rep_spec);
      setups.add(build, 0.0, ms_since(trace_start));
    }

    const auto run_start = Clock::now();
    scenario::ScenarioReport report;
    try {
      report = scenario::run_scenario(*engine, rep_spec, rep_trace);
    } catch (const std::exception& err) {
      result.expect(false, std::string("run_scenario threw: ") + err.what());
      result.settle(spec.epochs);
      continue;
    }
    wall_ms.push_back(ms_since(run_start));

    for (const scenario::EpochReport& e : report.epochs) {
      epoch_ms.push_back(e.install_ms + e.route_ms + e.optimum_ms);
      result.expect(!e.degraded, "epoch degraded");
      if (warm) {
        result.expect(e.epoch == 0 || e.warm_hit,
                      "te-warm: epoch after the first was not a warm hit");
      } else {
        result.expect(e.coverage == 1.0, "te-storm: epoch coverage below 1");
      }
      result.settle();
    }
    if (rep == 0) {
      first = std::move(report);
      trace = std::move(rep_trace);
    }
  }
  if (first.epochs.empty()) return;

  // Competitive ratio against the distance-duality bound, the denominator
  // route() itself uses when the oracle is off (the serving loop skips it,
  // so it is computed here, outside the timed region, on each epoch's
  // capacities).
  double ratio_sum = 0, cong_sum = 0;
  std::vector<double> bound_ms;
  {
    Graph g = scenario::make_scenario_graph(spec);
    LinkEventReplay events(g, spec, trace);
    DistanceBoundScratch scratch;
    for (std::size_t e = 0; e < first.epochs.size(); ++e) {
      events.apply(static_cast<int>(e), g,
                   [&](int edge, double cap) { g.set_capacity(edge, cap); });
      const Demand& d = trace.demands[e];
      const auto t = Clock::now();
      double lb = distance_lower_bound(g, d, scratch);
      bound_ms.push_back(ms_since(t));
      lb = std::max(lb, d.size() / g.total_capacity());
      cong_sum += first.epochs[e].congestion;
      ratio_sum += lb > 0 ? first.epochs[e].congestion / lb : 0.0;
    }
  }
  const double epochs = static_cast<double>(first.epochs.size());
  const double congestion_mean = cong_sum / epochs;
  const double ratio_mean = ratio_sum / epochs;
  result.exact("congestion_mean", congestion_mean);
  result.exact("ratio_mean", ratio_mean);
  double rounds_saved = 0, hits = 0, allocs = 0, arena = 0;
  for (const scenario::EpochReport& e : first.epochs) {
    rounds_saved += e.rounds_saved;
    hits += e.warm_hit ? 1 : 0;
    if (e.epoch > 0) allocs += static_cast<double>(e.route_allocs);
    arena = std::max(arena, static_cast<double>(e.arena_ints));
  }
  result.exact("warm.rounds_saved", rounds_saved);

  // run_scenario serves all epochs in one call, so the outside clock sees
  // an epoch's mean wall time per repetition; the tail comes from the
  // epochs' own EpochReport times (the per-epoch distribution is bimodal
  // on te-warm — early-exiting warm solves vs full ones — so its median
  // jumps between the modes from seed to seed).
  std::vector<double> per_rep_epoch_ms;
  for (double w : wall_ms) per_rep_epoch_ms.push_back(w / epochs);
  const double p50 = median(per_rep_epoch_ms);
  const double p90 = quantile(epoch_ms, 0.9);
  std::printf("scenario repetitions: %zu (%zu epochs); set-ups: %zu\n",
              wall_ms.size(), epoch_ms.size(), setups.setup_s.size());
  if (!args.trace) {
    add_end_to_end(result, p50, p90, 1000.0 / p50, median(setups.setup_s),
                   congestion_mean, ratio_mean);
    return;
  }

  // Traced, pass 1: replay the same trace through the engine's public
  // calls — set_edge_capacity, install_paths on the epochs the served run
  // reinstalled, route_into — to attribute run_scenario's wall time.
  Layers layers;
  const RouteSpec route_spec = scenario_route_spec(spec);
  RouteReport report;
  double replay_route = 0;
  const ReplayTimes replay = replay_scenario(
      spec, trace, first, [&](SorEngine& engine, int e, const Demand& d) {
        const auto t = Clock::now();
        engine.route_into(d, route_spec, report);
        replay_route += ms_since(t);
        result.expect(
            same_bits(report.congestion,
                      first.epochs[static_cast<std::size_t>(e)].congestion),
            "replay: route_into differs from the served epoch");
        result.settle();
      });
  // Pass 2: the restricted solve alone — a direct (cold)
  // route_fractional_into on the same paths and capacities. A pass of its
  // own, so neither solve's scratch evicts the other's between timings.
  RouteScratch scratch;
  SemiObliviousSolution direct;
  std::vector<double> direct_ms;
  double direct_rounds = 0;
  replay_scenario(
      spec, trace, first, [&](SorEngine& engine, int, const Demand& d) {
        const auto t = Clock::now();
        route_fractional_into(engine.graph(), engine.paths(), d,
                              route_spec.mwu, scratch, direct);
        direct_ms.push_back(ms_since(t));
        direct_rounds += direct.rounds_used;
      });
  const double edit_ms = replay.edit_ms, edits = replay.edits;
  const double install_ms = replay.install_ms, installs = replay.installs;
  layers.build_ms = median(setups.build_ms);
  layers.install_ms = installs > 0 ? install_ms / installs : 0.0;
  layers.reinstalls = first.reinstalls;
  layers.arena_ints = arena;
  layers.route_ms = median(direct_ms);
  layers.restricted_rounds = direct_rounds / epochs;
  layers.route_allocs = allocs / std::max(1.0, epochs - 1);
  layers.capacity_edit_ms = edits > 0 ? edit_ms / edits : 0.0;
  layers.warm_hit_frac = hits / epochs;
  layers.warm_rounds_saved = rounds_saved;
  // The replay serves repetition 0's trace, so it is set against that
  // repetition's wall time.
  layers.scenario_unattributed_ms =
      (wall_ms.front() - (edit_ms + install_ms + replay_route)) / epochs;
  layers.traced_op_ms_p50 = p50;
  layers.traced_op_ms_p90 = p90;
  layers.traced_demands_per_s = 1000.0 / p50;
  std::printf("distance lower bound (ratio denominator, off the serving "
              "path): %.4f ms per epoch\n", median(bound_ms));
  result.exact("lp.restricted_rounds", layers.restricted_rounds);
  layers.report(result);
}

// ---- batch-stream -----------------------------------------------------------
// hypercube d=8 + valiant, alpha 4, all pairs installed; batches of 256
// demands drawn from a pool of 128 distinct 16-pair unit demands, pulled
// through a DemandSource with aggregation on and the oracle off.

constexpr int kPoolSize = 128;
constexpr int kPairsPerDemand = 16;
constexpr int kBatchSize = 256;
constexpr long kBatchMinTimed = 100;
constexpr long kBatchExact = 10;     // quality means: batches [0, 10)
constexpr long kBatchChecked = 8;    // batches with sampled re-solves
constexpr int kBatchSamples = 2;     // re-solved demands per checked batch
constexpr long kBatchTraced = 4;     // batches replayed layer by layer
constexpr long kBatchSetupEvery = 12;  // one extra set-up per 12 batches

/// Pulls one batch's demands from the shared pool, in pick order.
class PoolSource final : public scale::DemandSource {
 public:
  PoolSource(const std::vector<std::vector<DemandEntry>>& pool,
             std::span<const int> picks)
      : pool_(pool), picks_(picks) {}
  bool next(std::span<const DemandEntry>& out) override {
    if (next_ >= picks_.size()) return false;
    out = pool_[static_cast<std::size_t>(picks_[next_++])];
    return true;
  }
  std::size_t size_hint() const override { return picks_.size(); }

 private:
  const std::vector<std::vector<DemandEntry>>& pool_;
  std::span<const int> picks_;
  std::size_t next_ = 0;
};

void run_batch_stream(const Args& args, int threads, Result& result) {
  SetupSamples setups;
  const auto setup = [&setups, threads] {
    const auto start = Clock::now();
    SorEngine e = SorEngine::build(gen::hypercube(8), "valiant", kEngineSeed,
                                   threads);
    const double build = ms_since(start);
    const auto install_start = Clock::now();
    e.install_paths(SamplingSpec{.alpha = 4});
    setups.add(build, ms_since(install_start));
    return e;
  };
  SorEngine twin = setup();  // for the determinism probe
  SorEngine engine = setup();
  const Graph& g = engine.graph();

  Rng pool_rng(args.seed ^ 0xba7c4e5eedull);
  std::vector<Demand> pool;
  std::vector<std::vector<DemandEntry>> pool_entries;
  std::map<std::vector<std::pair<int, int>>, int> seen;  // content -> index
  while (static_cast<int>(pool.size()) < kPoolSize) {
    Demand d = gen::random_pairs_demand(g.num_vertices(), kPairsPerDemand, pool_rng);
    std::vector<std::pair<int, int>> key;
    for (const auto& [pair, value] : d.entries()) key.push_back(pair);
    if (!seen.emplace(key, static_cast<int>(pool.size())).second) continue;
    pool_entries.emplace_back();
    d.entries_into(pool_entries.back());
    pool.push_back(std::move(d));
  }

  const RouteSpec spec{.compute_optimum = false};
  const BatchSpec batch_spec{.aggregate_duplicates = true};
  Rng pick_rng(args.seed ^ 0x9c4511eedull);
  Rng sample_rng(args.seed ^ 0x5a3b1eedull);
  std::vector<std::vector<int>> traced_picks;
  std::vector<int> picks(kBatchSize);
  std::vector<double> op_ms, first_print;
  double cong_sum = 0, ratio_sum = 0, quality_n = 0, groups = 0, demands = 0;

  const LoopClock loop(args.seconds, kBatchMinTimed + 1);
  long n = 0;
  for (; loop.more(n); ++n) {
    std::vector<char> distinct(kPoolSize, 0);
    int distinct_n = 0;
    for (int& p : picks) {
      p = static_cast<int>(pick_rng.uniform_u64(kPoolSize));
      if (!distinct[static_cast<std::size_t>(p)]) {
        distinct[static_cast<std::size_t>(p)] = 1;
        ++distinct_n;
      }
    }
    if (n < kBatchTraced) traced_picks.push_back(picks);
    try {
      PoolSource source(pool_entries, picks);
      const auto start = Clock::now();
      const BatchReport br = engine.route_batch(source, spec, batch_spec);
      const double wall = ms_since(start);
      if (n > 0) op_ms.push_back(wall);  // batch 0 warms the slots

      result.expect(br.num_failed == 0 && br.errors.empty(),
                    "batch: demands failed");
      result.expect(br.num_demands == kBatchSize &&
                        br.reports.size() == static_cast<std::size_t>(kBatchSize),
                    "batch: demand/report count");
      result.expect(br.num_groups == static_cast<std::size_t>(distinct_n),
                    "batch: group count differs from the distinct demands");
      if (n < kBatchChecked) {
        // A seeded sample of the aggregated reports must equal a direct
        // route_fractional of the group's representative, bit for bit.
        for (int s = 0; s < kBatchSamples; ++s) {
          const auto i = static_cast<std::size_t>(sample_rng.uniform_u64(kBatchSize));
          const SemiObliviousSolution want = route_fractional(
              g, engine.paths(), pool[static_cast<std::size_t>(picks[i])], spec.mwu);
          const SemiObliviousSolution& got = br.reports[i].solution;
          bool same = same_bits(want.congestion, got.congestion) &&
                      want.rounds_used == got.rounds_used &&
                      same_bits(want.edge_load, got.edge_load) &&
                      want.weights.size() == got.weights.size();
          for (std::size_t j = 0; same && j < want.weights.size(); ++j) {
            same = same_bits(want.weights[j], got.weights[j]);
          }
          result.expect(same, "batch: aggregated report != direct route_fractional");
        }
      }
      if (n < kBatchExact) {
        for (const RouteReport& r : br.reports) {
          cong_sum += r.congestion;
          ratio_sum += r.competitive_ratio;
          ++quality_n;
        }
        groups += static_cast<double>(br.num_groups);
        demands += static_cast<double>(br.num_demands);
      }
      if (n == 0) {
        first_print = br.global_edge_load;
        for (const RouteReport& r : br.reports) first_print.push_back(r.congestion);
      }
    } catch (const std::exception& err) {
      result.expect(false, std::string("route_batch threw: ") + err.what());
    }
    result.settle(kBatchSize);
    if (n % kBatchSetupEvery == kBatchSetupEvery - 1) setup();
  }

  // Determinism probe: the twin engine routes the first batch to the same
  // bits (route_batch's fractional solves draw no randomness, so the
  // serving engine's advanced stream does not matter).
  {
    PoolSource source(pool_entries, traced_picks.front());
    const BatchReport br = twin.route_batch(source, spec, batch_spec);
    std::vector<double> print = br.global_edge_load;
    for (const RouteReport& r : br.reports) print.push_back(r.congestion);
    result.expect(same_bits(print, first_print),
                  "determinism: twin engine routed the first batch differently");
    result.settle();
  }

  const double congestion_mean = cong_sum / quality_n;
  const double ratio_mean = ratio_sum / quality_n;
  const double groups_frac = groups / demands;
  result.exact("congestion_mean", congestion_mean);
  result.exact("ratio_mean", ratio_mean);
  result.exact("scale.groups_frac", groups_frac);
  const double p50 = quantile(op_ms, 0.5), p90 = quantile(op_ms, 0.9);
  const double demands_per_s = 1000.0 * kBatchSize / mean(op_ms);
  std::printf("batches timed: %zu; set-ups: %zu\n", op_ms.size(),
              setups.setup_s.size());
  if (!args.trace) {
    add_end_to_end(result, p50, p90, demands_per_s, median(setups.setup_s),
                   congestion_mean, ratio_mean);
    return;
  }

  // Traced: per batch, the distinct groups' layer calls one at a time
  // (the serial work), then route_batch at 1 thread and at `threads`.
  Layers layers;
  RouteScratch route_scratch;
  DistanceBoundScratch bound_scratch;
  SemiObliviousSolution direct;
  std::vector<double> l_route, l_bound, serial, overhead, wall_1, wall_n;
  double rounds = 0;
  for (const std::vector<int>& batch : traced_picks) {
    std::vector<char> done(kPoolSize, 0);
    double work = 0;
    for (int p : batch) {
      if (done[static_cast<std::size_t>(p)]) continue;
      done[static_cast<std::size_t>(p)] = 1;
      const Demand& d = pool[static_cast<std::size_t>(p)];
      auto t = Clock::now();
      route_fractional_into(g, engine.paths(), d, spec.mwu, route_scratch, direct);
      l_route.push_back(ms_since(t));
      t = Clock::now();
      distance_lower_bound(g, d, bound_scratch);
      l_bound.push_back(ms_since(t));
      work += l_route.back() + l_bound.back();
      rounds += direct.rounds_used;
    }
    serial.push_back(work);
    BatchReport by_width[2];
    for (int k = 0; k < 2; ++k) {
      engine.set_threads(k == 0 ? 1 : threads);
      PoolSource source(pool_entries, batch);
      const auto t = Clock::now();
      by_width[k] = engine.route_batch(source, spec, batch_spec);
      (k == 0 ? wall_1 : wall_n).push_back(ms_since(t));
    }
    overhead.push_back(wall_1.back() - work);
    result.expect(same_bits(by_width[0].global_edge_load,
                            by_width[1].global_edge_load),
                  "batch: 1-thread and N-thread loads differ");
    result.settle();
  }
  layers.build_ms = median(setups.build_ms);
  layers.install_ms = median(setups.install_ms);
  layers.arena_ints = static_cast<double>(engine.mem_stats().arena_ints);
  layers.route_ms = median(l_route);
  layers.restricted_rounds = rounds / static_cast<double>(l_route.size());
  layers.lower_bound_ms = median(l_bound);
  layers.groups_frac = groups_frac;
  layers.serial_work_ms = median(serial);
  layers.scale_overhead_ms = median(overhead);
  layers.pool_speedup = mean(wall_1) / mean(wall_n);
  layers.traced_op_ms_p50 = p50;
  layers.traced_op_ms_p90 = p90;
  layers.traced_demands_per_s = demands_per_s;
  result.exact("lp.restricted_rounds", layers.restricted_rounds);
  layers.report(result);
}

// ---- main -----------------------------------------------------------------

struct Workload {
  const char* name;
  int threads;  // resolved against nproc in main
};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload route-default|te-storm|te-warm|"
               "batch-stream --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

  const int nproc = available_cpus();
  const Workload workloads[] = {{"route-default", 1},
                                {"te-storm", 1},
                                {"te-warm", 1},
                                {"batch-stream", std::min(4, nproc)}};
  std::printf("nproc %d; threads per workload:", nproc);
  const Workload* chosen = nullptr;
  for (const Workload& w : workloads) {
    std::printf(" %s=%d", w.name, w.threads);
    if (args.workload == w.name) chosen = &w;
  }
  std::printf("\n");
  if (chosen == nullptr) return usage();
  if (chosen->threads > nproc) {
    std::fprintf(stderr, "e2ebench: %s needs %d threads but nproc is %d\n",
                 chosen->name, chosen->threads, nproc);
    return 3;
  }
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", chosen->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Result result;
  try {
    if (args.workload == "route-default") {
      run_route_default(args, result);
    } else if (args.workload == "batch-stream") {
      run_batch_stream(args, chosen->threads, result);
    } else {
      run_scenario_workload(args, result);
    }
  } catch (const std::exception& err) {
    // Set-up failed: no operation could run, so there is no result.
    std::fprintf(stderr, "e2ebench: %s\n", err.what());
    return 1;
  }
  result.print(args.trace);
  return 0;
}
