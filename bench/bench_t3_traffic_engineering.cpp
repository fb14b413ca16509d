// Experiment T3 — Section 1.1 traffic-engineering consequence (SMORE).
//
// Paper claim: sampling a small constant number of tunnels (alpha = 4 in
// SMORE) from an oblivious routing and adapting rates yields near-optimal,
// robust traffic engineering; the competitiveness improvement is steep in
// alpha, so 4 is a practical sweet spot.
//
// We sweep alpha over WAN-like topologies x gravity demand suites (with a
// demand shift stress) and report semi-oblivious vs fixed-split-oblivious
// vs optimal congestion. Expected shape: semi/opt close to 1 by alpha = 4;
// oblivious/opt noticeably worse and not improving as fast.
#include "bench_common.h"

namespace {

using namespace sor;

double oblivious_split_congestion(const Graph& g, const PathSystem& ps,
                                  const Demand& d) {
  const std::vector<Commodity> commodities = d.commodities();
  std::vector<std::vector<double>> weights;
  for (const Commodity& c : commodities) {
    const std::size_t count = ps.refs(c.s, c.t).size();
    weights.emplace_back(count, c.amount / static_cast<double>(count));
  }
  return congestion_of_weights(g, commodities,
                               flat_candidates(ps, commodities), weights);
}

void run_topology(const std::string& name, Graph graph, Rng& rng) {
  SorEngine engine = SorEngine::build(std::move(graph),
                                      "racke:num_trees=12", rng.next());
  const Graph& g = engine.graph();
  std::printf("-- %s: %d nodes, %d links --\n", name.c_str(),
              g.num_vertices(), g.num_edges());

  // Demand suite: three gravity matrices at different scales plus a
  // hot-spot shifted one.
  std::vector<Demand> demands;
  for (double scale : {0.5, 1.0, 1.5}) {
    demands.push_back(
        gen::gravity_demand(g, 4.0 * g.num_vertices() * scale));
  }
  {
    Demand shifted = demands[1];
    const int a = 0;
    const int b = g.num_vertices() - 1;
    shifted.add(a, b, 2.0 * g.num_vertices());
    demands.push_back(shifted);
  }
  // Incast stress: a few hotspot sinks each receiving from many sources.
  demands.push_back(gen::hotspot_demand(
      g.num_vertices(), /*hotspots=*/2,
      /*fanin=*/std::max(2, g.num_vertices() / 4), /*amount=*/2.0, rng));
  std::vector<double> opt;
  for (const Demand& d : demands) {
    MinCongestionOptions options;
    options.rounds = 400;
    opt.push_back(std::max(bench::opt_lower_bound(g, d, false),
                           optimal_congestion(g, d, options).lower));
  }

  Table table({"alpha", "semi/opt mean", "semi/opt max", "obl/opt mean",
               "obl/opt max"});
  for (int alpha : {1, 2, 4, 8}) {
    const PathSystem& tunnels = engine.install_paths({.alpha = alpha});
    std::vector<double> semi_ratios;
    std::vector<double> obl_ratios;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      RouteSpec spec;
      spec.mwu.rounds = 400;
      spec.compute_optimum = false;
      spec.compute_lower_bound = false;  // opt[] is the denominator
      const auto semi = engine.route(demands[i], spec);
      semi_ratios.push_back(semi.congestion / opt[i]);
      obl_ratios.push_back(
          oblivious_split_congestion(g, tunnels, demands[i]) / opt[i]);
    }
    const Summary ss = summarize(semi_ratios);
    const Summary os = summarize(obl_ratios);
    table.row()
        .cell(alpha)
        .cell(ss.mean, 2)
        .cell(ss.max, 2)
        .cell(os.mean, 2)
        .cell(os.max, 2);
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner("T3: semi-oblivious traffic engineering (SMORE, alpha=4)",
                "adaptive rates over ~4 sampled tunnels track the optimum "
                "and stay robust under demand shifts");
  Rng rng(21);
  run_topology("Abilene WAN", gen::abilene(10.0), rng);
  run_topology("fat-tree(k=4)", gen::fat_tree(4), rng);
  run_topology("random-geometric(60)", gen::random_geometric(60, 0.22, rng),
               rng);
  return 0;
}
