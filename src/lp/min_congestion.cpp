#include "lp/min_congestion.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>

#include "fault/sor_error.h"
#include "graph/shortest_path.h"
#include "obs/convergence.h"

namespace sor {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kCompleted: return "completed";
    case SolveStatus::kTargetReached: return "target_reached";
    case SolveStatus::kBudgetRounds: return "budget_rounds";
    case SolveStatus::kBudgetDeadline: return "budget_deadline";
  }
  return "unknown";
}

std::optional<SolveBudget> SolveBudget::parse(const std::string& text) {
  SolveBudget budget;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find_first_of(",;", pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) return std::nullopt;
    if (key == "max_rounds" || key == "rounds") {
      int parsed = 0;
      const auto res = std::from_chars(value.data(),
                                       value.data() + value.size(), parsed);
      if (res.ec != std::errc{} || res.ptr != value.data() + value.size() ||
          parsed < 0) {
        return std::nullopt;
      }
      budget.max_rounds = parsed;
    } else if (key == "deadline_ms" || key == "target_gap" || key == "gap") {
      char* parse_end = nullptr;
      const double parsed = std::strtod(value.c_str(), &parse_end);
      if (parse_end != value.c_str() + value.size() ||
          !std::isfinite(parsed) || parsed < 0.0) {
        return std::nullopt;
      }
      if (key == "deadline_ms") {
        budget.deadline_ms = parsed;
      } else {
        // A gap bar below 1 can never be met (upper >= lower); reject.
        if (parsed != 0.0 && parsed < 1.0) return std::nullopt;
        budget.target_gap = parsed;
      }
    } else {
      return std::nullopt;
    }
  }
  return budget;
}

std::string SolveBudget::to_string() const {
  // Shortest round-trip form, so parse(to_string()) == *this exactly (the
  // scenario file format relies on it).
  const auto fmt = [](double value) {
    char buffer[32];
    const auto res = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, res.ptr);
  };
  std::ostringstream out;
  out << "max_rounds=" << max_rounds << ",deadline_ms=" << fmt(deadline_ms)
      << ",target_gap=" << fmt(target_gap);
  return out.str();
}

namespace {

/// Certified suboptimality of (upper, dual lower) — see
/// CongestionResult::optimality_gap.
double certified_gap(double congestion, double lower_bound) {
  if (congestion <= 0.0) return 0.0;
  if (lower_bound <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, congestion / lower_bound - 1.0);
}

/// `what` must hold one entry per commodity; a mismatch would index past
/// the shorter list.
void require_per_commodity(std::size_t size, std::size_t commodities,
                           const char* what, const char* site) {
  if (size != commodities) {
    throw SorError(ErrorCode::kMalformedDemand, site,
                   std::string(site) + ": " + what + " has " +
                       std::to_string(size) + " entries for " +
                       std::to_string(commodities) + " commodities");
  }
}

/// A positive-amount commodity must have a candidate to route on.
void require_candidates(const std::vector<Commodity>& commodities,
                        const FlatCandidates& candidates, const char* site) {
  require_per_commodity(candidates.num_commodities(), commodities.size(),
                        "the candidate list", site);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    if (commodities[j].amount > 0.0 && candidates.num_paths(j) == 0) {
      throw SorError(ErrorCode::kUninstalledPair, site,
                     std::string(site) + ": commodity (" +
                         std::to_string(commodities[j].s) + ", " +
                         std::to_string(commodities[j].t) +
                         ") has a positive amount but no candidate paths");
    }
  }
}

/// The simplex result the exact oracles report from must be an optimum.
void require_optimal(const LpSolution& solution, const char* site) {
  if (solution.status != LpStatus::kOptimal) {
    throw SorError(ErrorCode::kLpNotOptimal, site,
                   std::string(site) + ": the simplex returned " +
                       (solution.status == LpStatus::kInfeasible
                            ? "infeasible"
                            : "unbounded") +
                       " instead of an optimum");
  }
}

}  // namespace

double congestion_of_weights(const Graph& g,
                             const std::vector<Commodity>& commodities,
                             const FlatCandidates& candidates,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load) {
  constexpr const char* kSite = "congestion_of_weights";
  require_per_commodity(candidates.num_commodities(), commodities.size(),
                        "the candidate list", kSite);
  require_per_commodity(weights.size(), commodities.size(), "the weight list",
                        kSite);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    if (weights[j].size() != candidates.num_paths(j)) {
      throw SorError(ErrorCode::kMalformedDemand, kSite,
                     std::string(kSite) + ": commodity " + std::to_string(j) +
                         " has " + std::to_string(weights[j].size()) +
                         " weights for " +
                         std::to_string(candidates.num_paths(j)) +
                         " candidates");
    }
  }
  // Accumulate straight into the caller's vector when given one (assign
  // keeps its capacity; same accumulation order, identical values) so the
  // warm serving path never materializes a local load vector.
  std::vector<double> local;
  std::vector<double>& load = edge_load ? *edge_load : local;
  load.assign(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    for (std::size_t i = 0; i < weights[j].size(); ++i) {
      if (weights[j][i] <= 0.0) continue;
      for (int e : candidates.edges(j, i)) {
        load[static_cast<std::size_t>(e)] += weights[j][i];
      }
    }
  }
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  return congestion;
}

namespace {

// ---------------------------------------------------------------------------
// The MWU driver.
//
// Both LP quantities of the pipeline — Stage 4's restricted cong_R(P, d)
// and the offline optimum opt_G(d) — are the same Freund–Schapire game
// (Garg–Könemann packing): the adversary keeps exponential edge weights,
// the router best-responds with one path per commodity, and the averaged
// routing plus the best dual certificate are returned. The two solves
// differ ONLY in the router's best response, so one driver runs the game
// and is instantiated at compile time (no per-round indirect call) on an
// oracle with this shape:
//
//   prepare()            per-solve set-up, after the empty-instance check
//   refresh_lengths(len) write sc.lengths[e] = len(e) for every edge the
//                        best response may read
//   respond()            fill sc.chosen_edges / sc.chosen_len per commodity
//   snapshot(), rewind() oracle state a budget stop rewinds with the loads
//   finish(out)          oracle-specific result fields
//
// The driver carries every optimization that is provably BIT-IDENTICAL to
// the reference loops kept verbatim in bench/legacy_restricted_mwu.h and
// bench/legacy_free_path_mwu.h:
//
//  * the adversary max_log is maintained incrementally (log_x only grows,
//    and only on edges of chosen paths);
//  * exp(log_x[e] - max_log) is cached (exp is deterministic) and redone
//    only for edges whose log_x changed, or for every active edge when
//    max_log changes; never-touched edges share log_x == +0.0 and so the
//    one value exp(0.0 - max_log): one exp and a fill instead of m exps;
//  * round loads are aggregated sparsely over the touched-edge set: for an
//    untouched edge every reference update is `+= 0.0` or a max against
//    0.0, which leaves IEEE doubles bit-unchanged;
//  * the exit check short-circuits on the first violating edge. When the
//    sink or budget tracking already computes the averaged congestion
//    max_e cumulative/(rounds * cap), the exit decision is derived from it
//    instead: "no edge > bar" equals "!(max > bar)", since std::max skips
//    a NaN exactly as `>` does, so one scan per round feeds all three.
template <class Oracle>
void run_mwu(const Graph& g, const std::vector<Commodity>& commodities,
             const MinCongestionOptions& options, MinCongestionScratch& sc,
             Oracle& oracle, CongestionResult& out) {
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  out.edge_load.assign(m, 0.0);
  out.congestion = out.lower_bound = out.optimality_gap = 0.0;
  out.rounds_used = 0;
  out.status = SolveStatus::kCompleted;
  if (k == 0 || m == 0) return;

  // Dense capacity array (the Edge structs are 3x wider than needed here).
  auto& cap = sc.cap;
  cap.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    cap[e] = g.edge(static_cast<int>(e)).capacity;
  }
  oracle.prepare();

  // ---- MWU state (scratch-backed; assign/clear keep capacity) ------------
  auto& log_x = sc.log_x;
  auto& expv = sc.expv;
  auto& cumulative_load = sc.cumulative_load;
  auto& round_load = sc.round_load;
  auto& touched = sc.touched;
  auto& active = sc.active;
  auto& dirty = sc.dirty;
  auto& is_active = sc.is_active;
  auto& is_dirty = sc.is_dirty;
  log_x.assign(m, 0.0);
  expv.assign(m, 0.0);  // cached exp(log_x[e] - max_log)
  sc.lengths.assign(m, 0.0);
  cumulative_load.assign(m, 0.0);
  round_load.assign(m, 0.0);
  sc.chosen_edges.assign(k, std::span<const int>{});
  sc.chosen_len.assign(k, 0.0);
  touched.clear();  // edges with round_load != 0 this round
  active.clear();   // edges with log_x != 0 (ever touched)
  dirty.clear();    // active edges whose cached exp is stale
  is_active.assign(m, 0);
  is_dirty.assign(m, 0);
  touched.reserve(m);
  double max_log = 0.0;  // max over all-zero log_x
  double cached_max_log = std::numeric_limits<double>::quiet_NaN();

  // ---- warm start (opt-in; see MwuWarmStart) -----------------------------
  // Seeding only replaces the starting log-weights; the NaN cached_max_log
  // forces the round-0 exp refresh over the seeded active set. A
  // null/mismatched/zero-scaled seed leaves the cold state untouched.
  if (options.warm != nullptr && options.warm->scale > 0.0 &&
      options.warm->log_x.size() == m) {
    const double scale = options.warm->scale;
    for (std::size_t e = 0; e < m; ++e) {
      const double seeded = options.warm->log_x[e] * scale;
      if (seeded > 0.0 && std::isfinite(seeded)) {
        log_x[e] = seeded;
        is_active[e] = 1;
        active.push_back(static_cast<int>(e));
        max_log = std::max(max_log, seeded);
      }
    }
  }

  const double eta =
      std::sqrt(std::log(static_cast<double>(m) + 2.0) /
                static_cast<double>(std::max(options.rounds, 1)));
  double width_norm = 0.0;
  double best_lower = 0.0;

  // ---- anytime budget ----------------------------------------------------
  // A round budget truncates the SAME trajectory the unbudgeted solve
  // walks (eta above still derives from options.rounds), so budgeted runs
  // are seed-exact prefixes of full runs. With the budget disabled every
  // branch below is off and the arithmetic is bit-identical to a build
  // without it; the wall clock is only consulted when a deadline is set.
  const SolveBudget& budget = options.budget;
  const int round_cap =
      (budget.max_rounds > 0 && budget.max_rounds < options.rounds)
          ? budget.max_rounds
          : options.rounds;
  const double gap_mult =
      budget.target_gap > 0.0 ? budget.target_gap : options.target_gap;
  const bool track_best = budget.max_rounds > 0 || budget.deadline_ms > 0.0;
  const bool scan_max = track_best || options.sink != nullptr;
  const auto budget_start = budget.deadline_ms > 0.0
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  double best_seen = std::numeric_limits<double>::infinity();
  int best_round = 0;
  SolveStatus status = SolveStatus::kCompleted;

  const auto refresh_exp = [&](const std::vector<int>& edges) {
    for (int ei : edges) {
      const auto e = static_cast<std::size_t>(ei);
      expv[e] = std::exp(log_x[e] - max_log);
    }
  };
  int round = 0;
  for (round = 0; round < round_cap; ++round) {
    // Normalize x from log-space. Cached exps are exact reuses; edges with
    // log_x still at +0.0 all take the one value exp(0.0 - max_log).
    if (max_log != cached_max_log) {
      std::fill(expv.begin(), expv.end(), std::exp(0.0 - max_log));
      refresh_exp(active);
      cached_max_log = max_log;
    } else {
      refresh_exp(dirty);
    }
    for (int e : dirty) is_dirty[static_cast<std::size_t>(e)] = 0;
    dirty.clear();
    // The serial sum over every edge in index order, as the reference.
    double total = 0.0;
    for (std::size_t e = 0; e < m; ++e) total += expv[e];
    oracle.refresh_lengths(
        [&](std::size_t e) { return expv[e] / total / cap[e]; });

    oracle.respond();

    // Dual certificate: opt >= sum_j d_j * dist(s_j,t_j) / sum_e x_e, and
    // sum_e x_e == 1 after normalization.
    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      dual += commodities[j].amount * sc.chosen_len[j];
    }
    best_lower = std::max(best_lower, dual);

    // Aggregate this round's pure-profile loads, sparsely, then take the
    // log-weight step on the touched edges.
    for (std::size_t j = 0; j < k; ++j) {
      for (int ei : sc.chosen_edges[j]) {
        const auto e = static_cast<std::size_t>(ei);
        if (round_load[e] == 0.0) touched.push_back(ei);
        round_load[e] += commodities[j].amount;
      }
    }
    double width = 0.0;
    for (int ei : touched) {
      const auto e = static_cast<std::size_t>(ei);
      cumulative_load[e] += round_load[e];
      width = std::max(width, round_load[e] / cap[e]);
    }
    width_norm = std::max(width_norm, width);
    if (width_norm > 0.0) {
      for (int ei : touched) {
        const auto e = static_cast<std::size_t>(ei);
        log_x[e] += eta * (round_load[e] / cap[e]) / width_norm;
        max_log = std::max(max_log, log_x[e]);
        if (!is_dirty[e]) dirty.push_back(ei);
        if (!is_active[e]) active.push_back(ei);
        is_dirty[e] = 1;
        is_active[e] = 1;
      }
    }

    // Congestion of the averaged iterate, scanned once and only when the
    // sink or budget tracking reads it.
    const double rounds_so_far = static_cast<double>(round + 1);
    double cur = 0.0;
    if (scan_max) {
      for (std::size_t e = 0; e < m; ++e) {
        cur = std::max(cur, cumulative_load[e] / (rounds_so_far * cap[e]));
      }
    }
    // Opt-in convergence telemetry: observation only, gated on the null
    // pointer so the default path is bit-identical to a build without it.
    if (options.sink != nullptr) {
      options.sink->record({round + 1, cur, dual, best_lower,
                            certified_gap(cur, best_lower),
                            static_cast<int>(touched.size())});
    }

    for (int e : touched) round_load[static_cast<std::size_t>(e)] = 0.0;
    touched.clear();

    // Track the best averaged iterate so a budget stop can rewind to it.
    if (track_best && cur < best_seen) {
      best_seen = cur;
      best_round = round + 1;
      sc.budget_load = cumulative_load;
      oracle.snapshot();
    }

    if (round + 1 >= options.min_rounds && best_lower > 0.0) {
      const double bar = best_lower * gap_mult;
      bool exit_now = !scan_max || !(cur > bar);
      for (std::size_t e = 0; !scan_max && e < m && exit_now; ++e) {
        exit_now = !(cumulative_load[e] / (rounds_so_far * cap[e]) > bar);
      }
      if (exit_now) {
        ++round;
        status = SolveStatus::kTargetReached;
        break;
      }
    }

    if (budget.deadline_ms > 0.0 && (round + 1) % kDeadlineCheckRounds == 0 &&
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - budget_start)
                .count() >= budget.deadline_ms) {
      ++round;
      status = SolveStatus::kBudgetDeadline;
      break;
    }
  }
  if (status == SolveStatus::kCompleted && round_cap < options.rounds) {
    status = SolveStatus::kBudgetRounds;  // ran out the round budget
  }
  if ((status == SolveStatus::kBudgetRounds ||
       status == SolveStatus::kBudgetDeadline) &&
      best_round > 0 && best_round < round) {
    // Rewind to the best prefix iterate seen. The dual bound is a max over
    // rounds and independent of the returned iterate, so best_lower still
    // certifies the rewound result.
    round = best_round;
    cumulative_load = sc.budget_load;
    oracle.rewind();
  }

  const double rounds_used = static_cast<double>(std::max(round, 1));
  double congestion = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    out.edge_load[e] = cumulative_load[e] / rounds_used;
    congestion = std::max(congestion, out.edge_load[e] / cap[e]);
  }
  out.congestion = congestion;
  out.lower_bound = best_lower;
  out.rounds_used = round;
  out.status = status;
  oracle.finish(out);
  out.optimality_gap = certified_gap(out.congestion, out.lower_bound);

  // Capture half of the warm-start cycle: hand the final adversary state to
  // the caller (capacity-retaining assign; results above are unaffected).
  if (options.capture_log_x != nullptr) {
    options.capture_log_x->assign(log_x.begin(), log_x.end());
  }
}

// The restricted best response (Stage 4): per commodity, the shortest of
// its candidate paths. Beyond the driver's optimizations it is
// bit-identical to the reference's naive per-path argmin because:
//
//  * duplicate candidates are deduplicated up front: sampling is with
//    replacement, and a duplicate's length always EQUALS its first
//    occurrence, so the strict `<` argmin can never select it — dropping
//    it from the scan changes nothing (its weight was always 0);
//  * lengths are refreshed only for edges on SOME candidate path: the
//    argmin is the only reader of `lengths`, and it only ever indexes
//    candidate edges (the reference computes all m entries and never reads
//    the rest), so the round cost follows the candidate footprint.
struct RestrictedOracle {
  const Graph& g;
  const std::vector<Commodity>& commodities;
  const FlatCandidates& candidates;
  MinCongestionScratch& sc;

  // Dedup'd path d of the scan arena.
  std::span<const int> path(std::size_t d) const {
    return {sc.scan_arena.data() + sc.scan_first[d],
            static_cast<std::size_t>(sc.scan_first[d + 1] - sc.scan_first[d])};
  }

  void prepare() {
    // scan_first: prefix over dedup'd paths into scan_arena;
    // commodity_scan_first: prefix over dedup'd path indices per commodity;
    // original_index: first original candidate index of each dedup'd path.
    sc.scan_arena.clear();
    sc.scan_first.assign(1, 0);
    sc.commodity_scan_first.assign(1, 0);
    sc.original_index.clear();
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      const auto scan_begin =
          static_cast<std::size_t>(sc.commodity_scan_first.back());
      for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
        const auto span = candidates.edges(j, i);
        bool duplicate = false;
        for (std::size_t d = scan_begin;
             d + 1 < sc.scan_first.size() && !duplicate; ++d) {
          duplicate = std::ranges::equal(span, path(d));
        }
        if (duplicate) continue;
        sc.scan_arena.insert(sc.scan_arena.end(), span.begin(), span.end());
        sc.scan_first.push_back(
            static_cast<std::int64_t>(sc.scan_arena.size()));
        sc.original_index.push_back(static_cast<std::int32_t>(i));
      }
      sc.commodity_scan_first.push_back(
          static_cast<std::int64_t>(sc.scan_first.size()) - 1);
    }
    sc.counts.assign(sc.original_index.size(), 0);
    // The distinct candidate edge set: the only lengths the argmin reads.
    sc.cand_edges.clear();
    sc.in_cand.assign(static_cast<std::size_t>(g.num_edges()), 0);
    for (int e : sc.scan_arena) {
      if (!sc.in_cand[static_cast<std::size_t>(e)]) {
        sc.in_cand[static_cast<std::size_t>(e)] = 1;
        sc.cand_edges.push_back(e);
      }
    }
  }

  template <class Length>
  void refresh_lengths(Length length) {
    for (int e : sc.cand_edges) {
      sc.lengths[static_cast<std::size_t>(e)] =
          length(static_cast<std::size_t>(e));
    }
  }

  // Argmin over the dedup'd scan arena (strict <, so relative order ties
  // resolve exactly as the reference full scan does). Four paths are
  // accumulated in interleaved lanes — each lane is its own left-to-right
  // addition chain, so every path's sum is bit-identical to a serial
  // evaluation; interleaving only breaks the latency dependence BETWEEN
  // paths.
  void respond() {
    const double* lengths = sc.lengths.data();
    // Continues a path's left-to-right sum from edge offset `from`.
    const auto sum = [lengths](std::span<const int> p, std::size_t from,
                               double len) {
      for (std::size_t i = from; i < p.size(); ++i) {
        len += lengths[static_cast<std::size_t>(p[i])];
      }
      return len;
    };
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      sc.chosen_edges[j] = {};
      sc.chosen_len[j] = 0.0;
      const auto begin = static_cast<std::size_t>(sc.commodity_scan_first[j]);
      const auto end = static_cast<std::size_t>(sc.commodity_scan_first[j + 1]);
      if (commodities[j].amount <= 0.0 || begin == end) continue;
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_d = begin;
      const auto consider = [&](std::size_t d, double len) {
        if (len < best) {
          best = len;
          best_d = d;
        }
      };
      std::size_t d = begin;
      for (; d + 4 <= end; d += 4) {
        const std::span<const int> p[4] = {path(d), path(d + 1), path(d + 2),
                                           path(d + 3)};
        const std::size_t common =
            std::min({p[0].size(), p[1].size(), p[2].size(), p[3].size()});
        double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
        for (std::size_t i = 0; i < common; ++i) {
          l0 += lengths[static_cast<std::size_t>(p[0][i])];
          l1 += lengths[static_cast<std::size_t>(p[1][i])];
          l2 += lengths[static_cast<std::size_t>(p[2][i])];
          l3 += lengths[static_cast<std::size_t>(p[3][i])];
        }
        const double lanes[4] = {l0, l1, l2, l3};
        for (std::size_t q = 0; q < 4; ++q) {
          consider(d + q, sum(p[q], common, lanes[q]));
        }
      }
      for (; d < end; ++d) consider(d, sum(path(d), 0, 0.0));
      sc.chosen_edges[j] = path(best_d);
      sc.chosen_len[j] = best;
      ++sc.counts[best_d];
    }
  }

  void snapshot() { sc.budget_counts = sc.counts; }
  void rewind() { sc.counts = sc.budget_counts; }

  // Choice counts become fractional weights over the ORIGINAL candidate
  // indexing (duplicates keep their reference weight, 0: path_weights was
  // zeroed on entry), and the result is the exact congestion of those
  // weights.
  void finish(CongestionResult& out) {
    const double rounds = static_cast<double>(std::max(out.rounds_used, 1));
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      if (commodities[j].amount <= 0.0) continue;
      const auto end = static_cast<std::size_t>(sc.commodity_scan_first[j + 1]);
      for (auto d = static_cast<std::size_t>(sc.commodity_scan_first[j]);
           d < end; ++d) {
        out.path_weights[j][static_cast<std::size_t>(sc.original_index[d])] =
            commodities[j].amount * static_cast<double>(sc.counts[d]) /
            rounds;
      }
    }
    out.congestion = congestion_of_weights(g, commodities, candidates,
                                           out.path_weights, &out.edge_load);
  }
};

// The free best response (the offline optimum): one shortest path per
// commodity over ALL paths of the graph, walked back from a Dijkstra per
// distinct source. Bit-identical to the reference's naive Dijkstra because:
//
//  * commodities are grouped by source ONCE: the grouping is a pure
//    function of the commodity list, and the reference rebuilt the exact
//    same grouping every round (sources ascending, commodity order within
//    a source preserved);
//  * Dijkstra runs through reused dist/parent/heap scratch on a cached CSR
//    snapshot whose arc order equals Graph::incident — same algorithm, same
//    pop sequence, zero per-round allocation;
//  * each Dijkstra stops once its source's targets are settled, which is
//    bit-identical for everything the walk-back reads while lengths are
//    strictly positive (see dijkstra_into); the full sweep of the same
//    kernel is the fallback for the pathological underflow-to-zero case;
//  * UNLIKE the restricted case, Dijkstra may read ANY edge's length, so
//    all m lengths are refreshed each round.
struct FreeOracle {
  const Graph& g;
  const std::vector<Commodity>& commodities;
  MinCongestionScratch& sc;
  const FlatAdjacency* adj = nullptr;
  bool lengths_positive = true;

  // Source s's commodities occupy by_source[source_first[s] ..
  // source_first[s + 1]).
  std::span<const std::size_t> group(int s) const {
    const auto first = sc.source_first[static_cast<std::size_t>(s)];
    return {sc.by_source.data() + first,
            sc.source_first[static_cast<std::size_t>(s) + 1] - first};
  }

  void mark_targets(int s, char value) {
    for (std::size_t j : group(s)) {
      sc.is_target[static_cast<std::size_t>(commodities[j].t)] = value;
    }
  }

  void prepare() {
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    // Stable counting sort by source into two flat scratch arrays, without
    // the reference's per-source node allocations.
    auto& source_first = sc.source_first;
    source_first.assign(n + 2, 0);
    std::size_t active_commodities = 0;
    for (const Commodity& c : commodities) {
      if (c.amount > 0.0) {
        ++source_first[static_cast<std::size_t>(c.s) + 2];
        ++active_commodities;
      }
    }
    for (std::size_t s = 2; s < source_first.size(); ++s) {
      source_first[s] += source_first[s - 1];
    }
    sc.by_source.resize(active_commodities);
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      if (commodities[j].amount > 0.0) {
        sc.by_source[source_first[static_cast<std::size_t>(commodities[j].s) +
                                  1]++] = j;
      }
    }
    sc.sources.clear();
    for (std::size_t s = 0; s < n; ++s) {
      if (source_first[s + 1] > source_first[s]) {
        sc.sources.push_back(static_cast<int>(s));
      }
    }
    // Per-source distinct-target counts for the early-exit Dijkstra (the
    // is_target mask itself is set/cleared per (round, source)).
    auto& is_target = sc.is_target;
    is_target.assign(n, 0);
    sc.distinct_targets.assign(sc.sources.size(), 0);
    for (std::size_t si = 0; si < sc.sources.size(); ++si) {
      int count = 0;
      for (std::size_t j : group(sc.sources[si])) {
        const std::size_t t = static_cast<std::size_t>(commodities[j].t);
        if (!is_target[t]) {
          is_target[t] = 1;
          ++count;
        }
      }
      mark_targets(sc.sources[si], 0);
      sc.distinct_targets[si] = count;
    }
    sc.owned.resize(commodities.size());  // cleared every round
    sc.dist.assign(n, 0.0);
    sc.parent_edge.assign(n, -1);
    // The CSR snapshot is cached across CALLS on the same graph (see
    // FlatAdjacencyCache: the scenario layer's capacity-only mutations keep
    // it valid).
    adj = &sc.adj.get(g);
  }

  template <class Length>
  void refresh_lengths(Length length) {
    lengths_positive = true;
    for (std::size_t e = 0; e < sc.lengths.size(); ++e) {
      sc.lengths[e] = length(e);
      lengths_positive = lengths_positive && sc.lengths[e] > 0.0;
    }
  }

  // Reference order: sources ascending, commodities in input order within
  // a source.
  void respond() {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      sc.owned[j].clear();
      sc.chosen_edges[j] = {};
      sc.chosen_len[j] = 0.0;
    }
    for (std::size_t si = 0; si < sc.sources.size(); ++si) {
      const int s = sc.sources[si];
      if (lengths_positive) {
        mark_targets(s, 1);
        dijkstra_into(*adj, s, sc.lengths, sc.dist, sc.parent_edge,
                      sc.dijkstra, sc.is_target, sc.distinct_targets[si]);
        mark_targets(s, 0);
      } else {
        dijkstra_into(*adj, s, sc.lengths, sc.dist, sc.parent_edge,
                      sc.dijkstra);
      }
      for (std::size_t j : group(s)) {
        const int t = commodities[j].t;
        const double dist = sc.dist[static_cast<std::size_t>(t)];
        if (dist == std::numeric_limits<double>::infinity()) {
          throw SorError(ErrorCode::kMalformedDemand, "min_congestion_free",
                         "min_congestion_free: target " + std::to_string(t) +
                             " is unreachable from source " +
                             std::to_string(s));
        }
        sc.chosen_len[j] = dist;
        auto& owned = sc.owned[j];
        for (int v = t; v != s;) {
          const int e = sc.parent_edge[static_cast<std::size_t>(v)];
          owned.push_back(e);
          v = g.edge(e).other(v);
        }
        sc.chosen_edges[j] = owned;
      }
    }
  }

  // The loads the driver snapshots are the whole free result.
  void snapshot() {}
  void rewind() {}
  void finish(CongestionResult&) {}
};

}  // namespace

void min_congestion_over_paths_into(const Graph& g,
                                    const std::vector<Commodity>& commodities,
                                    const FlatCandidates& candidates,
                                    const MinCongestionOptions& options,
                                    MinCongestionScratch& sc,
                                    CongestionResult& out) {
  require_candidates(commodities, candidates, "min_congestion_over_paths");
  out.path_weights.resize(commodities.size());
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    out.path_weights[j].assign(candidates.num_paths(j), 0.0);
  }
  RestrictedOracle oracle{g, commodities, candidates, sc};
  run_mwu(g, commodities, options, sc, oracle, out);
}

CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates, const MinCongestionOptions& options) {
  MinCongestionScratch scratch;
  CongestionResult result;
  min_congestion_over_paths_into(g, commodities, candidates, options, scratch,
                                 result);
  return result;
}

void min_congestion_free_into(const Graph& g,
                              const std::vector<Commodity>& commodities,
                              const MinCongestionOptions& options,
                              MinCongestionScratch& sc, CongestionResult& out) {
  out.path_weights.clear();  // free mode: no per-path weights
  FreeOracle oracle{g, commodities, sc};
  run_mwu(g, commodities, options, sc, oracle, out);
}

CongestionResult min_congestion_free(const Graph& g,
                                     const std::vector<Commodity>& commodities,
                                     const MinCongestionOptions& options) {
  MinCongestionScratch scratch;
  CongestionResult result;
  min_congestion_free_into(g, commodities, options, scratch, result);
  return result;
}

CongestionResult min_congestion_over_paths_exact(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates) {
  constexpr const char* kSite = "min_congestion_over_paths_exact";
  require_candidates(commodities, candidates, kSite);
  const std::size_t k = commodities.size();

  // Variables: one weight per (commodity, candidate path), then t (the
  // congestion bound) last.
  std::vector<std::size_t> var_offset(k, 0);
  std::size_t num_path_vars = 0;
  for (std::size_t j = 0; j < k; ++j) {
    var_offset[j] = num_path_vars;
    num_path_vars += candidates.num_paths(j);
  }
  const std::size_t t_var = num_path_vars;

  LinearProgram lp;
  lp.objective.assign(num_path_vars + 1, 0.0);
  lp.objective[t_var] = 1.0;

  // Demand satisfaction: sum_i w_{j,i} = d_j.
  for (std::size_t j = 0; j < k; ++j) {
    if (commodities[j].amount <= 0.0) continue;
    std::vector<double> row(num_path_vars + 1, 0.0);
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      row[var_offset[j] + i] = 1.0;
    }
    lp.add_constraint(std::move(row), Relation::kEqual, commodities[j].amount);
  }

  // Capacity: sum over paths using e of w - cap_e * t <= 0.
  std::vector<std::vector<std::pair<std::size_t, double>>> edge_terms(
      static_cast<std::size_t>(g.num_edges()));
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      for (int e : candidates.edges(j, i)) {
        edge_terms[static_cast<std::size_t>(e)].emplace_back(
            var_offset[j] + i, 1.0);
      }
    }
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& terms = edge_terms[static_cast<std::size_t>(e)];
    if (terms.empty()) continue;
    std::vector<double> row(num_path_vars + 1, 0.0);
    for (const auto& [var, coef] : terms) row[var] += coef;
    row[t_var] = -g.edge(e).capacity;
    lp.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }

  const LpSolution solution = solve(lp);
  require_optimal(solution, kSite);

  CongestionResult result;
  result.path_weights.assign(k, {});
  for (std::size_t j = 0; j < k; ++j) {
    result.path_weights[j].assign(candidates.num_paths(j), 0.0);
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      result.path_weights[j][i] = solution.x[var_offset[j] + i];
    }
  }
  result.congestion = congestion_of_weights(
      g, commodities, candidates, result.path_weights, &result.edge_load);
  result.lower_bound = solution.objective;
  return result;
}

double min_congestion_free_exact(const Graph& g,
                                 const std::vector<Commodity>& commodities) {
  constexpr const char* kSite = "min_congestion_free_exact";
  // The MWU solve's input contract: every positive-amount commodity's
  // target must be reachable (an unreachable one has no feasible flow).
  const int n = g.num_vertices();
  std::vector<int> dist;
  int dist_source = -1;
  for (const Commodity& c : commodities) {
    if (!(c.amount > 0.0)) continue;
    if (c.s < 0 || c.s >= n || c.t < 0 || c.t >= n) {
      throw SorError(ErrorCode::kMalformedDemand, kSite,
                     std::string(kSite) + ": commodity (" +
                         std::to_string(c.s) + ", " + std::to_string(c.t) +
                         ") names a vertex outside [0, " + std::to_string(n) +
                         ")");
    }
    if (c.s != dist_source) {
      dist = bfs_distances(g, c.s);
      dist_source = c.s;
    }
    if (dist[static_cast<std::size_t>(c.t)] == kUnreachable) {
      throw SorError(ErrorCode::kMalformedDemand, kSite,
                     std::string(kSite) + ": target " + std::to_string(c.t) +
                         " is unreachable from source " + std::to_string(c.s));
    }
  }

  // Edge-flow formulation with directed arc variables per commodity:
  // f_{j,a} >= 0 for both orientations a of every edge, conservation at all
  // vertices (net outflow d_j at s_j, -d_j at t_j, 0 elsewhere), capacity
  // sum_j (f_{j,e+} + f_{j,e-}) <= cap_e * t; minimize t.
  const std::size_t k = commodities.size();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t vars_per_commodity = 2 * m;
  const std::size_t t_var = k * vars_per_commodity;

  LinearProgram lp;
  lp.objective.assign(t_var + 1, 0.0);
  lp.objective[t_var] = 1.0;

  auto arc_var = [&](std::size_t j, std::size_t e, bool forward) {
    return j * vars_per_commodity + 2 * e + (forward ? 0 : 1);
  };

  for (std::size_t j = 0; j < k; ++j) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      std::vector<double> row(t_var + 1, 0.0);
      bool nonzero = false;
      for (int eid : g.incident(v)) {
        const Edge& e = g.edge(eid);
        const std::size_t se = static_cast<std::size_t>(eid);
        // Forward arc u->v direction of the edge as stored.
        if (e.u == v) {
          row[arc_var(j, se, true)] += 1.0;   // leaves v
          row[arc_var(j, se, false)] -= 1.0;  // enters v
        } else {
          row[arc_var(j, se, true)] -= 1.0;
          row[arc_var(j, se, false)] += 1.0;
        }
        nonzero = true;
      }
      double rhs = 0.0;
      if (v == commodities[j].s) rhs = commodities[j].amount;
      if (v == commodities[j].t) rhs = -commodities[j].amount;
      if (!nonzero && rhs == 0.0) continue;
      lp.add_constraint(std::move(row), Relation::kEqual, rhs);
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    std::vector<double> row(t_var + 1, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      row[arc_var(j, e, true)] = 1.0;
      row[arc_var(j, e, false)] = 1.0;
    }
    row[t_var] = -g.edge(static_cast<int>(e)).capacity;
    lp.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }

  const LpSolution solution = solve(lp);
  require_optimal(solution, kSite);
  return solution.objective;
}

}  // namespace sor
