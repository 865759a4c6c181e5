#include "analysis/experiments.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "analysis/churn_storm.hpp"
#include "analysis/convergence.hpp"
#include "analysis/linklen.hpp"
#include "analysis/phases.hpp"
#include "analysis/robustness.hpp"
#include "analysis/service.hpp"
#include "analysis/stress.hpp"
#include "baselines/fingers.hpp"
#include "baselines/linearization.hpp"
#include "core/forget.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "core/views.hpp"
#include "graph/metrics.hpp"
#include "obs/registry.hpp"
#include "routing/greedy.hpp"
#include "routing/probe_path.hpp"
#include "routing/torus.hpp"
#include "service/slo.hpp"
#include "topology/cfl.hpp"
#include "topology/cfl2d.hpp"
#include "topology/chord.hpp"
#include "topology/kleinberg.hpp"
#include "topology/stationary.hpp"
#include "topology/torus2d.hpp"
#include "topology/watts_strogatz.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

namespace {

// Cells carry canonical specs produced by expand_cells, so re-parsing here
// cannot fail; the CHECK guards hand-built cells in tests.
core::Config ablation_config(const SweepCell& cell) {
  const auto spec = parse_ablation_spec(cell.ablation);
  SSSW_CHECK(spec.has_value());
  return spec->config;
}

FaultSpec fault_spec(const SweepCell& cell) {
  const auto spec = parse_fault_spec(cell.fault);
  SSSW_CHECK(spec.has_value());
  return *spec;
}

/// The theorem-shaped budget (400n + 4000) scaled by the extra per-message
/// latency the cell's scheduler/fault plan imposes — the same shape as
/// fuzz.cpp's round_bound, minus the dimensions a sweep cell cannot carry.
std::uint64_t cell_budget(const SweepCell& cell) {
  if (cell.max_rounds > 0) return cell.max_rounds;
  const FaultSpec fault = fault_spec(cell);
  std::uint64_t bound = 400 * static_cast<std::uint64_t>(cell.n) + 4000;
  std::uint64_t latency = 1;
  if (fault.plan.delay_probability > 0) latency += fault.plan.max_delay_rounds;
  if (cell.scheduler == sim::SchedulerKind::kAdversarialOldestLast)
    latency += fault.oldest_last_hold > 0 ? fault.oldest_last_hold : 3;
  bound *= latency;
  if (fault.plan.partition_rounds > 0)
    bound += fault.plan.partition_start + fault.plan.partition_rounds;
  return bound;
}

// Param values were checked by check_param when the config was parsed (or
// the bench row registered), so these parses cannot fail either.
std::optional<std::string> find_param(const SweepCell& cell, std::string_view key) {
  for (auto& [k, v] : split_params(cell.params))
    if (k == key) return std::move(v);
  return std::nullopt;
}

double param_or(const SweepCell& cell, std::string_view key, double fallback) {
  const auto text = find_param(cell, key);
  if (!text) return fallback;
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text->data(), text->data() + text->size(), value);
  SSSW_CHECK(ec == std::errc() && ptr == text->data() + text->size());
  return value;
}

std::string param_or(const SweepCell& cell, std::string_view key,
                     std::string fallback) {
  return find_param(cell, key).value_or(std::move(fallback));
}

/// A stabilized ring of n random ids after `burn_in` rounds of
/// move-and-forget, so long-range links are spread.
core::SmallWorldNetwork stabilized(std::size_t n, std::uint64_t seed,
                                   std::size_t burn_in,
                                   const core::Config& config) {
  util::Rng rng(seed);
  auto ids = core::random_ids(n, rng);
  core::NetworkOptions options;
  options.protocol = config;
  options.seed = seed;
  core::SmallWorldNetwork network = core::make_stable_ring(std::move(ids), options);
  network.run_rounds(burn_in);
  return network;
}

/// The static reference topologies E5 routes on and E9 damages.  Chord's
/// fingers only point clockwise, so it routes by clockwise distance.
struct Overlay {
  graph::Digraph graph;
  routing::Metric metric = routing::Metric::kRingSymmetric;
};

Overlay build_overlay(std::string_view model, std::size_t n, util::Rng& rng,
                      std::size_t links) {
  if (model == "kleinberg")
    return {topology::make_kleinberg_ring(n, rng, {.long_links_per_node = links})};
  if (model == "watts-strogatz") return {topology::make_watts_strogatz(n, rng)};
  if (model == "chord")
    return {topology::make_chord_ring(n), routing::Metric::kClockwise};
  if (model == "ring") {
    graph::Digraph ring(n);
    for (graph::Vertex i = 0; i < n; ++i) {
      ring.add_edge(i, static_cast<graph::Vertex>((i + 1) % n));
      ring.add_edge(i, static_cast<graph::Vertex>((i + n - 1) % n));
    }
    return {std::move(ring)};
  }
  return {topology::make_stationary_smallworld_ring(n, rng)};
}

// --- E1/E2: convergence to the sorted ring (Thms 4.9/4.18) -----------------

CellResult run_convergence(const SweepCell& cell, obs::Registry*) {
  ConvergenceOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.max_rounds = cell_budget(cell);
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const ConvergenceResult r = measure_convergence(cell.shape, options);
  CellResult out;
  out.add("list_rounds_mean", r.list_rounds.mean);
  out.add("list_rounds_p90", r.list_rounds.p90);
  out.add("ring_extra_mean", r.ring_extra_rounds.mean);
  out.add("msgs_per_node_mean", r.messages_per_node.mean);
  out.add("converged", r.converged);
  return out;
}

// --- E1b: phase timeline (the §IV proof structure) -------------------------

CellResult run_phases(const SweepCell& cell, obs::Registry*) {
  PhaseTimelineOptions options;
  options.n = cell.n;
  options.max_rounds = cell_budget(cell);
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const core::Phase tracked[] = {core::Phase::kListConnected,
                                 core::Phase::kSortedList,
                                 core::Phase::kSortedRing,
                                 core::Phase::kSmallWorld};
  const char* names[] = {"list_connected_mean", "sorted_list_mean",
                         "sorted_ring_mean", "small_world_mean"};
  double sums[4] = {};
  std::size_t counts[4] = {};
  std::size_t completed = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    options.seed = cell.seed + trial;
    const PhaseTimeline timeline = measure_phase_timeline(cell.shape, options);
    if (timeline.completed()) ++completed;
    for (std::size_t i = 0; i < 4; ++i) {
      if (const auto round = timeline.at(tracked[i])) {
        sums[i] += static_cast<double>(*round);
        ++counts[i];
      }
    }
  }
  CellResult out;
  for (std::size_t i = 0; i < 4; ++i)
    out.add(names[i],
            counts[i] > 0 ? sums[i] / static_cast<double>(counts[i]) : -1.0);
  out.add("completed",
          static_cast<double>(completed) / static_cast<double>(cell.trials));
  return out;
}

// --- E1c: greedy-routing service while stabilizing -------------------------

CellResult run_service_curve(const SweepCell& cell, obs::Registry*) {
  ServiceOptions options;
  options.n = cell.n;
  options.seed = cell.seed;
  options.sample_every = 4;
  options.max_rounds = cell_budget(cell);
  options.protocol = ablation_config(cell);
  const std::vector<ServicePoint> curve =
      measure_service_during_stabilization(cell.shape, options);
  CellResult out;
  if (curve.empty()) {
    out.error = "no service samples";
    return out;
  }
  out.add("success_t0", curve.front().success);
  out.add("success_mid", curve[curve.size() / 2].success);
  out.add("success_end", curve.back().success);
  out.add("rounds_to_full", static_cast<double>(curve.back().round));
  return out;
}

// --- E3: long-range-link length law (Fact 4.21 / Thm 4.22) -----------------

CellResult run_linklen(const SweepCell& cell, obs::Registry*) {
  LinkLenOptions options;
  options.n = cell.n;
  options.seed = cell.seed;
  options.snapshots = static_cast<std::size_t>(
      param_or(cell, "snapshots", static_cast<double>(options.snapshots)));
  options.burn_in = static_cast<std::size_t>(param_or(cell, "burn_in", 0.0));
  const core::Config protocol = ablation_config(cell);
  options.epsilon = protocol.epsilon;
  const std::string process = param_or(cell, "process", std::string("cfl"));
  const LinkLenResult r = process == "protocol"
                              ? measure_protocol_linklen(options, protocol)
                              : measure_cfl_linklen(options);
  CellResult out;
  out.add("exponent", r.fit.exponent);
  out.add("exponent_r2", r.fit.r2);
  out.add("corrected_slope", r.corrected.slope);
  out.add("mean_length", r.mean_length);
  out.add("samples", static_cast<double>(r.samples));
  return out;
}

// --- E4: probe-path length (Lemma 4.23) -------------------------------------

CellResult run_probing(const SweepCell& cell, obs::Registry*) {
  const std::size_t n = cell.n;
  const core::SmallWorldNetwork network =
      stabilized(n, cell.seed, 4 * n, ablation_config(cell));
  const auto ids = network.engine().id_span();
  std::vector<double> hops;
  double reached = 0.0, probes = 0.0;
  CellResult out;
  if (param_or(cell, "targets", std::string("distance")) == "lrl") {
    // The probes Algorithm 10 actually issues: every node toward its own lrl.
    for (const sim::Id id : ids) {
      const sim::Id target = network.node(id)->lrl();
      if (target == id) continue;
      const auto probe = routing::probe_walk(network, id, target, 16 * n);
      probes += 1.0;
      if (probe.reached) {
        reached += 1.0;
        hops.push_back(static_cast<double>(probe.hops));
      }
    }
    out.add("hops_mean", util::mean_of(hops));
    out.add("reached", probes > 0 ? reached / probes : 1.0);
    return out;
  }
  // Targets at exponentially spaced distances from random origins.
  std::vector<double> distances;
  util::Rng rng(cell.seed ^ 0xbeef);
  for (std::size_t d = 1; d <= n / 2; d = d * 2) {
    for (int rep = 0; rep < 64; ++rep) {
      const std::size_t origin_rank = rng.below(n);
      const std::size_t target_rank = (origin_rank + d) % n;
      const auto probe =
          routing::probe_walk(network, ids[origin_rank], ids[target_rank], 16 * n);
      probes += 1.0;
      if (probe.reached) {
        reached += 1.0;
        distances.push_back(static_cast<double>(d));
        hops.push_back(static_cast<double>(probe.hops));
      }
    }
  }
  const auto fit = util::fit_polylog(distances, hops);
  const auto hop_summary = util::summarize(hops);
  out.add("hops_mean", hop_summary.mean);
  out.add("hops_p90", hop_summary.p90);
  out.add("polylog_exp", fit.exponent);
  out.add("fit_r2", fit.r2);
  out.add("reached", probes > 0 ? reached / probes : 0.0);
  return out;
}

// --- E5: greedy routing (Thm 4.22 / Kleinberg) ------------------------------

CellResult run_routing(const SweepCell& cell, obs::Registry* registry) {
  const std::size_t n = cell.n;
  const auto pairs = static_cast<std::size_t>(param_or(cell, "pairs", 256.0));
  const std::string model = param_or(cell, "model", std::string("stationary"));
  util::Rng build(cell.seed);
  util::Rng eval(cell.seed +
                 static_cast<std::uint64_t>(param_or(cell, "pair_seed", 1.0)));
  obs::Registry local;
  routing::GreedyMetrics metrics(registry != nullptr ? *registry : local);
  routing::RoutingStats stats;
  if (model == "sssw") {
    // The in-engine protocol network, burned to stationarity (~n² move
    // steps, 3× for the message-pipeline dilation).
    const core::SmallWorldNetwork network =
        stabilized(n, cell.seed, 3 * n * n / 4, core::Config{});
    const core::IdIndex index = network.make_index();
    stats = routing::evaluate_routing(core::view_cp(network.engine(), index), eval,
                                      pairs, n, routing::Metric::kRingSymmetric,
                                      &metrics);
  } else if (model == "lookahead") {
    const graph::Digraph graph = topology::make_stationary_smallworld_ring(n, build);
    stats = routing::evaluate_routing_lookahead(
        graph, eval, pairs, n, routing::Metric::kRingSymmetric, &metrics);
  } else {
    const Overlay overlay = build_overlay(model, n, build, 1);
    stats = routing::evaluate_routing(overlay.graph, eval, pairs, n,
                                      overlay.metric, &metrics);
  }
  CellResult out;
  out.add("hops_mean", stats.hops.mean);
  out.add("hops_p90", stats.hops.p90);
  out.add("success", stats.success_rate);
  return out;
}

// --- E6: join/leave recovery (§IV.G) ---------------------------------------

CellResult run_churn(const SweepCell& cell, obs::Registry*) {
  ChurnOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.max_recovery_rounds = cell_budget(cell);
  options.protocol = ablation_config(cell);
  const ChurnResult join = measure_join(options);
  const ChurnResult leave = measure_leave(options);
  CellResult out;
  out.add("join_rounds_mean", join.recovery_rounds.mean);
  out.add("join_rounds_p90", join.recovery_rounds.p90);
  out.add("join_msgs_mean", join.recovery_messages.mean);
  out.add("join_recovered", join.recovered);
  out.add("leave_rounds_mean", leave.recovery_rounds.mean);
  out.add("leave_rounds_p90", leave.recovery_rounds.p90);
  out.add("leave_msgs_mean", leave.recovery_messages.mean);
  out.add("leave_recovered", leave.recovered);
  return out;
}

// --- E7: overlapping churn, and detected leave vs detected crash ------------

CellResult run_storm(const SweepCell& cell, obs::Registry*) {
  // One event every `interval` rounds with no recovery wait; smaller is
  // harsher.  The w.h.p. caveat of Thm 4.24 made measurable.
  ChurnStormOptions options;
  options.n = cell.n;
  options.events = 24;
  options.event_interval =
      static_cast<std::size_t>(param_or(cell, "interval", 4.0));
  options.max_quiesce_rounds = cell_budget(cell);
  options.protocol = ablation_config(cell);
  double survived = 0, quiesce = 0, msg_rate = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    options.seed = cell.seed + trial;
    const ChurnStormResult r = run_churn_storm(options);
    survived += r.survived ? 1.0 : 0.0;
    quiesce += static_cast<double>(r.quiesce_rounds);
    msg_rate += r.messages_per_node_round;
  }
  const auto trials = static_cast<double>(cell.trials);
  CellResult out;
  out.add("survived", survived / trials);
  out.add("quiesce_rounds", quiesce / trials);
  out.add("msgs_per_node_round", msg_rate / trials);
  return out;
}

CellResult run_leave_vs_crash(const SweepCell& cell, obs::Registry*) {
  // Same network, same victim: repair rounds after a leave() (neighbours
  // learn instantly) against a crash-stop the active detector must notice.
  // The delta is the detection latency.
  const std::size_t n = cell.n;
  double leave_sum = 0, crash_sum = 0, leave_healed = 0, crash_healed = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    const std::uint64_t seed = cell.seed + trial;
    for (const bool use_crash : {false, true}) {
      core::Config config = ablation_config(cell);
      config.detector.enabled = use_crash;  // leave needs no detection
      core::SmallWorldNetwork network = stabilized(n, seed, 4 * n, config);
      util::Rng rng(seed ^ 0x6c766373ull);  // same victim both ways
      const auto ids = network.engine().id_span();
      const sim::Id victim = ids[rng.below(ids.size())];
      if (use_crash)
        network.crash(victim);
      else
        network.leave(victim);
      const auto rounds = network.run_until_sorted_ring(cell_budget(cell));
      if (!rounds.has_value()) continue;
      (use_crash ? crash_healed : leave_healed) += 1.0;
      (use_crash ? crash_sum : leave_sum) += static_cast<double>(*rounds);
    }
  }
  const double leave_mean = leave_healed > 0 ? leave_sum / leave_healed : -1.0;
  const double crash_mean = crash_healed > 0 ? crash_sum / crash_healed : -1.0;
  const auto trials = static_cast<double>(cell.trials);
  CellResult out;
  out.add("leave_rounds_mean", leave_mean);
  out.add("crash_rounds_mean", crash_mean);
  out.add("detection_latency",
          leave_mean >= 0 && crash_mean >= 0 ? crash_mean - leave_mean : -1.0);
  out.add("leave_healed", leave_healed / trials);
  out.add("crash_healed", crash_healed / trials);
  return out;
}

// --- E8: message overhead (§IV.F) -------------------------------------------

CellResult run_overhead(const SweepCell& cell, obs::Registry* registry) {
  const std::size_t n = cell.n;
  const core::Config config = ablation_config(cell);
  CellResult out;
  if (param_or(cell, "phase", std::string("stable")) == "stabilizing") {
    // The transient load while converging from the cell's initial shape.
    util::Rng rng(cell.seed);
    auto ids = core::random_ids(n, rng);
    core::NetworkOptions options;
    options.seed = cell.seed;
    options.protocol = config;
    core::SmallWorldNetwork network(options);
    network.add_nodes(topology::make_initial_state(cell.shape, std::move(ids), rng));
    const auto rounds = network.run_until_sorted_ring(cell_budget(cell));
    const double taken = rounds.has_value() ? static_cast<double>(*rounds) : 0.0;
    out.add("rounds", taken);
    out.add("msgs_per_node_round",
            taken > 0 ? static_cast<double>(network.engine().counters().total_sent()) /
                            static_cast<double>(n) / taken
                      : 0.0);
    return out;
  }
  // The stable state: per-type traffic shares over a fixed window (the
  // probe-interval ablation shrinks the probing share).
  core::SmallWorldNetwork network = stabilized(n, cell.seed, 4 * n, config);
  if (registry != nullptr) network.attach_metrics(*registry);
  constexpr std::size_t kMeasureRounds = 256;
  network.engine().reset_counters();
  if (registry != nullptr) registry->reset();
  network.run_rounds(kMeasureRounds);
  const auto& counters = network.engine().counters();
  const double total = static_cast<double>(counters.total_sent());
  out.add("msgs_per_node_round", total / static_cast<double>(n) /
                                     static_cast<double>(kMeasureRounds));
  for (sim::MessageType type = 0; type < core::kNumMsgTypes; ++type)
    out.add(std::string(core::msg_type_name(type)) + "_share",
            total > 0 ? static_cast<double>(counters.sent_by_type[type]) / total
                      : 0.0);
  return out;
}

// --- E9: robustness to random node failures (§I) ---------------------------

CellResult run_robustness(const SweepCell& cell, obs::Registry*) {
  util::Rng build(cell.seed);
  const Overlay overlay = build_overlay(
      param_or(cell, "model", std::string("stationary")), cell.n, build,
      static_cast<std::size_t>(param_or(cell, "k", 1.0)));
  RobustnessOptions options;
  options.trials = cell.trials;
  options.routing_pairs = 200;
  options.seed = cell.seed;
  options.metric = overlay.metric;
  const RobustnessPoint point =
      measure_robustness(overlay.graph, param_or(cell, "fail", 0.1), options);
  CellResult out;
  out.add("fail_frac", point.fail_fraction);
  out.add("lcc_frac", point.largest_component);
  out.add("success", point.routing_success);
  out.add("hops_mean", point.mean_hops);
  out.add("degree", graph::degree_stats(overlay.graph).mean);
  return out;
}

// --- E10: link ages and the forget survival law (§IV.E) --------------------

CellResult run_forget(const SweepCell& cell, obs::Registry*) {
  const std::size_t n = cell.n;
  const double epsilon = ablation_config(cell).epsilon;
  topology::CflProcess process(n, epsilon, util::Rng(cell.seed));
  process.run(8 * n);
  core::Age max_age = 0;
  for (std::size_t i = 0; i < n; ++i) max_age = std::max(max_age, process.age(i));

  // Empirical survival curve of link ages vs the telescoped closed form
  // (2/α)(ln2/lnα)^{1+ε}, sampled from independent age processes.
  constexpr int kLinks = 20000;
  constexpr core::Age kCheckAges[] = {4, 8, 16, 32, 64};
  util::Rng rng(cell.seed);
  std::vector<int> alive_at(std::size(kCheckAges), 0);
  for (int link = 0; link < kLinks; ++link) {
    core::Age age = 0;
    bool alive = true;
    while (alive && age <= 64) {
      ++age;
      if (rng.bernoulli(core::forget_probability(age, epsilon))) alive = false;
      if (alive) {
        for (std::size_t c = 0; c < std::size(kCheckAges); ++c)
          if (age == kCheckAges[c]) ++alive_at[c];
      }
    }
  }
  double worst = 0.0;
  for (std::size_t c = 0; c < std::size(kCheckAges); ++c) {
    const double empirical = static_cast<double>(alive_at[c]) / kLinks;
    const double expected = core::survival_probability(kCheckAges[c], epsilon);
    worst = std::max(worst, std::abs(empirical - expected));
  }
  CellResult out;
  out.add("max_age", static_cast<double>(max_age));
  out.add("max_age_over_n", static_cast<double>(max_age) / static_cast<double>(n));
  out.add("forgets_per_node",
          static_cast<double>(process.total_forgets()) / static_cast<double>(n));
  out.add("survival_err", worst);
  return out;
}

// --- E11/E12: navigability in 1-D and on the 2-D torus ---------------------

CellResult run_navigability(const SweepCell& cell, obs::Registry*) {
  constexpr std::size_t kPairs = 400;
  const std::size_t n = cell.n;
  const std::string model = param_or(cell, "model", std::string("ring1d"));
  util::Rng build(cell.seed);
  util::Rng eval(cell.seed + 1);
  CellResult out;
  routing::RoutingStats stats;
  if (model == "ring1d") {
    const auto graph = topology::make_kleinberg_ring(
        n, build,
        {.long_links_per_node = 1, .exponent = param_or(cell, "alpha", 1.0)});
    stats = routing::evaluate_routing(graph, eval, kPairs, n);
  } else {
    const auto side = static_cast<std::size_t>(std::lround(std::sqrt(n)));
    if (side * side != n) {
      out.error = "2-D models need n to be a square";
      return out;
    }
    const topology::Torus2d torus(side);
    if (model == "torus2d") {
      const auto graph = topology::make_kleinberg_torus(
          side, build,
          {.long_links_per_node = 1, .exponent = param_or(cell, "alpha", 2.0)});
      stats = routing::evaluate_routing_torus(graph, torus, eval, kPairs, n);
    } else if (model == "cfl2d") {
      // The 2-D move-and-forget process, run to mixing (~ diameter² steps).
      topology::Cfl2dProcess process(side, ablation_config(cell).epsilon,
                                     util::Rng(cell.seed));
      process.run(n);
      stats = routing::evaluate_routing_torus(process.graph(), torus, eval,
                                              kPairs, n);
    } else {
      // The bare lattice: greedy is a Manhattan walk, Θ(side) hops.
      stats = routing::evaluate_routing_torus(topology::make_torus_lattice(side),
                                              torus, eval, kPairs, n);
    }
  }
  out.add("hops_mean", stats.hops.mean);
  out.add("success", stats.success_rate);
  return out;
}

// --- E13: convergence under the fault adversary ----------------------------

CellResult run_faults(const SweepCell& cell, obs::Registry*) {
  const FaultSpec fault = fault_spec(cell);
  FaultSweepOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.faults = fault.plan;
  options.scheduler = fault.oldest_last()
                          ? sim::SchedulerKind::kAdversarialOldestLast
                          : cell.scheduler;
  if (fault.oldest_last()) options.adversary_delay = fault.oldest_last_hold;
  options.protocol = ablation_config(cell);
  options.max_rounds = cell.max_rounds;
  const FaultSweepResult r = measure_fault_convergence(options);
  CellResult out;
  out.add("rounds", r.rounds);
  out.add("converged", r.converged);
  out.add("survived", r.survived);
  out.add("injected", r.injected);
  return out;
}

// --- E14: crash recovery under the active failure detector -----------------

CellResult run_recovery(const SweepCell& cell, obs::Registry* registry) {
  RecoveryOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.crash_frac = param_or(cell, "crash", 0.1);
  options.message_loss = param_or(cell, "loss", 0.0);
  options.mode = param_or(cell, "mode", std::string("crash")) == "leave"
                     ? RecoveryOptions::Mode::kLeave
                     : RecoveryOptions::Mode::kCrash;
  options.protocol = ablation_config(cell);
  options.max_rounds = cell.max_rounds;
  const RecoveryResult r = measure_crash_recovery(options, registry);
  CellResult out;
  out.add("repair_rounds", r.repair_rounds);
  out.add("healed", r.healed);
  out.add("survived", r.survived);
  out.add("msgs_per_nr", r.msgs_per_nr);
  out.add("detector_share", r.detector_share);
  out.add("evictions", r.evictions);
  return out;
}

// --- E15: lookup SLO during crash recovery (doc/SERVICE.md) ----------------

CellResult run_service(const SweepCell& cell, obs::Registry* registry) {
  service::SloOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.crash_frac = param_or(cell, "crash", 0.1);
  options.message_loss = param_or(cell, "loss", 0.0);
  options.protocol = ablation_config(cell);
  // The E15 ablation rows ride params, like E14's "mode": detector=0 turns
  // the failure detector off, retries=0 turns re-issue off, hedge=R hedges.
  options.detector = param_or(cell, "detector", 1.0) != 0.0;
  options.protocol.lrl_count = static_cast<std::uint32_t>(
      param_or(cell, "k", static_cast<double>(options.protocol.lrl_count)));
  options.lookup.rate = param_or(cell, "rate", 4.0);
  // ttl/timeout sized so a healthy network never times out (pre-crash
  // success must read 1.0): p999 hop count at n = 1024, k = 8 is ~130 and a
  // hop costs a round, so 192 rounds of budget and 512 hops of ttl leave
  // headroom for the during-outage detour tail.
  options.lookup.ttl = 512;
  options.lookup.timeout_rounds = 192;
  options.lookup.max_retries =
      static_cast<std::uint32_t>(param_or(cell, "retries", 2.0));
  options.lookup.hedge_after =
      static_cast<std::uint32_t>(param_or(cell, "hedge", 0.0));
  options.recovery_window = 64;
  const service::SloResult r = service::measure_slo(options, registry);
  CellResult out;
  out.add("success_pre", r.pre.success);
  out.add("success_during", r.during_crash.success);
  out.add("success_post", r.post.success);
  out.add("p50_lat_pre", r.pre.p50_latency);
  out.add("p999_lat_pre", r.pre.p999_latency);
  out.add("p999_lat_during", r.during_crash.p999_latency);
  out.add("p999_lat_post", r.post.p999_latency);
  out.add("p999_hops_post", r.post.p999_hops);
  out.add("recovery_rounds", r.recovery_rounds);
  out.add("recovered", r.recovered_fraction);
  out.add("in_window", r.recovered_in_window);
  out.add("detection_window", static_cast<double>(r.detection_window));
  out.add("issued", static_cast<double>(r.totals.issued));
  out.add("retries", static_cast<double>(r.totals.retries));
  out.add("deadletters", static_cast<double>(r.totals.deadletter_timeout +
                                             r.totals.deadletter_no_progress +
                                             r.totals.deadletter_target_dead +
                                             r.totals.deadletter_ttl));
  return out;
}

// --- A1: the linearization and finger-overlay baselines ---------------------

/// The baselines' initial state: n random ids linked into one chain in
/// random order (each node points at its chain successor from the side it
/// lies on), the same disorder e1-convergence's random-chain shape starts
/// from.
struct RandomChain {
  std::vector<sim::Id> ids, l, r;
};

RandomChain random_chain(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  RandomChain chain{core::random_ids(n, rng), std::vector<sim::Id>(n, sim::kNegInf),
                    std::vector<sim::Id>(n, sim::kPosInf)};
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::shuffle(order, rng);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const sim::Id to = chain.ids[order[k + 1]];
    (to < chain.ids[order[k]] ? chain.l : chain.r)[order[k]] = to;
  }
  return chain;
}

/// Rounds and messages from a random chain to the baseline's legal state:
/// the sorted list (Onus-style linearization), or the sorted list plus every
/// finger correct (the Re-Chord-lite structured overlay of §I's comparison).
CellResult run_baseline(const SweepCell& cell, bool fingers) {
  const std::size_t n = cell.n;
  double rounds_sum = 0, msgs_sum = 0, degree_sum = 0, converged = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    const std::uint64_t seed = cell.seed + trial;
    const RandomChain chain = random_chain(n, seed);
    sim::Engine engine(sim::EngineConfig{.seed = seed});
    for (std::size_t i = 0; i < n; ++i) {
      if (fingers)
        engine.add_process(std::make_unique<baselines::FingerNode>(
            chain.ids[i], chain.l[i], chain.r[i], baselines::FingerConfig{}));
      else
        engine.add_process(std::make_unique<baselines::LinearizationNode>(
            chain.ids[i], chain.l[i], chain.r[i]));
    }
    const bool done = engine.run_until(
        [&] {
          return fingers ? baselines::fingers_sorted_list(engine) &&
                               baselines::fingers_correct(engine)
                         : baselines::is_sorted_list(engine);
        },
        cell_budget(cell));
    if (!done) continue;
    converged += 1.0;
    rounds_sum += static_cast<double>(engine.round());
    msgs_sum += static_cast<double>(engine.counters().total_sent()) /
                static_cast<double>(n);
    if (fingers) {
      const graph::Digraph graph = baselines::finger_view(engine);
      double total = 0;
      for (graph::Vertex v = 0; v < graph.vertex_count(); ++v)
        total += static_cast<double>(graph.out_degree(v));
      degree_sum += total / static_cast<double>(n);
    }
  }
  CellResult out;
  out.add("rounds_mean", converged > 0 ? rounds_sum / converged : -1.0);
  out.add("msgs_per_node", converged > 0 ? msgs_sum / converged : -1.0);
  if (fingers) out.add("degree", converged > 0 ? degree_sum / converged : -1.0);
  out.add("converged", converged / static_cast<double>(cell.trials));
  return out;
}

CellResult run_linearization(const SweepCell& cell, obs::Registry*) {
  return run_baseline(cell, false);
}

CellResult run_fingers(const SweepCell& cell, obs::Registry*) {
  return run_baseline(cell, true);
}

// --- A3: k long-range links per node ----------------------------------------

CellResult run_multilink(const SweepCell& cell, obs::Registry*) {
  // Routing quality against the extra degree and inclrl/reslrl traffic of
  // the multilink:K ablation.
  const std::size_t n = cell.n;
  const core::Config config = ablation_config(cell);
  core::SmallWorldNetwork network = stabilized(n, cell.seed, 6 * n, config);
  const core::IdIndex index = network.make_index();
  const graph::Digraph graph = core::view_cp(network.engine(), index);
  util::Rng rng(cell.seed + config.lrl_count);
  network.engine().reset_counters();
  const routing::RoutingStats stats = routing::evaluate_routing(graph, rng, 300, n);
  constexpr std::size_t kTrafficRounds = 64;
  network.run_rounds(kTrafficRounds);
  CellResult out;
  out.add("hops_mean", stats.hops.mean);
  out.add("success", stats.success_rate);
  out.add("msgs_per_node_round",
          static_cast<double>(network.engine().counters().total_sent()) /
              static_cast<double>(n) / static_cast<double>(kTrafficRounds));
  return out;
}

// --- A4: convergence over lossy channels ------------------------------------

CellResult run_message_loss(const SweepCell& cell, obs::Registry*) {
  // The paper assumes lossless channels.  Non-convergence here is usually a
  // permanent disconnection (a linearization handoff message lost), so the
  // budget is the only cap.
  double rounds_sum = 0, converged = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    const std::uint64_t seed = cell.seed + trial;
    util::Rng rng(seed);
    core::NetworkOptions options;
    options.seed = seed;
    options.message_loss = param_or(cell, "loss", 0.1);
    options.protocol = ablation_config(cell);
    core::SmallWorldNetwork network(options);
    network.add_nodes(topology::make_initial_state(
        cell.shape, core::random_ids(cell.n, rng), rng));
    if (const auto rounds = network.run_until_sorted_ring(cell_budget(cell))) {
      converged += 1;
      rounds_sum += static_cast<double>(*rounds);
    }
  }
  CellResult out;
  out.add("rounds_mean", converged > 0 ? rounds_sum / converged : -1.0);
  out.add("converged", converged / static_cast<double>(cell.trials));
  return out;
}

// --- the catalog -------------------------------------------------------------

constexpr double kCountMax = 1e12;  // generous cap on integral params
constexpr ParamSpec fraction_param(std::string_view key) {
  return {.key = key, .min = 0.0, .max = 1.0};
}
constexpr ParamSpec count_param(std::string_view key, double min = 0.0,
                                double max = kCountMax) {
  return {.key = key, .min = min, .max = max, .integer = true};
}

constexpr std::string_view kProcesses[] = {"cfl", "protocol"};
constexpr ParamSpec kLinklenParams[] = {
    count_param("burn_in"), {.key = "process", .choices = kProcesses},
    count_param("snapshots", 1)};

constexpr std::string_view kProbeTargets[] = {"distance", "lrl"};
constexpr ParamSpec kProbingParams[] = {
    {.key = "targets", .choices = kProbeTargets}};

constexpr std::string_view kRoutingModels[] = {
    "stationary", "sssw", "lookahead", "kleinberg", "ring", "watts-strogatz",
    "chord"};
constexpr ParamSpec kRoutingParams[] = {
    {.key = "model", .choices = kRoutingModels}, count_param("pair_seed"),
    count_param("pairs", 1)};

constexpr ParamSpec kStormParams[] = {count_param("interval", 1)};

constexpr std::string_view kOverheadPhases[] = {"stable", "stabilizing"};
constexpr ParamSpec kOverheadParams[] = {
    {.key = "phase", .choices = kOverheadPhases}};

constexpr std::string_view kRobustnessModels[] = {"stationary", "kleinberg",
                                                  "chord"};
constexpr ParamSpec kRobustnessParams[] = {
    fraction_param("fail"), count_param("k", 1, 65),
    {.key = "model", .choices = kRobustnessModels}};

constexpr std::string_view kNavigabilityModels[] = {"ring1d", "torus2d", "cfl2d",
                                                    "lattice2d"};
constexpr ParamSpec kNavigabilityParams[] = {
    {.key = "alpha", .min = 0.0, .max = 16.0},
    {.key = "model", .choices = kNavigabilityModels}};

constexpr std::string_view kRecoveryModes[] = {"crash", "leave"};
constexpr ParamSpec kRecoveryParams[] = {
    fraction_param("crash"), fraction_param("loss"),
    {.key = "mode", .choices = kRecoveryModes}};

constexpr ParamSpec kServiceParams[] = {
    fraction_param("crash"),
    fraction_param("loss"),
    {.key = "rate", .min = 0.0, .max = 1e6},
    count_param("retries"),
    count_param("hedge"),
    count_param("detector", 0, 2),
    count_param("k", 1, 65)};

constexpr ParamSpec kLossParams[] = {fraction_param("loss")};

constexpr ExperimentDescriptor kExperiments[] = {
    {"e1-convergence",
     "Thms 4.9/4.18: O(n) rounds from any weakly connected state",
     /*uses_shape=*/true, /*uses_scheduler=*/true, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_convergence},
    {"e1b-phases",
     "§IV proof structure: CC → LCC → sorted list → ring → small world",
     /*uses_shape=*/true, /*uses_scheduler=*/true, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_phases},
    {"e1c-service-curve",
     "Greedy routing already succeeds while the network is still stabilizing",
     /*uses_shape=*/true, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_service_curve},
    {"e3-linklen",
     "Fact 4.21: lrl lengths follow the 1-harmonic CFL stationary law",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kLinklenParams, run_linklen},
    {"e4-probing",
     "Lemma 4.23: a probe reaches distance d in O(ln^{2+ε} d) hops",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kProbingParams, run_probing},
    {"e5-routing",
     "Thm 4.22: polylog greedy routing at constant degree",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kRoutingParams, run_routing},
    {"e6-churn",
     "§IV.G: O(log² n) expected recovery after a join or leave",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_churn},
    {"e7-churn-storm",
     "Thm 4.24 w.h.p. caveat: overlapping churn still quiesces to the ring",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kStormParams, run_storm},
    {"e7-leave-vs-crash",
     "A crash costs a leave's repair plus the detector's detection latency",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_leave_vs_crash},
    {"e8-overhead",
     "§IV.F: O(1) messages per node per round in the stable state",
     /*uses_shape=*/true, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kOverheadParams, run_overhead},
    {"e9-robustness",
     "§I: randomized small worlds stay connected and routable under failures",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kRobustnessParams, run_robustness},
    {"e10-forget",
     "§IV.E: lrl ages stay O(n) and follow the closed-form survival law",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_forget},
    {"e11-navigability",
     "Kleinberg: harmonic exponent α = dimension is the navigable one",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kNavigabilityParams, run_navigability},
    {"e13-faults",
     "Self-stabilization under duplication/delay/partition/replay adversaries",
     /*uses_shape=*/false, /*uses_scheduler=*/true, /*uses_fault=*/true,
     /*uses_ablation=*/true, {}, run_faults},
    {"e14-recovery",
     "Crash-stop recovery via the active probe/ack failure detector",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kRecoveryParams, run_recovery},
    {"e15-service",
     "Detector + retries restore ≥99% lookup success within the detection "
     "window",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kServiceParams, run_service},
    {"a1-linearization",
     "§I baseline: plain linearization (Onus et al.) from a random chain",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_linearization},
    {"a3-multilink",
     "Extension: k long-range links per node trade degree for hops",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_multilink},
    {"a4-message-loss",
     "Extension: convergence over lossy channels (the paper assumes none)",
     /*uses_shape=*/true, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kLossParams, run_message_loss},
    {"a5-fingers",
     "§I baseline: a self-stabilizing finger overlay from a random chain",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_fingers},
};

}  // namespace

std::span<const ExperimentDescriptor> all_experiments() { return kExperiments; }

const ExperimentDescriptor* find_experiment(std::string_view name) {
  for (const ExperimentDescriptor& experiment : kExperiments)
    if (experiment.name == name) return &experiment;
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> split_params(
    std::string_view params) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t start = 0;
  while (start < params.size()) {
    std::size_t end = params.find(';', start);
    if (end == std::string_view::npos) end = params.size();
    const std::string_view entry = params.substr(start, end - start);
    const std::size_t eq = entry.find('=');
    if (eq != std::string_view::npos)
      out.emplace_back(std::string(entry.substr(0, eq)),
                       std::string(entry.substr(eq + 1)));
    start = end + 1;
  }
  return out;
}

}  // namespace sssw::analysis
