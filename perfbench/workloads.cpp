#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "reference.hpp"
#include "service/lookup_manager.hpp"
#include "timing.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sssw;

/// Between measured phases, extra set-ups run until set-ups have taken this
/// share of the elapsed run, so that their samples are spread over the run
/// like the measured phases; setup_s is their median.
constexpr double kSetupShare = 0.05;
/// Likewise, the reference kernel runs until it has taken this share.
constexpr double kReferenceShare = 0.05;
/// Interleaved attached/detached round pairs of the obs A/B (traced only).
constexpr std::size_t kObsPairs = 4;

struct Spec {
  /// Independent inputs per end-to-end run.  Time to a sorted ring is
  /// heavy-tailed in the seed: the sorted list forms in a steady number of
  /// rounds, but closing the ring sometimes takes several times longer.  A
  /// run therefore reports the median over many small instances (and pools
  /// lookup samples) rather than timing one large one.
  std::size_t instances = 1;
  std::size_t n = 0;
  bool from_chain = false;  ///< kRandomChain via add_nodes; else make_stable_ring
  std::size_t shards = 1;
  bool registry = false;
  std::uint32_t lrl_count = 1;
  bool detector = false;
  std::size_t burn_in = 0;
  double lookup_rate = 0.0;  ///< lookups per round; 0 = no LookupManager
  std::size_t warm_rounds = 0;
  double crash_frac = 0.0;
  /// After the crash step: rounds allowed for a sorted ring to form (0 = do
  /// not run to one), and the least number of rounds to run in any case.
  std::size_t ring_budget = 0;
  std::size_t post_rounds = 0;
};

Spec spec_for(const std::string& workload) {
  Spec spec;
  if (workload == "converge") {
    // The paper's self-stabilization run from maximal disorder.
    spec.instances = 128;
    spec.n = 1024;
    spec.from_chain = true;
    spec.ring_budget = 2000;
  } else if (workload == "steady_sharded") {
    // n = 10^5 at shards = 4: move-and-forget and probing on a formed ring.
    // A fixed round count, so the seed hardly changes the work.
    spec.instances = 3;
    spec.n = 100000;
    spec.shards = 4;
    spec.registry = true;
    spec.burn_in = 8;
    spec.warm_rounds = 16;
  } else if (workload == "lookup_crash") {
    // E15's settings (bench/bench_service.cpp) at four times its per-node
    // load, on a quarter of its nodes so that enough instances fit a run.
    // The measured window runs past the heal: stopping at the heal would
    // drop the lookups still being retried, which make up the tail.
    spec.instances = 10;
    spec.n = 256;
    spec.registry = true;
    spec.lrl_count = 8;
    spec.detector = true;
    spec.burn_in = 256;
    spec.lookup_rate = 4.0;
    spec.warm_rounds = 256;
    spec.crash_frac = 0.1;
    spec.ring_budget = 4096;
    spec.post_rounds = 512;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return spec;
}

/// One built network plus what hangs off it.  Members are destroyed in
/// reverse order: the manager before the network, the network before the
/// registry it reports into.
struct World {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<core::SmallWorldNetwork> net;
  std::unique_ptr<service::LookupManager> manager;
  double setup_s = 0.0;
  int hook_span = -1;  ///< open service.hook span between the two probe hooks
  std::vector<sim::Engine::HookId> probe_hooks;
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::vector<double> latencies;  ///< rounds, successful lookups only
};

std::unique_ptr<World> build(const Spec& spec, std::uint64_t seed,
                             std::size_t shards, Tracer& tracer) {
  auto world = std::make_unique<World>();
  const double start = wall_now();
  ScopedSpan setup(tracer, "setup");
  core::NetworkOptions options;
  options.seed = seed;
  options.shards = shards;
  options.protocol.lrl_count = spec.lrl_count;
  options.protocol.detector.enabled = spec.detector;

  util::Rng rng(seed);
  std::vector<sim::Id> ids;
  std::vector<core::NodeInit> inits;
  {
    ScopedSpan span(tracer, "topology.generate");
    ids = core::random_ids(spec.n, rng);
    if (spec.from_chain)
      inits = topology::make_initial_state(topology::InitialShape::kRandomChain,
                                           std::move(ids), rng);
  }
  {
    ScopedSpan span(tracer, "core.build");
    if (spec.from_chain) {
      world->net = std::make_unique<core::SmallWorldNetwork>(options);
      world->net->add_nodes(inits);
    } else {
      world->net = std::make_unique<core::SmallWorldNetwork>(
          core::make_stable_ring(std::move(ids), options));
    }
  }
  if (spec.registry) {
    world->registry = std::make_unique<obs::Registry>();
    world->net->attach_metrics(*world->registry);
  }
  {
    ScopedSpan span(tracer, "setup.burn_in");
    world->net->run_rounds(spec.burn_in);
  }

  // Round hooks fire in registration order, so the span between these two
  // probes is exactly the LookupManager's share of the sequential epilogue
  // (empty on workloads without one).
  sim::Engine& engine = world->net->engine();
  World* w = world.get();
  if (tracer.enabled())
    world->probe_hooks.push_back(engine.add_round_hook([w, &tracer](std::uint64_t) {
      w->hook_span = tracer.open("service.hook");
    }));
  if (spec.lookup_rate > 0) {
    ScopedSpan span(tracer, "service.construct");
    service::LookupConfig lookup;
    lookup.rate = spec.lookup_rate;
    lookup.ttl = 512;
    lookup.timeout_rounds = 192;
    lookup.seed = seed;
    world->manager = std::make_unique<service::LookupManager>(*world->net, lookup);
    if (world->registry) world->manager->attach_metrics(*world->registry);
    world->manager->set_completion_hook([w](const service::LookupCompletion& c) {
      ++w->completed;
      if (!c.ok) return;
      ++w->succeeded;
      w->latencies.push_back(static_cast<double>(c.latency_rounds));
    });
  }
  if (tracer.enabled())
    world->probe_hooks.push_back(engine.add_round_hook([w, &tracer](std::uint64_t) {
      tracer.close(w->hook_span);
      w->hook_span = -1;
    }));
  world->setup_s = wall_now() - start;
  return world;
}

constexpr const char* kDetectorCounters[] = {"probes", "suspects", "evictions",
                                             "rescues"};

std::uint64_t detector_count(const World& world, const char* what) {
  if (!world.registry) return 0;
  const obs::Counter* counter =
      world.registry->find_counter(std::string("node.detector.") + what);
  return counter ? counter->value() : 0;
}

/// Everything one measured phase produced.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  sim::EngineCounters counters;  ///< deltas over the measured phase
  std::uint64_t heal_rounds = 0; ///< rounds after the crash step
  std::uint64_t pending_peak = 0;
  service::LookupManager::Totals totals;
  std::uint64_t pending_end = 0;
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::vector<double> latencies;
  std::map<std::string, std::uint64_t> detector;
  std::vector<std::string> problems;
};

sim::EngineCounters delta(const sim::EngineCounters& end,
                          const sim::EngineCounters& start) {
  sim::EngineCounters d = end;
  d.rounds -= start.rounds;
  d.actions -= start.actions;
  d.deliveries -= start.deliveries;
  d.dropped -= start.dropped;
  d.lost -= start.lost;
  d.timers -= start.timers;
  for (std::size_t i = 0; i < d.sent_by_type.size(); ++i)
    d.sent_by_type[i] -= start.sent_by_type[i];
  return d;
}

/// The victims of the simultaneous crash: measure_slo's partial shuffle on
/// a dedicated stream, so the pick is a pure function of the seed.
std::vector<sim::Id> pick_victims(const core::SmallWorldNetwork& net,
                                  double frac, std::uint64_t seed) {
  if (frac <= 0) return {};
  std::vector<sim::Id> victims(net.engine().id_span().begin(),
                               net.engine().id_span().end());
  std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(frac * static_cast<double>(victims.size())));
  count = std::min(count, victims.size() - 2);
  util::Rng pick(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(victims[i], victims[i + pick.below(victims.size() - i)]);
  victims.resize(count);
  return victims;
}

Pass measure(World& world, const Spec& spec, std::uint64_t seed,
             const std::string& workload, Tracer& tracer) {
  core::SmallWorldNetwork& net = *world.net;
  Pass pass;
  const sim::EngineCounters before = net.engine().counters();
  std::map<std::string, std::uint64_t> detector_before;
  for (const char* what : kDetectorCounters)
    detector_before[what] = detector_count(world, what);

  auto round = [&] {
    {
      ScopedSpan span(tracer, "sim.round");
      net.run_rounds(1);
    }
    pass.pending_peak = std::max<std::uint64_t>(pass.pending_peak,
                                                net.engine().pending_messages());
  };
  auto ring = [&] {
    ScopedSpan span(tracer, "core.predicate");
    return net.sorted_ring();
  };

  const double wall0 = wall_now();
  const double cpu0 = process_cpu_now();
  {
    ScopedSpan span(tracer, "measure");
    for (std::size_t i = 0; i < spec.warm_rounds; ++i) round();
    const std::vector<sim::Id> victims = pick_victims(net, spec.crash_frac, seed);
    {
      ScopedSpan crash(tracer, "core.crash");
      for (const sim::Id victim : victims) net.crash(victim);
    }
    if (spec.ring_budget > 0) {
      // Rounds until the sorted ring holds, and at least post_rounds.
      bool healed = false;
      for (std::size_t r = 0;; ++r) {
        if (!healed && ring()) {
          healed = true;
          pass.heal_rounds = r;
        }
        if (healed && r >= spec.post_rounds) break;
        if (r == spec.ring_budget) {
          pass.problems.push_back(workload + ": no sorted ring within " +
                                  std::to_string(spec.ring_budget) + " rounds");
          break;
        }
        round();
      }
    }
  }
  pass.wall_s = wall_now() - wall0;
  pass.cpu_s = process_cpu_now() - cpu0;

  pass.counters = delta(net.engine().counters(), before);
  for (const char* what : kDetectorCounters)
    pass.detector[what] = detector_count(world, what) - detector_before[what];
  if (world.manager) {
    pass.totals = world.manager->totals();
    pass.pending_end = world.manager->pending();
  }
  pass.completed = world.completed;
  pass.succeeded = world.succeeded;
  pass.latencies = world.latencies;

  // Output checks: a check that does not hold fails the run.
  if (spec.crash_frac == 0 && !net.lrls_resolve())
    pass.problems.push_back(workload + ": long-range links do not resolve");
  if (spec.ring_budget == 0 && !ring())
    pass.problems.push_back(workload + ": ring not sorted after the last round");
  if (spec.lookup_rate > 0 && pass.completed == 0)
    pass.problems.push_back(workload + ": no lookup completed");
  return pass;
}

/// Rounds with the registry detached and attached, interleaved in pairs
/// whose order alternates, on an already measured network.
void obs_ab(World& world, Tracer& tracer) {
  core::SmallWorldNetwork& net = *world.net;
  for (const sim::Engine::HookId hook : world.probe_hooks)
    net.engine().remove_round_hook(hook);
  for (std::size_t pair = 0; pair < kObsPairs; ++pair) {
    for (int half = 0; half < 2; ++half) {
      const bool attached = (pair + static_cast<std::size_t>(half)) % 2 == 1;
      if (attached) net.attach_metrics(*world.registry);
      {
        ScopedSpan span(tracer, attached ? "obs.round_attached" : "obs.round_detached");
        net.run_rounds(1);
      }
      if (attached) net.detach_metrics();
    }
  }
  net.attach_metrics(*world.registry);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// measure_slo's exact percentile: the ceil(q * N)-th smallest sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  idx = std::min(idx > 0 ? idx - 1 : 0, values.size() - 1);
  return values[idx];
}

/// The highest percentile with at least ten samples beyond it: the
/// (N - 10)-th smallest of N samples (the largest when N <= 10).
struct Tail {
  double value = 0.0;
  double pct = 100.0;
};
Tail tail_percentile(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) return {values.back(), 100.0};
  return {values[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// Span durations (s) by name, and each name's self time: a span's
/// duration minus the part its child spans cover.
struct Layer {
  std::vector<double> durations;
  double self = 0.0;
};
std::map<std::string, Layer> layers(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& span : spans)
    if (span.parent >= 0)
      child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Layer& layer = out[spans[i].name];
    const double duration = spans[i].end - spans[i].start;
    layer.durations.push_back(duration);
    layer.self += duration - child[i];
  }
  return out;
}

double total(const std::map<std::string, Layer>& by_name, const std::string& name) {
  const auto it = by_name.find(name);
  if (it == by_name.end()) return 0.0;
  double sum = 0.0;
  for (const double d : it->second.durations) sum += d;
  return sum;
}

std::vector<double> durations(const std::map<std::string, Layer>& by_name,
                              const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? std::vector<double>{} : it->second.durations;
}

/// The exact counts a traced run must reproduce from the untraced one.
std::string count_digest(const Pass& pass) {
  std::ostringstream out;
  out << "actions=" << pass.counters.actions << " rounds=" << pass.heal_rounds
      << " sent=" << pass.counters.total_sent() << " issued=" << pass.totals.issued
      << " attempts=" << pass.totals.attempts << " succeeded=" << pass.totals.succeeded
      << " failed=" << pass.totals.failed << " retries=" << pass.totals.retries
      << " stale=" << pass.totals.stale << " latency_sum=" << pass.totals.latency_sum;
  return out.str();
}

void add(std::vector<Metric>& metrics, const std::string& name, double value,
         const char* unit) {
  metrics.push_back({name, value, unit});
}

std::string fmt(double value, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

/// The seed of instance `i` of a run: the run's own seed first, then seeds
/// derived as util::derive_stream keys them, so that runs with nearby seeds
/// share no instance.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
  return util::splitmix64(state);
}

Outcome end_to_end(const std::string& workload, const Spec& spec,
                   const RunOptions& options) {
  Outcome outcome;
  outcome.shards = spec.shards;
  Tracer off(false);

  // Each instance is measured once; while time remains the instances are
  // measured again, in turn, and must reproduce their exact counts.
  struct Instance {
    std::uint64_t seed = 0;
    Pass pass;
    std::vector<double> walls;
  };
  std::vector<Instance> instances(spec.instances);
  for (std::size_t i = 0; i < spec.instances; ++i)
    instances[i].seed = instance_seed(options.seed, i);
  std::vector<double> setups;
  double setup_total = 0.0;
  auto setup = [&](std::size_t i) {
    std::unique_ptr<World> world = build(spec, instances[i].seed, spec.shards, off);
    setups.push_back(world->setup_s);
    setup_total += world->setup_s;
    return world;
  };
  std::vector<double> references;
  double reference_total = 0.0;
  // Wall and CPU time and engine actions summed over every measured phase.
  double phase_wall = 0.0, phase_cpu = 0.0, phase_actions = 0.0;
  double first_peak_rss_mb = 0.0;
  const double start = wall_now();
  for (std::size_t i = 0; i < spec.instances || wall_now() - start < options.seconds; ++i) {
    Instance& instance = instances[i % spec.instances];
    std::unique_ptr<World> world = setup(i % spec.instances);
    Pass pass = measure(*world, spec, instance.seed, workload, off);
    world.reset();
    if (i == 0) first_peak_rss_mb = peak_rss_mb();
    if (i < spec.instances) {
      instance.pass = pass;
    } else if (count_digest(pass) != count_digest(instance.pass)) {
      outcome.problems.push_back(workload + ": a repeated instance changed its counts");
    }
    instance.walls.push_back(pass.wall_s);
    phase_wall += pass.wall_s;
    phase_cpu += pass.cpu_s;
    phase_actions += static_cast<double>(pass.counters.actions);
    for (std::size_t j = i; setup_total < kSetupShare * (wall_now() - start); ++j)
      setup(j % spec.instances);
    while (references.empty() || reference_total < kReferenceShare * (wall_now() - start)) {
      references.push_back(run_reference());
      reference_total += references.back();
    }
  }

  std::vector<double> walls, actions, latencies, rounds, p99s, p999s;
  std::uint64_t completed = 0, succeeded = 0, measured = 0;
  for (const Instance& instance : instances) {
    const Pass& pass = instance.pass;
    walls.push_back(median(instance.walls));
    actions.push_back(static_cast<double>(pass.counters.actions));
    rounds.push_back(static_cast<double>(pass.heal_rounds));
    measured += instance.walls.size();
    completed += pass.completed;
    succeeded += pass.succeeded;
    latencies.insert(latencies.end(), pass.latencies.begin(), pass.latencies.end());
    p99s.push_back(percentile(pass.latencies, 0.99));
    p999s.push_back(percentile(pass.latencies, 0.999));
    for (const auto& problem : pass.problems) outcome.problems.push_back(problem);
    // One operation per instance; it fails if its output checks fail.
    // Dead-lettered lookups are expected under a crash and show in
    // lookup_success instead.
    outcome.attempted += 1;
    outcome.failed += pass.problems.empty() ? 0 : 1;
  }
  // Timings are pooled over the whole run, and time to solution is that of
  // the median instance's work at the pooled time per action.  The host's
  // speed drifts over seconds; a median over instances measured one after
  // another would follow whichever speed held for most of them, while the
  // pooled figures weigh every part of the run alike.  All timings are then
  // scaled to the reference speed (reference.hpp), which takes out most of
  // the drift from one minute to the next.
  const double host_scale = kReferenceNominalS * static_cast<double>(references.size()) /
                            reference_total;
  const double wall_per_action = phase_wall / phase_actions;
  const double cpu_per_action = phase_cpu / phase_actions;
  const double median_actions = median(actions);
  std::ostringstream report;
  report << workload << ": " << spec.instances << " instances of n=" << spec.n << ", "
         << measured << " measured phases (" << fmt(phase_wall) << " s), " << setups.size()
         << " setups (" << fmt(setup_total) << " s)\n"
         << "  per instance: wall_s min " << fmt(*std::min_element(walls.begin(), walls.end()))
         << " median " << fmt(median(walls)) << " max "
         << fmt(*std::max_element(walls.begin(), walls.end())) << "; actions min "
         << *std::min_element(actions.begin(), actions.end()) << " median " << median_actions
         << " max " << *std::max_element(actions.begin(), actions.end()) << "; core.rounds min "
         << *std::min_element(rounds.begin(), rounds.end()) << " median " << median(rounds)
         << " max " << *std::max_element(rounds.begin(), rounds.end()) << "\n"
         << "  first instance (seed " << instances.front().seed
         << "): " << count_digest(instances.front().pass) << "\n"
         << "  host: reference kernel " << fmt(1e3 * reference_total /
                                                static_cast<double>(references.size()))
         << " ms mean over " << references.size() << " runs (reference speed "
         << fmt(1e3 * kReferenceNominalS, 1) << " ms), timings scaled by "
         << fmt(host_scale) << "; unscaled setup_s " << fmt(median(setups), 6) << ", wall_s "
         << fmt(median_actions * wall_per_action, 6) << ", actions_per_s "
         << fmt(1.0 / wall_per_action, 0);
  add(outcome.metrics, "setup_s", host_scale * median(setups), "s");
  add(outcome.metrics, "wall_s", host_scale * median_actions * wall_per_action, "s");
  add(outcome.metrics, "cpu_s", host_scale * median_actions * cpu_per_action, "s");
  add(outcome.metrics, "actions_per_s", 1.0 / (host_scale * wall_per_action), "1/s");
  // The peak after the first instance: later instances reuse the freed
  // heap, and the rare one with a long ring-closure tail would otherwise set
  // the whole run's figure.
  add(outcome.metrics, "peak_rss_mb", first_peak_rss_mb, "MB");
  // Workloads without lookups report the neutral value 1: every end-to-end
  // metric must exist, and be non-zero, on every workload.
  const bool has_lookups = spec.lookup_rate > 0;
  add(outcome.metrics, "lookup_success",
      !has_lookups ? 1.0
      : completed  ? static_cast<double>(succeeded) / static_cast<double>(completed)
                   : 0.0,
      "ratio");
  add(outcome.metrics, "lookup_p50_rounds", has_lookups ? percentile(latencies, 0.50) : 1.0,
      "rounds");
  add(outcome.metrics, "lookup_p99_rounds", has_lookups ? median(p99s) : 1.0, "rounds");
  if (has_lookups) {
    // p99.9 swings between the second- and third-attempt clusters with the
    // seed, so it is reported here rather than gated on.
    const Tail tail = tail_percentile(latencies);
    report << "\n  lookups: " << completed << " completed, " << latencies.size()
           << " successful latency samples pooled over " << spec.instances
           << " instances; pooled p99 " << percentile(latencies, 0.99) << ", p99.9 "
           << percentile(latencies, 0.999) << ", p" << fmt(tail.pct, 3) << " "
           << tail.value << " rounds (10 samples beyond); per instance p99 min "
           << *std::min_element(p99s.begin(), p99s.end()) << " median " << median(p99s)
           << " max " << *std::max_element(p99s.begin(), p99s.end()) << ", p99.9 min "
           << *std::min_element(p999s.begin(), p999s.end()) << " median " << median(p999s)
           << " max " << *std::max_element(p999s.begin(), p999s.end());
  }
  outcome.report = report.str();
  return outcome;
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const Tracer*>>& runs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const auto& [run, tracer] : runs) {
    const auto& spans = tracer->spans();
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << "{\"run\":\"" << run << "\",\"id\":" << i << ",\"parent\":"
          << spans[i].parent << ",\"name\":\"" << spans[i].name
          << "\",\"start_s\":" << fmt(spans[i].start - origin, 9)
          << ",\"end_s\":" << fmt(spans[i].end - origin, 9) << "}\n";
    }
  }
}

Outcome traced(const std::string& workload, const Spec& spec,
               const RunOptions& options) {
  Outcome outcome;
  outcome.shards = spec.shards;

  Tracer off(false);
  Pass untraced;
  {
    std::unique_ptr<World> world = build(spec, options.seed, spec.shards, off);
    untraced = measure(*world, spec, options.seed, workload, off);
  }

  Tracer tracer(true);
  Pass pass;
  {
    std::unique_ptr<World> world = build(spec, options.seed, spec.shards, tracer);
    pass = measure(*world, spec, options.seed, workload, tracer);
    if (spec.shards > 1 && world->registry) obs_ab(*world, tracer);
  }

  // The A/B variant: the same workload on one lane.
  Tracer one_lane(true);
  if (spec.shards > 1) {
    std::unique_ptr<World> world = build(spec, options.seed, 1, one_lane);
    measure(*world, spec, options.seed, workload, one_lane);
  }

  outcome.problems = pass.problems;
  if (count_digest(pass) != count_digest(untraced))
    outcome.problems.push_back(workload + ": traced counts {" + count_digest(pass) +
                               "} differ from untraced {" + count_digest(untraced) + "}");

  const auto by_name = layers(tracer);
  const std::vector<double> rounds = durations(by_name, "sim.round");
  const double round_p50 = median(rounds);
  const Tail tail = tail_percentile(rounds);
  const double lane_speedup =
      spec.shards > 1 ? median(durations(layers(one_lane), "sim.round")) / round_p50 : 1.0;
  const double obs_overhead =
      spec.shards > 1 && spec.registry
          ? median(durations(by_name, "obs.round_attached")) /
                median(durations(by_name, "obs.round_detached"))
          : 1.0;

  std::vector<Metric>& m = outcome.metrics;
  add(m, "sim.round_ms_p50", 1e3 * round_p50, "ms");
  add(m, "sim.round_ms_pmax10", 1e3 * tail.value, "ms");
  const sim::EngineCounters& c = pass.counters;
  add(m, "sim.actions", static_cast<double>(c.actions), "count");
  add(m, "sim.deliveries", static_cast<double>(c.deliveries), "count");
  add(m, "sim.sent", static_cast<double>(c.total_sent()), "count");
  add(m, "sim.lost", static_cast<double>(c.lost), "count");
  add(m, "sim.dropped", static_cast<double>(c.dropped), "count");
  add(m, "sim.timers", static_cast<double>(c.timers), "count");
  for (sim::MessageType type = 0; type < core::kNumMsgTypes; ++type)
    add(m, std::string("sim.sent.") + core::msg_type_name(type),
        static_cast<double>(c.sent_by_type[type]), "count");
  add(m, "sim.pending_peak", static_cast<double>(pass.pending_peak), "count");
  add(m, "sim.lane_speedup", lane_speedup, "ratio");
  add(m, "util.cpu_per_wall", pass.cpu_s / pass.wall_s, "ratio");
  add(m, "core.rounds", static_cast<double>(pass.heal_rounds), "rounds");
  add(m, "core.predicate_us_p50", 1e6 * median(durations(by_name, "core.predicate")), "us");
  add(m, "core.crash_ms", 1e3 * total(by_name, "core.crash"), "ms");
  for (const char* what : kDetectorCounters)
    add(m, std::string("core.detector.") + what,
        static_cast<double>(pass.detector[what]), "count");
  add(m, "service.hook_ms_total", 1e3 * total(by_name, "service.hook"), "ms");
  add(m, "service.hook_ms_p50", 1e3 * median(durations(by_name, "service.hook")), "ms");
  const auto& t = pass.totals;
  add(m, "service.issued", static_cast<double>(t.issued), "count");
  add(m, "service.attempts", static_cast<double>(t.attempts), "count");
  add(m, "service.retries", static_cast<double>(t.retries), "count");
  add(m, "service.stale", static_cast<double>(t.stale), "count");
  add(m, "service.failed", static_cast<double>(t.failed), "count");
  add(m, "service.pending_end", static_cast<double>(pass.pending_end), "count");
  add(m, "service.deadletter.timeout", static_cast<double>(t.deadletter_timeout), "count");
  add(m, "service.deadletter.no_progress",
      static_cast<double>(t.deadletter_no_progress), "count");
  add(m, "service.deadletter.target_dead",
      static_cast<double>(t.deadletter_target_dead), "count");
  add(m, "service.deadletter.ttl", static_cast<double>(t.deadletter_ttl), "count");
  add(m, "service.attempts_per_success",
      t.succeeded ? static_cast<double>(t.attempts) / static_cast<double>(t.succeeded) : 0.0,
      "ratio");
  add(m, "service.latency_samples", static_cast<double>(pass.latencies.size()), "count");
  add(m, "obs.attached_overhead", obs_overhead, "ratio");
  add(m, "topology.generate_ms", 1e3 * total(by_name, "topology.generate"), "ms");
  add(m, "core.build_ms", 1e3 * total(by_name, "core.build"), "ms");
  add(m, "setup.burn_in_s", total(by_name, "setup.burn_in"), "s");
  add(m, "trace.overhead", pass.wall_s / untraced.wall_s, "ratio");
  // The host's speed while the layers were timed (reference.hpp).
  std::vector<double> references;
  for (int i = 0; i < 11; ++i) references.push_back(run_reference());
  add(m, "host.reference_ms", 1e3 * median(references), "ms");

  outcome.attempted = 1;
  outcome.failed = pass.problems.empty() ? 0 : 1;

  // The layer table: every span name with its count, total and self time.
  std::ostringstream report;
  report << "== " << workload << " (seed " << options.seed << ", shards "
         << spec.shards << ") traced wall " << fmt(pass.wall_s) << " s, untraced "
         << fmt(untraced.wall_s) << " s; cpu/wall traced " << fmt(pass.cpu_s / pass.wall_s)
         << ", untraced " << fmt(untraced.cpu_s / untraced.wall_s) << "\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-22s %8s %12s %12s %8s\n", "span", "count",
                "total_ms", "self_ms", "self_%");
  report << line;
  const double measured = total(by_name, "measure") + total(by_name, "setup");
  for (const auto& [name, layer] : by_name) {
    double sum = 0.0;
    for (const double d : layer.durations) sum += d;
    std::snprintf(line, sizeof line, "%-22s %8zu %12.3f %12.3f %8.2f\n", name.c_str(),
                  layer.durations.size(), 1e3 * sum, 1e3 * layer.self,
                  measured > 0 ? 100.0 * layer.self / measured : 0.0);
    report << line;
  }
  report << "sim.round p50 " << fmt(1e3 * round_p50) << " ms, p" << fmt(tail.pct, 1)
         << " " << fmt(1e3 * tail.value) << " ms over " << rounds.size()
         << " rounds; lane_speedup " << fmt(lane_speedup) << "; obs.attached_overhead "
         << fmt(obs_overhead) << "; trace.overhead " << fmt(pass.wall_s / untraced.wall_s)
         << "; service share of wall "
         << fmt(total(by_name, "service.hook") / pass.wall_s) << "; host reference kernel "
         << fmt(1e3 * median(references)) << " ms (reference speed "
         << fmt(1e3 * kReferenceNominalS, 1) << " ms)\n";
  report << "counts: " << count_digest(pass);
  outcome.report = report.str();

  if (!options.spans_path.empty())
    write_spans(options.spans_path, {{"traced", &tracer}, {"one_lane", &one_lane}});
  return outcome;
}

}  // namespace

Outcome run_workload(const RunOptions& options) {
  const Spec spec = spec_for(options.workload);
  Outcome outcome = options.trace ? traced(options.workload, spec, options)
                                  : end_to_end(options.workload, spec, options);
  outcome.correct = outcome.problems.empty();
  return outcome;
}

}  // namespace perfbench
