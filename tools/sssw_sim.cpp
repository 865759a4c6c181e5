// sssw_sim — a scriptable command-line simulator for the protocol.
//
//   ./sssw_sim [--n 32] [--seed 7] [--shape random-chain] [--script file]
//
// Reads commands from --script (or stdin); one command per line, `#` starts
// a comment.  Useful for reproducing states interactively, teaching, and
// bug reports (pairs with the snapshot format).
//
// Commands:
//   step [N]            run N rounds (default 1)
//   until-ring [MAX]    run until Def. 4.17 holds (default budget 100000)
//   join ID CONTACT     join a new node knowing one contact
//   leave ID            fail-stop leave (with neighbour detection)
//   crash ID            crash-stop (heals only with --failure-detector)
//   inject TO TYPE ID1 [ID2]   put a message into TO's channel
//   status              one-line phase/size/round/message summary
//   nodes               dump every node's (l, r, lrl, ring, age)
//   probe FROM TO       walk a probe and report hops/result
//   route FROM TO       greedy-route over CP and report hops
//   save FILE / load FILE      snapshot round-trip
//   dot FILE            write the CP view as Graphviz
//   quit
//
// With --metrics FILE the run also streams the observability registry to
// FILE as JSONL, one snapshot every --metrics-every rounds plus a final one
// at exit (doc/OBSERVABILITY.md documents the schema); with
// --failure-detector on, the detector.* counters flow into the same stream.
// --crash-frac F --crash-round R crash-stops a random F of the nodes once
// `step`/`until-ring` reach round R (same id-pick recipe as sssw_fuzz).
// --lookup-rate R attaches the in-band lookup service (doc/SERVICE.md):
// open-loop greedy lookups ride every round alongside stabilization, with
// --lookup-ttl / --lookup-timeout / --lookup-retries / --lookup-hedge
// shaping the retry policy; totals print at exit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "core/snapshot.hpp"
#include "core/views.hpp"
#include "graph/dot.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "routing/greedy.hpp"
#include "routing/probe_path.hpp"
#include "service/lookup_manager.hpp"
#include "topology/initial_states.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace sssw;

namespace {

sim::Id parse_id(const std::string& text) {
  if (text == "-inf") return sim::kNegInf;
  if (text == "inf") return sim::kPosInf;
  return std::stod(text);
}

sim::MessageType parse_type(const std::string& text) {
  for (sim::MessageType t = 0; t < core::kNumMsgTypes; ++t)
    if (text == core::msg_type_name(t)) return t;
  return static_cast<sim::MessageType>(std::stoi(text));
}

/// Snaps an arbitrary identifier to the nearest live node (so `route 0.1
/// 0.9` works without knowing exact ids).
sim::Id nearest_node(const core::SmallWorldNetwork& net, sim::Id id) {
  const auto ids = net.engine().id_span();
  sim::Id best = ids.front();
  for (const sim::Id candidate : ids)
    if (std::abs(candidate - id) < std::abs(best - id)) best = candidate;
  return best;
}

void cmd_status(const core::SmallWorldNetwork& net) {
  std::printf("round %llu | %zu nodes | phase %s | %zu msgs in flight | %llu sent\n",
              static_cast<unsigned long long>(net.engine().round()), net.size(),
              core::to_string(net.phase()), net.engine().pending_messages(),
              static_cast<unsigned long long>(net.engine().counters().total_sent()));
}

void cmd_nodes(const core::SmallWorldNetwork& net) {
  util::Table table({"id", "l", "r", "lrl", "ring", "age"});
  auto fmt = [](sim::Id id) {
    if (id == sim::kNegInf) return std::string("-inf");
    if (id == sim::kPosInf) return std::string("inf");
    return util::format_double(id, 4);
  };
  for (const sim::Id id : net.engine().id_span()) {
    const auto* node = net.node(id);
    table.row().add(fmt(id)).add(fmt(node->l())).add(fmt(node->r()))
        .add(fmt(node->lrl())).add(fmt(node->ring()))
        .add(static_cast<std::uint64_t>(node->age()));
  }
  std::fputs(table.to_string().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n = 32;
  std::int64_t seed = 7;
  std::string shape_name = "random-chain";
  std::string scheduler_name = "synchronous";
  double delivery_prob = 0.5;
  double fault_duplicate = 0.0;
  double fault_delay = 0.0;
  std::int64_t fault_delay_max = 3;
  std::int64_t fault_partition_start = 0;
  std::int64_t fault_partition_rounds = 0;
  double fault_partition_pivot = 0.5;
  double fault_replay = 0.0;
  std::int64_t fault_replay_history = 16;
  std::int64_t adversary_delay = 3;
  bool failure_detector = false;
  std::int64_t probe_period = 4;
  std::int64_t suspect_threshold = 4;
  double message_loss = 0.0;
  double crash_frac = 0.0;
  std::int64_t crash_round = 0;
  double lookup_rate = 0.0;
  std::int64_t lookup_ttl = 256;
  std::int64_t lookup_timeout = 128;
  std::int64_t lookup_retries = 2;
  std::int64_t lookup_hedge = 0;
  std::int64_t shards = 1;
  std::string script;
  std::string metrics_path;
  std::int64_t metrics_every = 100;
  util::Cli cli("sssw interactive simulator");
  cli.flag("n", "number of nodes", &n);
  cli.flag("seed", "random seed", &seed);
  cli.flag("shape", "initial topology shape", &shape_name);
  cli.flag("scheduler",
           "synchronous | random-async | adversarial-lifo | delayed-random | "
           "adversarial-oldest-last",
           &scheduler_name);
  cli.flag("delivery-prob",
           "delayed-random only: per-round delivery probability, in (0,1]",
           &delivery_prob);
  cli.flag("fault-duplicate", "per-message duplication probability, in [0,1)",
           &fault_duplicate);
  cli.flag("fault-delay", "per-message extra-delay probability, in [0,1)",
           &fault_delay);
  cli.flag("fault-delay-max", "max extra rounds a delayed message is held",
           &fault_delay_max);
  cli.flag("fault-partition-start", "round the transient partition opens",
           &fault_partition_start);
  cli.flag("fault-partition-rounds", "partition duration in rounds (0 = off)",
           &fault_partition_rounds);
  cli.flag("fault-partition-pivot", "id-space split point of the partition",
           &fault_partition_pivot);
  cli.flag("fault-replay", "per-message stale-replay probability, in [0,1)",
           &fault_replay);
  cli.flag("fault-replay-history", "messages remembered for replay",
           &fault_replay_history);
  cli.flag("adversary-delay",
           "adversarial-oldest-last only: rounds every message is held",
           &adversary_delay);
  cli.flag("failure-detector",
           "enable the active probe/ack failure detector (doc/FAULTS.md)",
           &failure_detector);
  cli.flag("probe-period", "detector: rounds between probe ticks",
           &probe_period);
  cli.flag("suspect-threshold", "detector: missed acks before suspicion",
           &suspect_threshold);
  cli.flag("shards",
           "worker lanes per round (pure wall-clock knob: the trajectory is "
           "bit-identical for every value >= 1)",
           &shards);
  cli.flag("message-loss", "per-message drop probability, in [0,1)",
           &message_loss);
  cli.flag("crash-frac",
           "fraction of nodes to crash at --crash-round, in [0,1)",
           &crash_frac);
  cli.flag("crash-round",
           "round at which --crash-frac of the nodes crash (0 = never)",
           &crash_round);
  cli.flag("lookup-rate",
           "in-band lookup service (doc/SERVICE.md): mean lookups issued per "
           "round (0 = service off)",
           &lookup_rate);
  cli.flag("lookup-ttl", "lookup service: per-attempt hop budget", &lookup_ttl);
  cli.flag("lookup-timeout",
           "lookup service: rounds before an attempt times out",
           &lookup_timeout);
  cli.flag("lookup-retries",
           "lookup service: re-issues after a timeout or miss", &lookup_retries);
  cli.flag("lookup-hedge",
           "lookup service: rounds before a duplicate attempt is hedged "
           "(0 = no hedging)",
           &lookup_hedge);
  cli.flag("script", "read commands from this file instead of stdin", &script);
  cli.flag("metrics", "stream the metrics registry to this JSONL file", &metrics_path);
  cli.flag("metrics-every", "rounds between metric snapshots", &metrics_every);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (metrics_every <= 0) {
    std::fprintf(stderr, "--metrics-every must be positive\n");
    return 1;
  }
  if (!(delivery_prob > 0.0 && delivery_prob <= 1.0)) {
    std::fprintf(stderr, "--delivery-prob must lie in (0, 1]\n");
    return 1;
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be at least 1\n");
    return 1;
  }

  topology::InitialShape shape = topology::InitialShape::kRandomChain;
  for (const auto candidate : topology::kAllShapes)
    if (shape_name == topology::to_string(candidate)) shape = candidate;

  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  bool scheduler_known = false;
  for (const auto candidate : sim::kAllSchedulers) {
    if (scheduler_name == sim::to_string(candidate)) {
      scheduler = candidate;
      scheduler_known = true;
    }
  }
  if (!scheduler_known) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", scheduler_name.c_str());
    return 1;
  }

  sim::FaultPlan faults;
  faults.duplicate_probability = fault_duplicate;
  faults.delay_probability = fault_delay;
  faults.max_delay_rounds = static_cast<std::uint32_t>(fault_delay_max);
  faults.partition_start = static_cast<std::uint64_t>(fault_partition_start);
  faults.partition_rounds = static_cast<std::uint64_t>(fault_partition_rounds);
  faults.partition_pivot = fault_partition_pivot;
  faults.replay_probability = fault_replay;
  faults.replay_history = static_cast<std::size_t>(fault_replay_history);
  if (fault_duplicate < 0 || fault_duplicate >= 1 || fault_delay < 0 ||
      fault_delay >= 1 || fault_replay < 0 || fault_replay >= 1 ||
      fault_delay_max < 0 || fault_partition_start < 0 ||
      fault_partition_rounds < 0 || fault_replay_history < 0 ||
      adversary_delay < 1) {
    std::fprintf(stderr,
                 "fault probabilities must lie in [0,1), counts must be "
                 "non-negative, --adversary-delay must be positive\n");
    return 1;
  }
  if (message_loss < 0 || message_loss >= 1 || crash_frac < 0 ||
      crash_frac >= 1 || crash_round < 0 || probe_period < 1 ||
      suspect_threshold < 1) {
    std::fprintf(stderr,
                 "--message-loss and --crash-frac must lie in [0,1), "
                 "--crash-round must be non-negative, --probe-period and "
                 "--suspect-threshold must be positive\n");
    return 1;
  }
  if (lookup_rate < 0 || lookup_ttl < 1 || lookup_timeout < 1 ||
      lookup_retries < 0 || lookup_hedge < 0) {
    std::fprintf(stderr,
                 "--lookup-rate must be non-negative, --lookup-ttl and "
                 "--lookup-timeout positive, --lookup-retries and "
                 "--lookup-hedge non-negative\n");
    return 1;
  }

  util::Rng rng(static_cast<std::uint64_t>(seed));
  core::NetworkOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.scheduler = scheduler;
  options.delivery_probability = delivery_prob;
  options.faults = faults;
  options.adversary_delay = static_cast<std::uint32_t>(adversary_delay);
  options.message_loss = message_loss;
  options.shards = static_cast<std::size_t>(shards);
  options.protocol.detector.enabled = failure_detector;
  options.protocol.detector.probe_period =
      static_cast<std::uint32_t>(probe_period);
  options.protocol.detector.suspect_threshold =
      static_cast<std::uint32_t>(suspect_threshold);
  core::SmallWorldNetwork net(options);
  net.add_nodes(topology::make_initial_state(
      shape, core::random_ids(static_cast<std::size_t>(n), rng), rng));

  // Scheduled crash: once the engine reaches --crash-round, crash-stop a
  // random --crash-frac of the nodes (same id-pick recipe the fuzzer uses,
  // so a fuzz case reproduces here with the same seed).
  bool crash_pending = crash_frac > 0 && crash_round > 0;
  const auto maybe_crash = [&]() {
    if (!crash_pending ||
        net.engine().round() < static_cast<std::uint64_t>(crash_round))
      return;
    crash_pending = false;
    util::Rng crash_rng(static_cast<std::uint64_t>(seed) ^
                        0x9e3779b97f4a7c15ull);
    std::vector<sim::Id> pool(net.engine().id_span().begin(),
                              net.engine().id_span().end());
    if (pool.size() < 3) return;
    std::size_t count = static_cast<std::size_t>(
        crash_frac * static_cast<double>(pool.size()));
    count = std::max<std::size_t>(1, std::min(count, pool.size() - 2));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + crash_rng.below(pool.size() - i);
      std::swap(pool[i], pool[j]);
      net.crash(pool[i]);
      std::printf("crashed %.6f at round %llu\n", pool[i],
                  static_cast<unsigned long long>(net.engine().round()));
    }
  };
  const auto step_rounds = [&](std::size_t rounds) {
    while (rounds > 0) {
      maybe_crash();
      std::size_t chunk = rounds;
      if (crash_pending) {
        const std::uint64_t now = net.engine().round();
        if (static_cast<std::uint64_t>(crash_round) > now)
          chunk = std::min<std::size_t>(
              rounds, static_cast<std::size_t>(
                          static_cast<std::uint64_t>(crash_round) - now));
      }
      net.run_rounds(chunk);
      rounds -= chunk;
    }
    maybe_crash();
  };

  // Optional in-band lookup load (doc/SERVICE.md).  The manager hooks the
  // engine's round loop, so it must be torn down before `load` replaces the
  // network (the hook would dangle into the dead engine) and re-attached to
  // the restored one.
  std::optional<service::LookupManager> lookups;
  service::LookupManager::Totals lookup_totals{};
  service::LookupConfig lookup_config;
  lookup_config.rate = lookup_rate;
  lookup_config.ttl = static_cast<std::uint32_t>(lookup_ttl);
  lookup_config.timeout_rounds = static_cast<std::uint32_t>(lookup_timeout);
  lookup_config.max_retries = static_cast<std::uint32_t>(lookup_retries);
  lookup_config.hedge_after = static_cast<std::uint32_t>(lookup_hedge);
  lookup_config.seed = static_cast<std::uint64_t>(seed);
  obs::Registry registry;
  std::optional<obs::Snapshotter> snapshotter;
  const auto wire_lookups = [&](core::SmallWorldNetwork& target) {
    if (lookup_rate <= 0.0) return;
    lookups.emplace(target, lookup_config);
    if (snapshotter.has_value()) lookups->attach_metrics(registry);
  };
  const auto drop_lookups = [&] {
    if (!lookups.has_value()) return;
    const auto t = lookups->totals();
    lookup_totals.issued += t.issued;
    lookup_totals.succeeded += t.succeeded;
    lookup_totals.failed += t.failed;
    lookup_totals.retries += t.retries;
    lookup_totals.hedges += t.hedges;
    lookups.reset();
  };
  wire_lookups(net);

  // Optional observability stream: the registry + snapshotter declared
  // above outlive the network (load replaces it), so everything is
  // re-wired after every swap.
  const auto wire_metrics = [&](core::SmallWorldNetwork& target) {
    if (!snapshotter.has_value()) return;
    target.attach_metrics(registry);
    target.engine().add_round_hook(
        [&snapshotter](std::uint64_t round) { snapshotter->poll(round); });
  };
  if (!metrics_path.empty()) {
    snapshotter.emplace(registry, metrics_path,
                        static_cast<std::uint64_t>(metrics_every));
    if (!snapshotter->ok()) {
      std::fprintf(stderr, "cannot open metrics file '%s'\n", metrics_path.c_str());
      return 1;
    }
    wire_metrics(net);
    if (lookups.has_value()) lookups->attach_metrics(registry);
  }
  cmd_status(net);

  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "cannot open script '%s'\n", script.c_str());
      return 1;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;
  const bool interactive = script.empty();

  std::string line;
  if (interactive) std::printf("> ");
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string cmd;
    if (!(words >> cmd)) {
      if (interactive) std::printf("> ");
      continue;
    }
    try {
      if (cmd == "quit" || cmd == "exit") {
        break;
      } else if (cmd == "step") {
        std::size_t rounds = 1;
        words >> rounds;
        step_rounds(rounds);
        cmd_status(net);
      } else if (cmd == "until-ring") {
        std::size_t budget = 100000;
        words >> budget;
        if (crash_pending) {
          const std::uint64_t now = net.engine().round();
          if (static_cast<std::uint64_t>(crash_round) > now)
            step_rounds(static_cast<std::size_t>(
                static_cast<std::uint64_t>(crash_round) - now));
          maybe_crash();
        }
        const auto rounds = net.run_until_sorted_ring(budget);
        if (rounds.has_value()) {
          std::printf("ring after %llu rounds\n",
                      static_cast<unsigned long long>(*rounds));
        } else {
          std::printf("no ring within %zu rounds (phase %s)\n", budget,
                      core::to_string(net.phase()));
        }
      } else if (cmd == "join") {
        std::string id, contact;
        words >> id >> contact;
        std::printf("%s\n", net.join(parse_id(id), parse_id(contact)) ? "ok" : "refused");
      } else if (cmd == "leave") {
        std::string id;
        words >> id;
        std::printf("%s\n", net.leave(parse_id(id)) ? "ok" : "no such node");
      } else if (cmd == "crash") {
        std::string id;
        words >> id;
        std::printf("%s\n", net.crash(parse_id(id)) ? "ok" : "no such node");
      } else if (cmd == "inject") {
        std::string to, type, id1, id2;
        words >> to >> type >> id1;
        sim::Message message{parse_type(type), parse_id(id1)};
        if (words >> id2) message.id2 = parse_id(id2);
        std::printf("%s\n",
                    net.engine().inject(parse_id(to), message) ? "ok" : "no such node");
      } else if (cmd == "status") {
        cmd_status(net);
      } else if (cmd == "nodes") {
        cmd_nodes(net);
      } else if (cmd == "probe" || cmd == "route") {
        std::string from, to;
        words >> from >> to;
        if (net.size() == 0) {
          std::printf("network is empty\n");
          if (interactive) std::printf("> ");
          continue;
        }
        const sim::Id from_id = nearest_node(net, parse_id(from));
        const sim::Id to_id = nearest_node(net, parse_id(to));
        if (cmd == "probe") {
          const auto result = routing::probe_walk(net, from_id, to_id, 16 * net.size());
          std::printf("probe: %s after %zu hops (stopped at %.4f)\n",
                      result.reached ? "reached" : (result.repaired ? "repaired" : "dropped"),
                      result.hops, result.stopped_at);
        } else {
          const core::IdIndex index = net.make_index();
          const auto graph = core::view_cp(net.engine(), index);
          const auto result =
              routing::greedy_route(graph, index.vertex_of(from_id),
                                    index.vertex_of(to_id), net.size());
          std::printf("route: %s after %zu hops\n",
                      result.success ? "delivered" : "stuck", result.hops);
        }
      } else if (cmd == "save" || cmd == "load" || cmd == "dot") {
        std::string path;
        words >> path;
        if (cmd == "save") {
          std::ofstream out(path);
          out << core::to_text(core::take_snapshot(net));
          std::printf("saved %zu nodes to %s\n", net.size(), path.c_str());
        } else if (cmd == "load") {
          std::ifstream snap_in(path);
          std::stringstream buffer;
          buffer << snap_in.rdbuf();
          drop_lookups();  // hooks into the engine being replaced
          net = core::restore_snapshot(core::from_text(buffer.str()), options);
          wire_metrics(net);  // the old engine (and its hooks) are gone
          wire_lookups(net);
          cmd_status(net);
        } else {
          const core::IdIndex index = net.make_index();
          graph::DotOptions dot_options;
          dot_options.circo = true;
          std::ofstream out(path);
          out << graph::to_dot(core::view_cp(net.engine(), index), dot_options);
          std::printf("wrote %s\n", path.c_str());
        }
      } else {
        std::printf("unknown command '%s'\n", cmd.c_str());
      }
    } catch (const std::exception& error) {
      std::printf("error: %s\n", error.what());
    }
    if (interactive) std::printf("> ");
  }
  drop_lookups();
  if (lookup_rate > 0.0) {
    std::printf(
        "lookups: %llu issued, %llu ok, %llu failed, %llu retries, "
        "%llu hedges\n",
        static_cast<unsigned long long>(lookup_totals.issued),
        static_cast<unsigned long long>(lookup_totals.succeeded),
        static_cast<unsigned long long>(lookup_totals.failed),
        static_cast<unsigned long long>(lookup_totals.retries),
        static_cast<unsigned long long>(lookup_totals.hedges));
  }
  if (snapshotter.has_value()) snapshotter->write(net.engine().round());
  return 0;
}
