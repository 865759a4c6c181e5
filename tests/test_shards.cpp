// Twin-run determinism across shard counts — the acceptance oracle for the
// sharded engine (DESIGN.md "Sharded deterministic execution").
//
// The contract under test: EngineConfig::shards is a pure wall-clock knob.
// Because every random decision is drawn from a per-process stream (derived
// from the trial seed and the process id) and cross-lane sends are merged
// at the round barrier in canonical sender-rank order, the trajectory is a
// function of (initial state, seed) only — shard count must not leak into
// a single bit of it.  Each test runs the same trial at shards ∈ {1, 2, 4,
// 8} and asserts the full trajectory digest matches the shards=1 baseline:
// round count, an FNV-1a fold of EngineCounters, and an FNV-1a fold of the
// final topology (every node's l/r/ring/lrl/age state in id order).  The
// trials also run with an obs::Registry attached, and its flattened
// contents must match too: counters fire from parallel lanes, so a metric
// that depended on the partition would show up here.
//
// The trials deliberately stack every nondeterminism source the engine
// owns: message loss, fault injection (duplication, delay, replay), the
// active probe/ack failure detector with its timers, and mid-run
// crash-stops.  If any of those drew from a shared stream, or if lane
// merge order depended on the partition, these digests would diverge.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fuzz.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "service/lookup_manager.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

constexpr sim::SchedulerKind kAllSchedulers[] = {
    sim::SchedulerKind::kSynchronous,
    sim::SchedulerKind::kRandomAsync,
    sim::SchedulerKind::kDelayedRandom,
    sim::SchedulerKind::kAdversarialLifo,
    sim::SchedulerKind::kAdversarialOldestLast,
};

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t counters_digest(const sim::EngineCounters& c) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = fnv1a(hash, c.rounds);
  hash = fnv1a(hash, c.actions);
  hash = fnv1a(hash, c.deliveries);
  hash = fnv1a(hash, c.dropped);
  hash = fnv1a(hash, c.lost);
  hash = fnv1a(hash, c.timers);
  hash = fnv1a(hash, c.faults.duplicated);
  hash = fnv1a(hash, c.faults.delayed);
  hash = fnv1a(hash, c.faults.replayed);
  hash = fnv1a(hash, c.faults.partition_dropped);
  for (const std::uint64_t sent : c.sent_by_type) hash = fnv1a(hash, sent);
  return hash;
}

/// Folds the complete observable node state in id order: any divergence in
/// any node's pointers, long-range links, ages, or forget count shows up
/// here even if the counter totals happen to collide.
std::uint64_t state_digest(const SmallWorldNetwork& net) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const sim::Id id : net.engine().id_span()) {
    const SmallWorldNode* node = net.node(id);
    if (node == nullptr) continue;
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(node->l()));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(node->r()));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(node->ring()));
    hash = fnv1a(hash, node->forget_count());
    for (const SmallWorldNode::LongRangeLink& link : node->lrls()) {
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(link.target));
      hash = fnv1a(hash, link.age);
    }
  }
  return hash;
}

/// Folds the lookup manager's lifetime totals — every issued attempt, retry,
/// hedge, success, and typed dead-letter.  The service plane routes through
/// whatever pointers each round's merge produced, so a shard-dependent merge
/// would surface here even if the structural digests happened to agree.
std::uint64_t lookup_digest(const service::LookupManager::Totals& t) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = fnv1a(hash, t.issued);
  hash = fnv1a(hash, t.attempts);
  hash = fnv1a(hash, t.retries);
  hash = fnv1a(hash, t.hedges);
  hash = fnv1a(hash, t.succeeded);
  hash = fnv1a(hash, t.failed);
  hash = fnv1a(hash, t.stale);
  hash = fnv1a(hash, t.deadletter_timeout);
  hash = fnv1a(hash, t.deadletter_no_progress);
  hash = fnv1a(hash, t.deadletter_target_dead);
  hash = fnv1a(hash, t.deadletter_ttl);
  hash = fnv1a(hash, t.hop_sum);
  hash = fnv1a(hash, t.latency_sum);
  return hash;
}

struct TrialDigest {
  std::uint64_t rounds = 0;
  std::uint64_t counters = 0;
  std::uint64_t state = 0;
  std::uint64_t lookups = 0;
  std::vector<std::pair<std::string, double>> metrics;  ///< obs::flatten

  bool operator==(const TrialDigest&) const = default;
};

/// One adversarial trial: 32 nodes from a random tree, loss + duplication +
/// delay + replay faults, the active detector, open-loop lookup load with
/// retries and hedging, two mid-run crash-stops, a registry attached.
TrialDigest run_trial(sim::SchedulerKind scheduler, std::size_t shards,
                      std::uint64_t seed) {
  NetworkOptions options;
  options.scheduler = scheduler;
  options.seed = seed;
  options.shards = shards;
  options.message_loss = 0.05;
  options.delivery_probability = 0.5;
  options.adversary_delay = 3;
  options.faults.duplicate_probability = 0.10;
  options.faults.delay_probability = 0.10;
  options.faults.max_delay_rounds = 3;
  options.faults.replay_probability = 0.05;
  options.faults.replay_history = 4;
  options.protocol.detector.enabled = true;

  util::Rng rng(seed);
  obs::Registry registry;  // outlives the network and manager bound to it
  SmallWorldNetwork net(options);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kRandomTree,
                                             random_ids(32, rng), rng));

  service::LookupConfig lookup_config;
  lookup_config.rate = 1.0;
  lookup_config.ttl = 24;
  lookup_config.timeout_rounds = 16;
  lookup_config.max_retries = 1;
  lookup_config.hedge_after = 8;
  lookup_config.seed = seed;
  service::LookupManager lookups(net, lookup_config);
  net.attach_metrics(registry);
  lookups.attach_metrics(registry);

  net.run_rounds(30);

  // Crash two deterministic picks (same for every shard count: the id list
  // is fixed at build time) so detector timers and quarantine are in play.
  const auto span = net.engine().id_span();
  const std::vector<sim::Id> victims{span[span.size() / 3],
                                     span[(2 * span.size()) / 3]};
  for (const sim::Id id : victims) net.crash(id);
  net.run_rounds(120);

  TrialDigest digest;
  digest.rounds = net.engine().round();
  digest.counters = counters_digest(net.engine().counters());
  digest.state = state_digest(net);
  digest.lookups = lookup_digest(lookups.totals());
  digest.metrics = obs::flatten(registry);
  return digest;
}

TEST(Shards, TwinRunsMatchAcrossShardCountsForEveryScheduler) {
  for (const sim::SchedulerKind scheduler : kAllSchedulers) {
    const TrialDigest baseline = run_trial(scheduler, 1, 20120521);
    for (const std::size_t shards : kShardCounts) {
      const TrialDigest twin = run_trial(scheduler, shards, 20120521);
      EXPECT_EQ(twin.rounds, baseline.rounds)
          << "scheduler " << static_cast<int>(scheduler) << " shards " << shards;
      EXPECT_EQ(twin.counters, baseline.counters)
          << "scheduler " << static_cast<int>(scheduler) << " shards " << shards;
      EXPECT_EQ(twin.state, baseline.state)
          << "scheduler " << static_cast<int>(scheduler) << " shards " << shards;
      EXPECT_EQ(twin.lookups, baseline.lookups)
          << "scheduler " << static_cast<int>(scheduler) << " shards " << shards;
      EXPECT_EQ(twin.metrics, baseline.metrics)
          << "scheduler " << static_cast<int>(scheduler) << " shards " << shards;
    }
  }
}

TEST(Shards, SeedStillSelectsTheTrajectory) {
  // Sanity for the oracle itself: the digests are not constants — a
  // different seed must produce a different trajectory at every shard
  // count, or the equalities above would be vacuous.
  const TrialDigest a = run_trial(sim::SchedulerKind::kSynchronous, 4, 20120521);
  const TrialDigest b = run_trial(sim::SchedulerKind::kSynchronous, 4, 424242);
  EXPECT_NE(a.state, b.state);
}

TEST(Shards, MoreShardsThanProcessesIsStillIdentical) {
  // Lane count clamps to the process count; a gross oversubscription must
  // degrade to the same trajectory, not crash or skew the partition.
  const TrialDigest baseline =
      run_trial(sim::SchedulerKind::kSynchronous, 1, 7);
  const TrialDigest oversub =
      run_trial(sim::SchedulerKind::kSynchronous, 64, 7);
  EXPECT_EQ(oversub, baseline);
}

TEST(Shards, CorpusReplaysIdenticallyAtFourShards) {
  // The committed fuzz corpus pins full verdicts (outcome, rounds, digest)
  // at shards=1.  Replaying every case at shards=4 must reproduce each
  // recorded verdict byte for byte — the cross-revision determinism pin
  // doubles as a cross-shard-count pin.
  const std::filesystem::path dir =
      std::filesystem::path(SSSW_SOURCE_DIR) / "tests" / "corpus";
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto repro = analysis::parse_repro(buffer.str());
    ASSERT_TRUE(repro.has_value()) << entry.path();
    repro->options.shards = 4;
    EXPECT_EQ(analysis::run_case(repro->c, repro->options), repro->expected)
        << entry.path();
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace sssw::core
