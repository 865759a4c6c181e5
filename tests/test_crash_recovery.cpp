// Tests for the active failure detector (core/detector) and crash recovery:
// the detector's unit-level state machine, the baseline wedge that motivates
// it, crash-healing scenarios (scattered, adjacent and repeated crashes,
// dead lrl endpoints, an epidemic of the dead id), the headline property —
// 10% of nodes crashing mid-stabilization under 5% message loss re-converges
// to the sorted ring over survivors on every scheduler, deterministically —
// and the bit-identical-baseline contract with the detector off.
#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using sim::Id;

// --- FailureDetector unit tests --------------------------------------------

DetectorConfig small_config() {
  DetectorConfig d;
  d.enabled = true;
  d.probe_period = 4;
  d.suspect_threshold = 2;
  d.max_retries = 1;
  d.quarantine_rounds = 20;
  d.quarantine_capacity = 2;
  return d;
}

/// One tick against a single watched pointer (role l); the other roles idle.
void tick_one(FailureDetector& det, std::uint64_t now, Id target) {
  const Id pointers[] = {target, sim::kPosInf, 0.5, 0.5};
  det.tick(now, pointers);
}

TEST(FailureDetector, SilenceEscalatesToSuspicionRetriesAndEviction) {
  FailureDetector det(0.5, small_config(), 1);
  // Ticks 1..2: healthy probes, the second crosses suspect_threshold = 2.
  tick_one(det, 4, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].retry);
  EXPECT_FALSE(det.probes()[0].suspect);
  EXPECT_FALSE(det.is_suspect(0.3));
  tick_one(det, 8, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_TRUE(det.probes()[0].suspect);
  EXPECT_TRUE(det.is_suspect(0.3));
  // Tick 3: the single backoff retry (cooldown 2 ticks follows).
  tick_one(det, 12, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_TRUE(det.probes()[0].retry);
  EXPECT_TRUE(det.evictions().empty());
  // Ticks 4..5: cooldown, no traffic.
  tick_one(det, 16, 0.3);
  tick_one(det, 20, 0.3);
  EXPECT_TRUE(det.probes().empty());
  EXPECT_TRUE(det.evictions().empty());
  // Tick 6: retries exhausted — evict and quarantine.
  tick_one(det, 24, 0.3);
  ASSERT_EQ(det.evictions().size(), 1u);
  EXPECT_EQ(det.evictions()[0].role, FailureDetector::kRoleL);
  EXPECT_DOUBLE_EQ(det.evictions()[0].target, 0.3);
  EXPECT_TRUE(det.is_quarantined(0.3, 24));
  EXPECT_TRUE(det.is_quarantined(0.3, 43));
  EXPECT_FALSE(det.is_quarantined(0.3, 44));  // expiry = 24 + 20
  EXPECT_FALSE(det.is_suspect(0.3));          // monitor reset after eviction
}

TEST(FailureDetector, PongResetsCountersAndCachesTheView) {
  FailureDetector det(0.5, small_config(), 1);
  tick_one(det, 4, 0.3);
  det.on_pong(0.3, 0.2, 0.4);
  tick_one(det, 8, 0.3);  // the pong forgave the first miss
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].suspect);
  // Silence from here: suspicion at tick 3, retry at 4, cooldown 5..6,
  // eviction at tick 7 — carrying the cached view for the re-link.
  for (std::uint64_t now = 12; det.evictions().empty(); now += 4) {
    ASSERT_LE(now, 60u) << "eviction never happened";
    tick_one(det, now, 0.3);
  }
  EXPECT_DOUBLE_EQ(det.evictions()[0].via_l, 0.2);
  EXPECT_DOUBLE_EQ(det.evictions()[0].via_r, 0.4);
}

TEST(FailureDetector, PointerChangeRewatchesFromScratch) {
  FailureDetector det(0.5, small_config(), 1);
  tick_one(det, 4, 0.3);
  tick_one(det, 8, 0.3);  // 0.3 now suspected
  EXPECT_TRUE(det.is_suspect(0.3));
  tick_one(det, 12, 0.2);  // the protocol moved l: fresh monitor, no carryover
  EXPECT_FALSE(det.is_suspect(0.2));
  EXPECT_FALSE(det.is_suspect(0.3));
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].suspect);
}

TEST(FailureDetector, QuarantineIsBoundedFifoWithRefresh) {
  DetectorConfig d = small_config();  // capacity 2
  d.quarantine_rounds = 1000;         // keep entries alive across the test
  FailureDetector det(0.5, d, 1);
  const auto evict = [&](Id target, std::uint64_t start) {
    std::uint64_t now = start;
    do {
      tick_one(det, now, target);
      now += 4;
    } while (det.evictions().empty());
    return now - 4;  // the tick that evicted
  };
  const std::uint64_t t1 = evict(0.1, 0);
  EXPECT_TRUE(det.is_quarantined(0.1, t1));
  const std::uint64_t t2 = evict(0.2, t1 + 4);
  EXPECT_EQ(det.quarantined_count(t2), 2u);
  const std::uint64_t t3 = evict(0.3, t2 + 4);
  // Capacity 2: the oldest entry (0.1) was forgotten to admit 0.3.
  EXPECT_FALSE(det.is_quarantined(0.1, t3));
  EXPECT_TRUE(det.is_quarantined(0.2, t3));
  EXPECT_TRUE(det.is_quarantined(0.3, t3));
  EXPECT_EQ(det.quarantined_count(t3), 2u);
}

TEST(FailureDetector, QuarantineExpiresAfterQuarantineRounds) {
  DetectorConfig d = small_config();
  d.quarantine_rounds = 37;  // not a multiple of probe_period
  FailureDetector det(0.5, d, 1);
  std::uint64_t now = 4;
  for (; det.evictions().empty(); now += 4) {
    ASSERT_LE(now, 60u) << "eviction never happened";
    tick_one(det, now, 0.3);
  }
  const std::uint64_t evicted = now - 4;
  EXPECT_TRUE(det.is_quarantined(0.3, evicted + d.quarantine_rounds - 1));
  EXPECT_EQ(det.quarantined_count(evicted + d.quarantine_rounds - 1), 1u);
  EXPECT_FALSE(det.is_quarantined(0.3, evicted + d.quarantine_rounds));
  EXPECT_EQ(det.quarantined_count(evicted + d.quarantine_rounds), 0u);
}

// --- the baseline wedge (regression satellite) -----------------------------

TEST(CrashRecovery, CrashWithoutDetectorWedgesTheSortedList) {
  // The state ISSUE 5 exists to repair: a crash-stop failure with no
  // detector leaves the dead id wedged in its neighbours' pointers — the
  // survivors never form the sorted list again, exactly as Network::crash
  // documents.  If this test ever fails, the baseline protocol learned to
  // heal crashes and the detector's premise should be re-examined.
  util::Rng rng(20120521);
  auto ids = random_ids(16, rng);
  SmallWorldNetwork net = make_stable_ring(ids);
  const auto sorted = [&ids]() {
    std::vector<Id> s = ids;
    std::sort(s.begin(), s.end());
    return s;
  }();
  const Id dead = sorted[7];
  const Id pred = sorted[6];
  const Id succ = sorted[8];
  net.run_rounds(8);
  ASSERT_TRUE(net.crash(dead));
  EXPECT_FALSE(net.run_until_sorted_list(4000).has_value());
  // The stale-pointer state the detector must repair: both neighbours still
  // point at the dead identifier thousands of rounds later.
  EXPECT_DOUBLE_EQ(net.node(pred)->r(), dead);
  EXPECT_DOUBLE_EQ(net.node(succ)->l(), dead);
}

// --- the headline property -------------------------------------------------

struct CrashRun {
  std::uint64_t rounds = 0;
  sim::EngineCounters counters;
  bool healed = false;
};

/// Crashes 10% of n nodes mid-stabilization under 5% message loss with the
/// detector on, runs to the sorted ring over survivors, and returns the full
/// counter state for twin-run comparison.
CrashRun run_crash_scenario(sim::SchedulerKind scheduler, std::uint64_t seed) {
  const std::size_t n = 20;
  util::Rng rng(seed);
  auto ids = random_ids(n, rng);
  NetworkOptions options;
  options.scheduler = scheduler;
  options.seed = seed;
  options.message_loss = 0.05;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(std::move(ids), options);
  net.run_rounds(24);  // move-and-forget and the probe clock are mid-flight
  // Crash 10% deterministically (a dedicated stream, not the engine's).
  util::Rng pick(seed ^ 0xabcdef);
  const auto live_span = net.engine().id_span();
  std::vector<sim::Id> live(live_span.begin(), live_span.end());
  for (std::size_t i = 0; i < n / 10; ++i) {
    const std::size_t j = i + pick.below(live.size() - i);
    std::swap(live[i], live[j]);
    EXPECT_TRUE(net.crash(live[i]));
  }

  CrashRun result;
  result.healed = net.run_until_sorted_ring(30000).has_value();
  result.rounds = net.engine().round();
  result.counters = net.engine().counters();
  return result;
}

TEST(CrashRecovery, TenPercentCrashFivePercentLossHealsOnEveryScheduler) {
  for (const sim::SchedulerKind scheduler : sim::kAllSchedulers) {
    CrashRun run = run_crash_scenario(scheduler, 99);
    EXPECT_TRUE(run.healed) << "scheduler " << sim::to_string(scheduler);
  }
}

TEST(CrashRecovery, TwinRunsAreBitIdenticalPerSeed) {
  for (const sim::SchedulerKind scheduler : sim::kAllSchedulers) {
    const CrashRun a = run_crash_scenario(scheduler, 7);
    const CrashRun b = run_crash_scenario(scheduler, 7);
    EXPECT_EQ(a.healed, b.healed) << sim::to_string(scheduler);
    EXPECT_EQ(a.rounds, b.rounds) << sim::to_string(scheduler);
    EXPECT_EQ(a.counters.actions, b.counters.actions);
    EXPECT_EQ(a.counters.deliveries, b.counters.deliveries);
    EXPECT_EQ(a.counters.dropped, b.counters.dropped);
    EXPECT_EQ(a.counters.lost, b.counters.lost);
    EXPECT_EQ(a.counters.timers, b.counters.timers);
    EXPECT_EQ(a.counters.sent_by_type, b.counters.sent_by_type);
    // A different seed is a different trajectory (the loss and crash picks
    // actually bite) — guards against the scenario degenerating to a no-op.
    const CrashRun c = run_crash_scenario(scheduler, 8);
    EXPECT_NE(a.counters.sent_by_type, c.counters.sent_by_type)
        << sim::to_string(scheduler);
  }
}

// --- accuracy: no false suspicion in healthy runs --------------------------

TEST(CrashRecovery, NoFalseSuspicionOnDeterministicSchedulers) {
  // suspect_threshold × probe_period = 12 rounds of silence before
  // suspicion, against a worst deterministic round-trip of 8 rounds
  // (adversarial-oldest-last at default hold 3): a live neighbour can never
  // look dead.  Random schedulers are excluded — an unlucky interleaving
  // can starve a single message arbitrarily long, and the detector is
  // *designed* to tolerate that via quarantine expiry, not avoid it.
  for (const sim::SchedulerKind scheduler :
       {sim::SchedulerKind::kSynchronous, sim::SchedulerKind::kAdversarialLifo,
        sim::SchedulerKind::kAdversarialOldestLast}) {
    util::Rng rng(5);
    NetworkOptions options;
    options.scheduler = scheduler;
    options.seed = 5;
    options.protocol.detector.enabled = true;
    SmallWorldNetwork net = make_stable_ring(random_ids(16, rng), options);
    obs::Registry registry;
    net.attach_metrics(registry);
    net.run_rounds(600);
    EXPECT_EQ(registry.counter("node.detector.suspects").value(), 0u)
        << sim::to_string(scheduler);
    EXPECT_EQ(registry.counter("node.detector.evictions").value(), 0u)
        << sim::to_string(scheduler);
    EXPECT_GT(registry.counter("node.detector.probes").value(), 0u);
    EXPECT_GT(registry.counter("node.detector.pongs").value(), 0u);
  }
}

// --- quarantine stops re-adoption ------------------------------------------

TEST(CrashRecovery, QuarantineBlocksStaleReintroduction) {
  // After the detector evicts a crashed id, a stale lin announcement (the
  // classic re-infection vector: it linearizes the dead id straight back
  // into l/r) must bounce off the quarantine.
  util::Rng rng(11);
  auto ids = random_ids(8, rng);
  NetworkOptions options;
  options.seed = 11;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(ids, options);
  std::sort(ids.begin(), ids.end());
  const Id dead = ids[3];
  const Id witness = ids[2];
  net.run_rounds(12);
  ASSERT_TRUE(net.crash(dead));
  // Run until the witness's eviction has applied (r moved off the dead id) —
  // the quarantine clock starts there, so the injected replay lands well
  // inside the 64-round default window.
  ASSERT_TRUE(net.engine().run_until(
      [&] { return net.node(witness)->r() != dead; }, 4000));
  net.engine().inject(witness, sim::Message{kLin, dead});
  net.run_rounds(4);
  EXPECT_NE(net.node(witness)->r(), dead);
}

// --- crash healing scenarios ----------------------------------------------

SmallWorldNetwork detector_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  NetworkOptions options;
  options.seed = seed;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(random_ids(n, rng), options);
  net.run_rounds(4 * n);  // spread lrls; also proves live links survive
  return net;
}

TEST(FailureDetector, StableRingSurvivesWithDetectorOn) {
  // The detector must never evict a live link: pongs answer every probe,
  // so a long run leaves the ring intact.
  SmallWorldNetwork net = detector_network(32, 1);
  EXPECT_TRUE(net.sorted_ring());
  net.run_rounds(200);
  EXPECT_TRUE(net.sorted_ring());
}

TEST(FailureDetector, CrashWithDetectorHeals) {
  SmallWorldNetwork net = detector_network(32, 3);
  const auto ids = net.engine().id_span();
  ASSERT_TRUE(net.crash(ids[10]));
  const auto rounds = net.run_until_sorted_ring(20000);
  ASSERT_TRUE(rounds.has_value());
  // Healing time ≈ detection latency + polylog repair, far below O(n) rounds.
  EXPECT_LT(*rounds, 500u);
  EXPECT_EQ(net.size(), 31u);
}

TEST(FailureDetector, CrashOfMaxHeals) {
  SmallWorldNetwork net = detector_network(24, 4);
  const auto ids = net.engine().id_span();
  ASSERT_TRUE(net.crash(ids.back()));
  ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value());
  const auto survivors = net.engine().id_span();
  EXPECT_DOUBLE_EQ(net.node(survivors.front())->ring(), survivors.back());
  EXPECT_DOUBLE_EQ(net.node(survivors.back())->ring(), survivors.front());
}

TEST(FailureDetector, MultipleSimultaneousCrashesHeal) {
  SmallWorldNetwork net = detector_network(48, 5);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  // Crash three scattered, non-adjacent nodes at once.
  ASSERT_TRUE(net.crash(ids[5]));
  ASSERT_TRUE(net.crash(ids[20]));
  ASSERT_TRUE(net.crash(ids[35]));
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_EQ(net.size(), 45u);
}

TEST(FailureDetector, AdjacentCrashesHeal) {
  // A whole segment of the ring disappears: the survivors' pointers all
  // dangle into the hole.
  SmallWorldNetwork net = detector_network(32, 6);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  ASSERT_TRUE(net.crash(ids[10]));
  ASSERT_TRUE(net.crash(ids[11]));
  ASSERT_TRUE(net.crash(ids[12]));
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_DOUBLE_EQ(net.node(ids[9])->r(), ids[13]);
}

TEST(FailureDetector, LrlPointingAtCrashedNodeRecovers) {
  SmallWorldNetwork net = detector_network(24, 7);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  // Force several lrls onto the victim, then crash it.
  net.node(ids[2])->set_lrl(ids[15]);
  net.node(ids[20])->set_lrl(ids[15]);
  ASSERT_TRUE(net.crash(ids[15]));
  ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value());
  // The dead endpoints were evicted; the links move again afterwards.
  net.run_rounds(50);
  EXPECT_NE(net.node(ids[2])->lrl(), ids[15]);
  EXPECT_NE(net.node(ids[20])->lrl(), ids[15]);
}

TEST(FailureDetector, ConvergenceFromScratchStillWorks) {
  // The detector must not prevent ordinary stabilization: pointers that are
  // merely not-yet-reciprocated may be evicted and re-learned, but the
  // computation still reaches the ring.
  util::Rng rng(8);
  NetworkOptions options;
  options.seed = 8;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net(options);
  auto ids = random_ids(48, rng);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kRandomChain,
                                             std::move(ids), rng));
  EXPECT_TRUE(net.run_until_sorted_ring(40000).has_value());
}

TEST(FailureDetector, CrashEpidemicIsContained) {
  // A crashed node's id circulates epidemically (reslrl candidates → lrl
  // adoptions → probes → stalled-probe linearize) and would re-poison the
  // gap faster than per-pointer evictions cull it.  With quarantine, a
  // crash plus a full lrl scramble heals.
  SmallWorldNetwork net = detector_network(40, 11);
  util::Rng rng(11);
  const auto ids = net.engine().id_span();
  const Id victim = ids[ids.size() / 2];
  // Point several lrls at the victim, then crash it mid-activity.
  for (int i = 0; i < 8; ++i)
    net.node(ids[rng.below(ids.size())])->set_lrl(victim);
  ASSERT_TRUE(net.crash(victim));
  net.run_rounds(3);  // let the dead id spread a little
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  net.run_rounds(100);
  EXPECT_TRUE(net.run_until_sorted_ring(2000).has_value());
}

TEST(FailureDetector, ChurnStormOfCrashesHeals) {
  SmallWorldNetwork net = detector_network(48, 9);
  util::Rng rng(9);
  for (int wave = 0; wave < 4; ++wave) {
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.crash(ids[rng.below(ids.size())]));
    net.run_rounds(16);  // next crash before full recovery
  }
  EXPECT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_EQ(net.size(), 44u);
}

// --- detector-off baseline stays silent ------------------------------------

TEST(CrashRecovery, DisabledDetectorSendsNothingAndArmsNoTimer) {
  util::Rng rng(3);
  SmallWorldNetwork net = make_stable_ring(random_ids(12, rng));
  net.run_rounds(200);
  EXPECT_EQ(net.engine().counters().timers, 0u);
  EXPECT_EQ(net.engine().pending_timers(), 0u);
  EXPECT_EQ(net.engine().counters().sent_by_type[kPing], 0u);
  EXPECT_EQ(net.engine().counters().sent_by_type[kPong], 0u);
}

}  // namespace
}  // namespace sssw::core
