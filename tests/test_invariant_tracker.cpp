// Property tests for core::InvariantTracker: the incremental fast path must
// agree with the recomputed invariants.hpp oracles after EVERY round — over
// every scheduler, every initial shape, an active fault plan, protocol-level
// state scrambling, and a join/leave/crash/snapshot-restore sequence — and
// tracked run_until round counts must be bit-identical to oracle-driven
// twins (the ISSUE 4 acceptance criterion).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/network.hpp"
#include "core/snapshot.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using topology::InitialShape;

/// Asserts every tracked predicate against its recompute oracle, plus the
/// tracker's internal counters via verify_against (which SSSW_CHECK-aborts
/// on divergence, so a failure here points straight at the broken hook).
void expect_tracker_matches_oracle(const SmallWorldNetwork& net) {
  net.tracker().verify_against(net.engine());
  EXPECT_EQ(net.tracker().sorted_list(), is_sorted_list(net.engine()));
  EXPECT_EQ(net.tracker().sorted_ring(), is_sorted_ring(net.engine()));
  EXPECT_EQ(net.tracker().lrls_resolve(), lrls_resolve(net.engine()));
}

struct Case {
  InitialShape shape;
  sim::SchedulerKind scheduler;
  std::uint64_t seed;
  bool faults;
};

class TrackerProperty : public ::testing::TestWithParam<Case> {
 protected:
  static SmallWorldNetwork build(std::size_t n) {
    const Case& c = GetParam();
    util::Rng rng(c.seed);
    auto ids = random_ids(n, rng);
    NetworkOptions options;
    options.scheduler = c.scheduler;
    options.seed = c.seed;
    options.verify_tracker = true;  // every phase()/sorted_*() self-checks
    if (c.faults) {
      options.faults.duplicate_probability = 0.2;
      options.faults.delay_probability = 0.2;
      options.faults.max_delay_rounds = 3;
      options.faults.replay_probability = 0.1;
      options.faults.replay_history = 8;
    }
    SmallWorldNetwork net(options);
    net.add_nodes(topology::make_initial_state(c.shape, std::move(ids), rng));
    return net;
  }
};

TEST_P(TrackerProperty, MatchesOracleAfterEveryRound) {
  const std::size_t n = 12;
  SmallWorldNetwork net = build(n);
  expect_tracker_matches_oracle(net);
  // Faulted runs converge slower; either way the per-round agreement is the
  // property — convergence itself is ConvergenceProperty's job.
  const std::size_t budget = 400 * n + 4000;
  for (std::size_t round = 0; round < budget; ++round) {
    net.run_rounds(1);
    expect_tracker_matches_oracle(net);
    ASSERT_EQ(net.phase(), detect_phase(net.engine())) << "round " << round;
    if (net.sorted_ring() && net.tracker().all_forgot()) break;
    if (::testing::Test::HasFailure()) break;
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const InitialShape shape : topology::kAllShapes) {
    for (const sim::SchedulerKind scheduler : sim::kAllSchedulers)
      cases.push_back({shape, scheduler, 7, false});
    cases.push_back({shape, sim::SchedulerKind::kSynchronous, 11, true});
    cases.push_back({shape, sim::SchedulerKind::kRandomAsync, 13, true});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = topology::to_string(info.param.shape);
  name += "_";
  name += sim::to_string(info.param.scheduler);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  name += "_s" + std::to_string(info.param.seed);
  if (info.param.faults) name += "_faulted";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllShapesAndSchedulers, TrackerProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

// --- churn and snapshot restore re-seed only what they must ----------------

TEST(InvariantTracker, JoinLeaveCrashSnapshotSequenceStaysExact) {
  util::Rng rng(42);
  NetworkOptions options;
  options.seed = 42;
  options.verify_tracker = true;
  options.protocol.detector.enabled = true;  // crash recovery needs the detector
  SmallWorldNetwork net = make_stable_ring(random_ids(24, rng), options);
  expect_tracker_matches_oracle(net);

  util::Rng churn(4242);
  for (int event = 0; event < 30; ++event) {
    const auto ids = net.engine().id_span();
    const int kind = static_cast<int>(churn.below(4));
    if (kind == 0 || net.size() < 6) {
      sim::Id fresh;
      do {
        fresh = churn.uniform();
      } while (fresh == 0.0 || net.engine().contains(fresh));
      const sim::Id contact = ids[churn.below(ids.size())];
      ASSERT_TRUE(net.join(fresh, contact));
    } else if (kind == 1) {
      const sim::Id victim = ids[churn.below(ids.size())];
      ASSERT_TRUE(net.leave(victim));
    } else if (kind == 2) {
      const sim::Id victim = ids[churn.below(ids.size())];
      ASSERT_TRUE(net.crash(victim));
    } else {
      net.run_rounds(3);
    }
    expect_tracker_matches_oracle(net);
    net.run_rounds(1);
    expect_tracker_matches_oracle(net);
    if (::testing::Test::HasFailure()) return;
  }

  // Round-trip through a snapshot: the restored network re-seeds its own
  // tracker through add_node and must agree with the oracle immediately and
  // after running.
  const Snapshot snap = take_snapshot(net, /*include_channels=*/true);
  SmallWorldNetwork restored = restore_snapshot(snap, options);
  expect_tracker_matches_oracle(restored);
  restored.run_rounds(50);
  expect_tracker_matches_oracle(restored);
}

TEST(InvariantTracker, CrashRecoveryWithActiveDetectorStaysExact) {
  // The active detector's evictions mutate pointers from inside on_timer
  // (purge + re-link through the dead node's last pong view) — a write path
  // no other test drives.  The tracker must stay exact through the crash,
  // the detection window, every eviction and the re-convergence.
  util::Rng rng(20120521);
  NetworkOptions options;
  options.seed = 20120521;
  options.verify_tracker = true;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(random_ids(20, rng), options);
  expect_tracker_matches_oracle(net);

  // Let probe timers arm and a few detector cycles run while healthy.
  net.run_rounds(12);
  expect_tracker_matches_oracle(net);

  const auto ids = net.engine().id_span();
  ASSERT_TRUE(net.crash(ids[5]));
  ASSERT_TRUE(net.crash(ids[13]));
  expect_tracker_matches_oracle(net);

  const std::size_t budget = 400 * net.size() + 4000;
  for (std::size_t round = 0; round < budget; ++round) {
    net.run_rounds(1);
    expect_tracker_matches_oracle(net);
    if (net.sorted_ring()) break;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(net.sorted_ring());
}

TEST(InvariantTracker, TestMutatorsKeepTrackerExact) {
  // The fault-injection tests scramble state through set_l/set_r/set_lrl
  // and reset_lrls_matching; those mutators must feed the tracker exactly
  // like protocol writes do.
  util::Rng rng(7);
  NetworkOptions options;
  options.verify_tracker = true;
  SmallWorldNetwork net = make_stable_ring(random_ids(16, rng), options);
  const std::vector<sim::Id> ids(net.engine().id_span().begin(),
                                 net.engine().id_span().end());
  for (const sim::Id id : ids) {
    SmallWorldNode* node = net.node(id);
    node->set_lrl(ids[rng.below(ids.size())]);
    if (rng.bernoulli(0.3)) node->set_l(sim::kNegInf);
    if (rng.bernoulli(0.3)) node->set_r(ids[ids.size() - 1]);
    if (rng.bernoulli(0.3)) node->reset_lrls_matching(ids[rng.below(ids.size())]);
    expect_tracker_matches_oracle(net);
  }
  EXPECT_TRUE(net.run_until_sorted_ring(5000).has_value());
  expect_tracker_matches_oracle(net);
}

// --- bit-identical round counts vs the recompute path ----------------------

TEST(InvariantTracker, RunUntilRoundCountsMatchOracleDrivenTwin) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    NetworkOptions options;
    options.seed = seed;
    SmallWorldNetwork tracked(options);
    SmallWorldNetwork oracle(options);
    tracked.add_nodes(topology::make_initial_state(
        InitialShape::kRandomChain, random_ids(20, rng_a), rng_a));
    oracle.add_nodes(topology::make_initial_state(
        InitialShape::kRandomChain, random_ids(20, rng_b), rng_b));

    // Twin A converges via the tracked predicate, twin B by recomputing the
    // invariant from scratch each round.  Identical seeds ⇒ identical
    // trajectories ⇒ the round counts and counter digests must agree bit
    // for bit (the tracker observes, it never participates).
    const std::size_t budget = 400 * 20 + 4000;
    const auto tracked_rounds = tracked.run_until_sorted_list(budget);
    const std::uint64_t start = oracle.engine().round();
    ASSERT_TRUE(oracle.engine().run_until(
        [&] { return is_sorted_list(oracle.engine()); }, budget));
    const std::uint64_t oracle_rounds = oracle.engine().round() - start;

    ASSERT_TRUE(tracked_rounds.has_value());
    EXPECT_EQ(*tracked_rounds, oracle_rounds) << "seed " << seed;
    EXPECT_EQ(tracked.engine().counters().actions,
              oracle.engine().counters().actions);
    EXPECT_EQ(tracked.engine().counters().total_sent(),
              oracle.engine().counters().total_sent());
    EXPECT_EQ(tracked.engine().counters().deliveries,
              oracle.engine().counters().deliveries);
  }
}

TEST(InvariantTracker, RunUntilSmallWorldMatchesLegacyOracleTwin) {
  for (const std::uint64_t seed : {5u, 6u}) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    NetworkOptions options;
    options.seed = seed;
    SmallWorldNetwork tracked(options);
    SmallWorldNetwork legacy(options);
    tracked.add_nodes(topology::make_initial_state(
        InitialShape::kRandomChain, random_ids(12, rng_a), rng_a));
    legacy.add_nodes(topology::make_initial_state(
        InitialShape::kRandomChain, random_ids(12, rng_b), rng_b));

    const std::size_t budget = 400 * 12 + 4000;
    const auto tracked_rounds = tracked.run_until_small_world(budget);

    // Re-enact the pre-tracker implementation on the twin: ring first, then
    // a per-node forget baseline checked by full recomputation.
    const std::uint64_t start = legacy.engine().round();
    const auto ring_rounds = legacy.run_until_sorted_ring(budget);
    ASSERT_TRUE(ring_rounds.has_value());
    std::vector<std::pair<sim::Id, std::uint64_t>> baseline;
    for (const sim::Id id : legacy.engine().id_span())
      baseline.emplace_back(id, legacy.node(id)->forget_count());
    const auto all_forgot = [&] {
      for (const auto& [id, before] : baseline)
        if (legacy.node(id)->forget_count() <= before) return false;
      return true;
    };
    ASSERT_TRUE(legacy.engine().run_until(
        all_forgot, budget - static_cast<std::size_t>(*ring_rounds)));
    const std::uint64_t legacy_rounds = legacy.engine().round() - start;

    ASSERT_TRUE(tracked_rounds.has_value());
    EXPECT_EQ(*tracked_rounds, legacy_rounds) << "seed " << seed;
    EXPECT_EQ(tracked.engine().counters().actions,
              legacy.engine().counters().actions);
  }
}

// --- edge cases ------------------------------------------------------------

TEST(InvariantTracker, EmptyAndSingletonNetworks) {
  NetworkOptions options;
  options.verify_tracker = true;
  SmallWorldNetwork net(options);
  // Empty: trivially sorted, trivially a ring, trivially all-forgot — the
  // same answers the recompute oracle gives.
  EXPECT_TRUE(net.sorted_list());
  EXPECT_TRUE(net.sorted_ring());
  EXPECT_TRUE(net.lrls_resolve());
  EXPECT_EQ(net.phase(), Phase::kSmallWorld);

  net.add_node(NodeInit(0.5));
  expect_tracker_matches_oracle(net);
  EXPECT_TRUE(net.sorted_list());
  EXPECT_TRUE(net.sorted_ring());

  ASSERT_TRUE(net.leave(0.5));
  EXPECT_TRUE(net.sorted_list());
  EXPECT_EQ(net.tracker().size(), 0u);
}

}  // namespace
}  // namespace sssw::core
