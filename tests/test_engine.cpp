// Tests for sim/engine: registration, delivery, schedulers, determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"

namespace sssw::sim {
namespace {

/// Minimal instrumented process: records deliveries, counts regular actions,
/// optionally forwards each message to a fixed peer.
class Probe : public Process {
 public:
  explicit Probe(Id id, Id forward_to = kNegInf) : id_(id), forward_to_(forward_to) {}

  Id id() const noexcept override { return id_; }

  void on_message(Context& ctx, const Message& message) override {
    received.push_back(message);
    if (is_node_id(forward_to_)) ctx.send(forward_to_, message);
  }

  void on_regular(Context&) override { ++regular_actions; }

  std::vector<Message> received;
  int regular_actions = 0;

 private:
  Id id_;
  Id forward_to_;
};

Engine make_engine(SchedulerKind scheduler = SchedulerKind::kSynchronous,
                   std::uint64_t seed = 1) {
  return Engine(EngineConfig{.scheduler = scheduler, .seed = seed});
}

TEST(Engine, AddAndFind) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_EQ(engine.process_count(), 1u);
  EXPECT_TRUE(engine.contains(0.5));
  EXPECT_NE(engine.find(0.5), nullptr);
  EXPECT_EQ(engine.find(0.7), nullptr);
}

TEST(Engine, NegativeZeroIsTheSameIdAsZero) {
  // 0.0 == -0.0 but their bits differ: the id index must key on the value,
  // so -0.0 resolves to the live 0.0 process and cannot register twice.
  Engine engine = make_engine();
  for (int i = 1; i <= 1000; ++i)
    engine.add_process(std::make_unique<Probe>(i / 1001.0));
  engine.add_process(std::make_unique<Probe>(0.0, -0.0));
  EXPECT_TRUE(engine.contains(-0.0));
  EXPECT_EQ(engine.find(-0.0), engine.find(0.0));
  EXPECT_DEATH(engine.add_process(std::make_unique<Probe>(-0.0)),
               "duplicate process identifier");
  // A send addressed to -0.0 reaches the 0.0 process instead of dropping.
  ASSERT_TRUE(engine.inject(-0.0, Message{.type = 3}));
  engine.run_rounds(2);
  const auto* zero = static_cast<const Probe*>(engine.find(0.0));
  EXPECT_EQ(zero->received.size(), 2u);
  EXPECT_EQ(engine.counters().dropped, 0u);
  EXPECT_EQ(engine.process_count(), 1001u);
}

TEST(Engine, IdsAreSorted) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.add_process(std::make_unique<Probe>(0.1));
  engine.add_process(std::make_unique<Probe>(0.5));
  const auto ids = engine.id_span();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_DOUBLE_EQ(ids[0], 0.1);
  EXPECT_DOUBLE_EQ(ids[1], 0.5);
  EXPECT_DOUBLE_EQ(ids[2], 0.9);
}

TEST(Engine, RemoveProcess) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_TRUE(engine.remove_process(0.5));
  EXPECT_FALSE(engine.remove_process(0.5));
  EXPECT_EQ(engine.process_count(), 0u);
  EXPECT_FALSE(engine.contains(0.5));
}

TEST(Engine, RegularActionRunsEveryRound) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.run_rounds(5);
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->regular_actions, 5);
  EXPECT_EQ(engine.round(), 5u);
}

/// A process whose regular action sends one message to a peer.
class Sender final : public Probe {
 public:
  Sender(Id id, Id to) : Probe(id), to_(to) {}
  void on_regular(Context& ctx) override { ctx.send(to_, Message{2, id()}); }

 private:
  Id to_;
};

TEST(Engine, MessageDeliveredNextRound) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();  // round 1: send only
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  ASSERT_NE(receiver, nullptr);
  EXPECT_TRUE(receiver->received.empty());
  EXPECT_EQ(engine.pending_messages(), 1u);
  engine.run_round();  // round 2: delivery
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_DOUBLE_EQ(receiver->received[0].id1, 0.1);
  EXPECT_EQ(receiver->received[0].type, 2);
}

TEST(Engine, SendToUnknownIsDroppedAndCounted) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.777));
  engine.run_round();
  EXPECT_EQ(engine.counters().dropped, 1u);
  EXPECT_EQ(engine.pending_messages(), 0u);
}

TEST(Engine, SelfSendWorks) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.5, 0.5));
  engine.run_rounds(2);
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_EQ(probe->received.size(), 1u);
}

TEST(Engine, CountersByType) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(3);
  EXPECT_EQ(engine.counters().sent_by_type[2], 3u);
  EXPECT_EQ(engine.counters().total_sent(), 3u);
  EXPECT_EQ(engine.counters().deliveries, 2u);  // last send still pending
  engine.reset_counters();
  EXPECT_EQ(engine.counters().total_sent(), 0u);
  EXPECT_EQ(engine.counters().rounds, 0u);
}

TEST(Engine, ForwardingChainTerminatesWithDrop) {
  // 0.1 → 0.5 → 0.9 → (0.3 does not exist: drop).
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.5));
  engine.add_process(std::make_unique<Probe>(0.5, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9, 0.3));
  engine.run_rounds(4);
  const auto* mid = dynamic_cast<const Probe*>(engine.find(0.5));
  const auto* end = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_GE(mid->received.size(), 2u);
  EXPECT_GE(end->received.size(), 1u);
  EXPECT_GE(engine.counters().dropped, 1u);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  const bool reached =
      engine.run_until([&] { return probe->regular_actions >= 3; }, 100);
  EXPECT_TRUE(reached);
  EXPECT_EQ(engine.round(), 3u);
}

TEST(Engine, RunUntilRespectsBudget) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  const bool reached = engine.run_until([] { return false; }, 7);
  EXPECT_FALSE(reached);
  EXPECT_EQ(engine.round(), 7u);
}

TEST(Engine, RunUntilTrueImmediately) {
  Engine engine = make_engine();
  EXPECT_TRUE(engine.run_until([] { return true; }, 10));
  EXPECT_EQ(engine.round(), 0u);
}

TEST(Engine, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Engine engine = make_engine(SchedulerKind::kSynchronous, seed);
    engine.add_process(std::make_unique<Sender>(0.1, 0.5));
    engine.add_process(std::make_unique<Probe>(0.5, 0.9));
    engine.add_process(std::make_unique<Probe>(0.9, 0.1));
    engine.run_rounds(10);
    return engine.counters().total_sent();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(Engine, AsyncSchedulerDeliversEverything) {
  Engine engine = make_engine(SchedulerKind::kRandomAsync, 3);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(50);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_GT(receiver->received.size(), 0u);
}

TEST(Engine, AdversarialLifoStillDelivers) {
  Engine engine = make_engine(SchedulerKind::kAdversarialLifo, 3);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(3);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_EQ(receiver->received.size(), 2u);
}

TEST(Engine, DelayedSchedulerEventuallyDelivers) {
  Engine engine = make_engine(SchedulerKind::kDelayedRandom, 5);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(40);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  // ~40 sends, each delivered with prob 1/2 per round: nearly all arrive.
  EXPECT_GT(receiver->received.size(), 25u);
  EXPECT_LT(receiver->received.size(), 40u);
}

TEST(Engine, InjectPlacesMessage) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_TRUE(engine.inject(0.5, Message{3, 0.25}));
  EXPECT_FALSE(engine.inject(0.7, Message{3, 0.25}));
  EXPECT_EQ(engine.pending_messages(), 1u);
  engine.run_round();
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].type, 3);
}

TEST(Engine, RemoveProcessPurgesReferences) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.1));
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.inject(0.1, Message{0, 0.5});        // references the victim
  engine.inject(0.1, Message{0, 0.9});        // unrelated
  EXPECT_TRUE(engine.remove_process(0.5));
  EXPECT_EQ(engine.pending_messages(), 1u);   // only the unrelated one left
}

TEST(Engine, HooksChainAndRemoveIndividually) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  int first = 0, second = 0, rounds = 0;
  const auto first_id = engine.add_send_hook([&](Id to, const Message& m) {
    EXPECT_DOUBLE_EQ(to, 0.9);
    EXPECT_EQ(m.type, 2);
    ++first;
  });
  engine.add_send_hook([&](Id, const Message&) { ++second; });
  engine.add_round_hook([&](std::uint64_t) { ++rounds; });
  engine.run_rounds(3);
  // Sender emits once per round: both send observers saw all 3 sends.
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 3);
  EXPECT_EQ(rounds, 3);
  // Removing one hook leaves the others live.
  EXPECT_TRUE(engine.remove_send_hook(first_id));
  EXPECT_FALSE(engine.remove_send_hook(first_id));  // already gone
  engine.run_rounds(3);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 6);
  EXPECT_EQ(rounds, 6);
}

TEST(Engine, RoundHookSeesRoundNumber) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  std::vector<std::uint64_t> seen;
  engine.add_round_hook([&](std::uint64_t round) { seen.push_back(round); });
  engine.run_rounds(3);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Engine, ForEachVisitsAscending) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.8));
  engine.add_process(std::make_unique<Probe>(0.2));
  std::vector<Id> seen;
  engine.for_each([&](const Process& p) { seen.push_back(p.id()); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[0], seen[1]);
}

TEST(Engine, ForEachPendingSeesChannelContents) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();
  int pending = 0;
  engine.for_each_pending([&](Id to, const Message& m) {
    EXPECT_DOUBLE_EQ(to, 0.9);
    EXPECT_DOUBLE_EQ(m.id1, 0.1);
    ++pending;
  });
  EXPECT_EQ(pending, 1);
}

TEST(Engine, DeliveryProbabilityValidated) {
  EXPECT_DEATH(Engine(EngineConfig{.delivery_probability = 0.0}),
               "delivery_probability");
  EXPECT_DEATH(Engine(EngineConfig{.delivery_probability = 1.5}),
               "delivery_probability");
}

TEST(Engine, MessageLossValidated) {
  // loss = 1 would be a network that delivers nothing — reject it loudly
  // along with everything outside [0, 1).
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = 1.0}), "message_loss");
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = -0.1}), "message_loss");
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = 1.5}), "message_loss");
  Engine ok(EngineConfig{.message_loss = 0.99});  // boundary accepted
  EXPECT_EQ(ok.process_count(), 0u);
}

TEST(Engine, FaultPlanValidatedAtConstruction) {
  FaultPlan bad_probability;
  bad_probability.duplicate_probability = 1.0;
  EXPECT_DEATH(Engine(EngineConfig{.faults = bad_probability}),
               "duplicate_probability");
  FaultPlan missing_bound;
  missing_bound.delay_probability = 0.5;  // max_delay_rounds left at 0
  EXPECT_DEATH(Engine(EngineConfig{.faults = missing_bound}),
               "max_delay_rounds");
}

TEST(Engine, DelayedRandomHonorsDeliveryProbabilityOne) {
  // With delivery probability 1 the "slow channel" degenerates into the
  // synchronous scheduler: every pending message arrives the next round.
  Engine engine(EngineConfig{.scheduler = SchedulerKind::kDelayedRandom,
                             .seed = 3,
                             .delivery_probability = 1.0});
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(5);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  ASSERT_NE(receiver, nullptr);
  EXPECT_EQ(receiver->received.size(), 4u);  // round-k send arrives round k+1
}

TEST(Engine, DelayedRandomLowProbabilityBacklogs) {
  Engine slow(EngineConfig{.scheduler = SchedulerKind::kDelayedRandom,
                           .seed = 3,
                           .delivery_probability = 0.05});
  slow.add_process(std::make_unique<Sender>(0.1, 0.9));
  slow.add_process(std::make_unique<Probe>(0.9));
  slow.run_rounds(20);
  const auto* receiver = dynamic_cast<const Probe*>(slow.find(0.9));
  // One send per round, 20 rounds; at p=0.05 most must still be in flight,
  // and delivered + pending always accounts for every send.
  EXPECT_LT(receiver->received.size(), 10u);
  EXPECT_EQ(receiver->received.size() + slow.pending_messages(), 20u);
}

/// Records the order in which regular actions fire, for the canonical
/// scheduling-order contract tests.
class OrderSpy final : public Process {
 public:
  OrderSpy(Id id, std::vector<Id>* log) : id_(id), log_(log) {}
  Id id() const noexcept override { return id_; }
  void on_message(Context&, const Message&) override {}
  void on_regular(Context&) override { log_->push_back(id_); }

 private:
  Id id_;
  std::vector<Id>* log_;
};

TEST(Engine, AdversarialLifoRunsRegularActionsInAscendingIdOrder) {
  // The "fixed order" promised by kAdversarialLifo is the canonical id-sorted
  // order — independent of insertion history and of any container hash.
  std::vector<Id> log;
  Engine engine = make_engine(SchedulerKind::kAdversarialLifo);
  engine.add_process(std::make_unique<OrderSpy>(0.9, &log));
  engine.add_process(std::make_unique<OrderSpy>(0.1, &log));
  engine.add_process(std::make_unique<OrderSpy>(0.5, &log));
  engine.remove_process(0.5);
  engine.add_process(std::make_unique<OrderSpy>(0.3, &log));
  engine.run_round();
  EXPECT_EQ(log, (std::vector<Id>{0.1, 0.3, 0.9}));
}

TEST(Engine, IdsStaySortedAcrossChurn) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.8));
  engine.add_process(std::make_unique<Probe>(0.2));
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.remove_process(0.5);
  engine.add_process(std::make_unique<Probe>(0.4));
  engine.add_process(std::make_unique<Probe>(0.05));
  engine.remove_process(0.8);
  const auto ids = engine.id_span();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(Engine, PendingCountStaysConsistentAcrossChurnAndAsyncRounds) {
  // pending_messages() is maintained incrementally; this cross-checks it
  // against an exhaustive channel walk after every perturbation.
  Engine engine = make_engine(SchedulerKind::kRandomAsync, 11);
  const auto audit = [&engine] {
    std::size_t counted = 0;
    engine.for_each_pending([&counted](Id, const Message&) { ++counted; });
    ASSERT_EQ(engine.pending_messages(), counted);
  };
  const std::vector<double> ring{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (std::size_t i = 0; i < ring.size(); ++i)
    engine.add_process(
        std::make_unique<Sender>(ring[i], ring[(i + 1) % ring.size()]));
  audit();
  engine.run_rounds(3);
  audit();
  engine.inject(0.2, Message{1, 0.3});
  engine.inject(0.2, Message{1, 0.4});
  audit();
  engine.remove_process(0.3);  // clears 0.3's channel, purges references
  audit();
  engine.run_rounds(3);
  audit();
  engine.add_process(std::make_unique<Sender>(0.35, 0.2));
  engine.run_rounds(2);
  audit();
  engine.deliver_pending_once();
  audit();
  EXPECT_EQ(engine.pending_messages(), 0u);
}

/// Runs a small forwarding network with interleaved add/remove churn under
/// `kind`, streaming every metrics snapshot to a string.  Determinism means
/// two invocations return byte-identical streams.
std::string churn_stream(SchedulerKind kind, std::uint64_t seed,
                         bool reversed_setup = false,
                         const FaultPlan& faults = {}) {
  obs::Registry registry;
  Engine engine(EngineConfig{.scheduler = kind, .seed = seed, .faults = faults});
  engine.attach_metrics(registry);
  std::ostringstream out;
  obs::Snapshotter snaps(registry, out, /*every=*/1);
  engine.add_round_hook([&snaps](std::uint64_t round) { snaps.poll(round); });

  // A fixed directed ring: each id's target depends only on the id itself,
  // so reversing the *registration* order leaves the topology unchanged.
  const std::vector<double> ring{0.1, 0.25, 0.4, 0.55, 0.7, 0.85};
  const auto target = [&ring](double id) {
    for (std::size_t i = 0; i < ring.size(); ++i)
      if (ring[i] == id) return ring[(i + 1) % ring.size()];
    return ring.front();
  };
  std::vector<double> ids = ring;
  if (reversed_setup) std::reverse(ids.begin(), ids.end());
  for (const double id : ids)
    engine.add_process(std::make_unique<Sender>(id, target(id)));
  engine.run_rounds(4);
  engine.add_process(std::make_unique<Sender>(0.15, 0.4));
  engine.run_rounds(2);
  engine.remove_process(0.55);
  engine.run_rounds(2);
  engine.add_process(std::make_unique<Sender>(0.95, 0.15));
  engine.remove_process(0.1);
  engine.run_rounds(4);
  snaps.write(engine.round());
  return out.str();
}

TEST(Engine, MetricsStreamIsBitReproducibleForEveryScheduler) {
  for (const SchedulerKind kind : kAllSchedulers) {
    const std::string first = churn_stream(kind, 7);
    const std::string second = churn_stream(kind, 7);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "scheduler " << to_string(kind);
  }
}

TEST(Engine, TrajectoryIndependentOfInsertionOrder) {
  // Canonical order_ contract: the schedule is a function of the live id set
  // and the seed, not of the order in which processes were registered.
  for (const SchedulerKind kind : kAllSchedulers) {
    EXPECT_EQ(churn_stream(kind, 7, /*reversed_setup=*/false),
              churn_stream(kind, 7, /*reversed_setup=*/true))
        << "scheduler " << to_string(kind);
  }
}

TEST(Engine, MetricsStreamIsBitReproducibleWithFaultPlan) {
  // Same determinism contract on the fault path: identical (seed, scheduler,
  // FaultPlan) ⇒ identical JSONL, with every dimension firing at once.
  FaultPlan faults;
  faults.duplicate_probability = 0.3;
  faults.delay_probability = 0.3;
  faults.max_delay_rounds = 3;
  faults.partition_start = 2;
  faults.partition_rounds = 4;
  faults.partition_pivot = 0.5;
  faults.replay_probability = 0.2;
  faults.replay_history = 8;
  for (const SchedulerKind kind : kAllSchedulers) {
    const std::string first = churn_stream(kind, 7, false, faults);
    const std::string second = churn_stream(kind, 7, false, faults);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "scheduler " << to_string(kind);
    // The plan must actually perturb the run, or this test pins nothing.
    EXPECT_NE(first, churn_stream(kind, 7)) << "scheduler " << to_string(kind);
  }
}

TEST(Engine, IdleFaultInjectorLeavesTrajectoryUntouched) {
  // An injector that never fires must leave the trajectory bit-identical to
  // having no fault layer at all.  A partition whose pivot nothing crosses
  // is the one active dimension that draws no randomness, so it exercises
  // the injector-present code path without perturbing anything.
  FaultPlan idle;
  idle.partition_start = 0;
  idle.partition_rounds = 1000;
  idle.partition_pivot = 0.0;  // every id is positive: no message crosses
  for (const SchedulerKind kind : kAllSchedulers)
    EXPECT_EQ(churn_stream(kind, 7), churn_stream(kind, 7, false, idle))
        << "scheduler " << to_string(kind);
}

TEST(Engine, MessagesToRemovedProcessDropped) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();  // one message now pending for 0.9
  engine.remove_process(0.9);
  engine.run_rounds(2);
  EXPECT_GE(engine.counters().dropped, 2u);  // subsequent sends dropped
}

// --- timers ----------------------------------------------------------------

/// Records each on_timer firing as (round, tag); optionally re-arms with the
/// same delay, or sends a message to a peer from inside the callback.
class Alarm : public Process {
 public:
  explicit Alarm(Id id, std::uint32_t rearm_delay = 0, Id ping_to = kNegInf)
      : id_(id), rearm_delay_(rearm_delay), ping_to_(ping_to) {}

  Id id() const noexcept override { return id_; }
  void on_message(Context&, const Message& message) override {
    received.push_back(message);
  }
  void on_regular(Context&) override {}
  void on_timer(Context& ctx, std::uint64_t tag) override {
    fired.emplace_back(ctx.round(), tag);
    if (rearm_delay_ > 0) ctx.schedule_timer(rearm_delay_, tag);
    if (is_node_id(ping_to_)) ctx.send(ping_to_, Message{1, id_});
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> fired;
  std::vector<Message> received;

 private:
  Id id_;
  std::uint32_t rearm_delay_;
  Id ping_to_;
};

TEST(EngineTimers, FiresAtTheScheduledRoundBeforeDeliveries) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5, /*rearm_delay=*/0, /*ping_to=*/0.7));
  engine.add_process(std::make_unique<Probe>(0.7));
  engine.schedule_timer(0.5, 3, 42);
  EXPECT_EQ(engine.pending_timers(), 1u);
  engine.run_rounds(3);
  const auto* alarm = dynamic_cast<const Alarm*>(engine.find(0.5));
  ASSERT_NE(alarm, nullptr);
  EXPECT_TRUE(alarm->fired.empty());  // due at the round counting 3, not yet
  engine.run_round();
  ASSERT_EQ(alarm->fired.size(), 1u);
  EXPECT_EQ(alarm->fired[0], (std::pair<std::uint64_t, std::uint64_t>{3, 42}));
  EXPECT_EQ(engine.pending_timers(), 0u);
  EXPECT_EQ(engine.counters().timers, 1u);
  // The timer fired before the round's channel snapshot, so its send is
  // delivered within the same round (synchronous Phase A sees it).
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.7));
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->received.size(), 1u);
}

TEST(EngineTimers, SameRoundTimersFireInAscendingIdOrderTiesInArmingOrder) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.9));
  engine.add_process(std::make_unique<Alarm>(0.1));
  engine.schedule_timer(0.9, 1, 1);  // armed first, higher id
  engine.schedule_timer(0.1, 1, 2);
  engine.schedule_timer(0.9, 1, 3);  // second timer for 0.9, same round
  // Tags are distinct, so the per-process logs reconstruct the global order.
  engine.run_rounds(2);
  const auto* low = dynamic_cast<const Alarm*>(engine.find(0.1));
  const auto* high = dynamic_cast<const Alarm*>(engine.find(0.9));
  ASSERT_EQ(low->fired.size(), 1u);
  ASSERT_EQ(high->fired.size(), 2u);
  EXPECT_EQ(low->fired[0].second, 2u);
  EXPECT_EQ(high->fired[0].second, 1u);  // arming order within one id
  EXPECT_EQ(high->fired[1].second, 3u);
  EXPECT_EQ(engine.counters().timers, 3u);
}

TEST(EngineTimers, ReArmingKeepsAPeriodicClock) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5, /*rearm_delay=*/4));
  engine.schedule_timer(0.5, 4, 7);
  engine.run_rounds(13);
  const auto* alarm = dynamic_cast<const Alarm*>(engine.find(0.5));
  ASSERT_EQ(alarm->fired.size(), 3u);  // rounds 4, 8, 12
  EXPECT_EQ(alarm->fired[0].first, 4u);
  EXPECT_EQ(alarm->fired[1].first, 8u);
  EXPECT_EQ(alarm->fired[2].first, 12u);
  EXPECT_EQ(engine.pending_timers(), 1u);  // the next period is armed
}

TEST(EngineTimers, RemoveProcessLapsesItsTimers) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5));
  engine.add_process(std::make_unique<Alarm>(0.7));
  engine.schedule_timer(0.5, 2, 1);
  engine.schedule_timer(0.7, 2, 2);
  engine.remove_process(0.5);
  EXPECT_EQ(engine.pending_timers(), 1u);  // 0.5's alarm purged eagerly
  engine.run_rounds(3);
  const auto* survivor = dynamic_cast<const Alarm*>(engine.find(0.7));
  ASSERT_EQ(survivor->fired.size(), 1u);
  EXPECT_EQ(engine.counters().timers, 1u);
}

TEST(EngineTimers, NeverArmedRunPaysNothing) {
  // The timer facility must leave a timer-free trajectory untouched: same
  // counters, zero timer actions.
  const auto run = [](bool unused) {
    Engine engine(EngineConfig{.scheduler = SchedulerKind::kRandomAsync, .seed = 11});
    (void)unused;
    engine.add_process(std::make_unique<Sender>(0.1, 0.9));
    engine.add_process(std::make_unique<Probe>(0.9, 0.1));
    engine.run_rounds(50);
    return engine.counters();
  };
  const EngineCounters a = run(false);
  const EngineCounters b = run(true);
  EXPECT_EQ(a.timers, 0u);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

TEST(EngineTimers, ZeroDelayAndUnknownProcessRejected) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5));
  EXPECT_DEATH(engine.schedule_timer(0.5, 0, 1), "at least one round");
  EXPECT_DEATH(engine.schedule_timer(0.9, 1, 1), "unknown process");
}

}  // namespace
}  // namespace sssw::sim
