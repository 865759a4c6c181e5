// network.hpp — high-level facade over (engine + protocol nodes).
//
// This is the public API a downstream user programs against: build a network
// from an initial state, run it to stabilization, join/leave nodes, and
// inspect the resulting topology.  Examples and benches all go through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/invariant_tracker.hpp"
#include "core/invariants.hpp"
#include "core/node.hpp"
#include "core/node_store.hpp"
#include "core/node_metrics.hpp"
#include "core/views.hpp"
#include "sim/engine.hpp"

namespace sssw::core {

struct NetworkOptions {
  Config protocol{};
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;
  /// Per-message loss probability (0 = the paper's lossless model).
  double message_loss = 0.0;
  /// kDelayedRandom only: per-round delivery probability of each pending
  /// message, in (0, 1] (see sim::EngineConfig::delivery_probability).
  double delivery_probability = 0.5;
  /// kRandomAsync only: atomic actions per "round"; 0 = #processes +
  /// #pending messages (see sim::EngineConfig::async_actions_per_round).
  std::size_t async_actions_per_round = 0;
  /// Fault-injection adversary (duplication, extra delay, partitions, stale
  /// replay); inactive by default.  See sim/faults.hpp and doc/FAULTS.md.
  sim::FaultPlan faults{};
  /// kAdversarialOldestLast only: rounds each message is held before its
  /// channel sees it (see sim::EngineConfig::adversary_delay).
  std::uint32_t adversary_delay = 3;
  /// Worker lanes per synchronous-family round (see sim::EngineConfig::
  /// shards).  Bit-identical trajectories for every value >= 1 — a pure
  /// wall-clock knob for large runs.
  std::size_t shards = 1;
  /// Debug mode: cross-check the incremental invariant tracker against the
  /// recompute oracle on every sorted_list/sorted_ring/phase query.  O(n+m)
  /// per query — for tests and the fuzzer's --paranoid mode, not production.
  bool verify_tracker = false;
};

class SmallWorldNetwork {
 public:
  explicit SmallWorldNetwork(NetworkOptions options = {});

  /// Adds a node with the given initial internal variables (any weakly
  /// connected assignment is a legal starting state).
  void add_node(const NodeInit& init);

  /// Bulk construction from a list of initial states.
  void add_nodes(const std::vector<NodeInit>& inits);

  std::size_t size() const noexcept { return engine_.process_count(); }

  // --- running ----------------------------------------------------------
  void run_rounds(std::size_t rounds) { engine_.run_rounds(rounds); }

  /// Runs until Definition 4.8 / 4.17 holds; returns the number of rounds
  /// taken, or nullopt if `max_rounds` elapsed first.
  std::optional<std::uint64_t> run_until_sorted_list(std::size_t max_rounds);
  std::optional<std::uint64_t> run_until_sorted_ring(std::size_t max_rounds);

  /// Runs until the ring holds AND every node has forgotten its long-range
  /// link at least once after ring formation (Phase 4's entry condition).
  std::optional<std::uint64_t> run_until_small_world(std::size_t max_rounds);

  // --- churn (§IV.G) ------------------------------------------------------
  /// Joins a new node that initially knows exactly one contact.  Returns
  /// false if the id already exists or the contact does not.
  bool join(sim::Id new_id, sim::Id contact);

  /// Fail-stop leave with neighbour detection: the node vanishes and every
  /// variable that pointed at it is reset (l→−∞, r→∞, ring/lrl→self), which
  /// is exactly the "gap" state §IV.G analyses.
  bool leave(sim::Id id);

  /// Crash-stop: the node vanishes but survivors keep their stale pointers
  /// and stale in-flight messages survive.  Recovery requires a failure
  /// detector (Config::detector.enabled), which evicts the dead id,
  /// quarantines it and re-links the gap.  With it disabled the gap can
  /// wedge forever, which is why the paper assumes detected leaves
  /// (tests/test_crash_recovery.cpp pins that wedge).
  bool crash(sim::Id id);

  // --- observability ------------------------------------------------------
  /// Attaches `registry` to the whole network: the engine's engine.* metrics
  /// plus the shared node.* counters, covering current AND future nodes
  /// (join() wires new nodes automatically).  The registry must outlive the
  /// network, or call detach_metrics() first.  See doc/OBSERVABILITY.md.
  void attach_metrics(obs::Registry& registry);
  void detach_metrics();

  // --- inspection ---------------------------------------------------------
  sim::Engine& engine() noexcept { return engine_; }
  const sim::Engine& engine() const noexcept { return engine_; }

  // O(1) per query via the incremental tracker (BFS connectivity only below
  // the sorted-list phase); answers are bit-identical to the invariants.hpp
  // recompute oracle, and verify_tracker cross-checks that on every call.
  bool sorted_list() const;
  bool sorted_ring() const;
  bool lrls_resolve() const;
  Phase phase() const;

  /// Read-only access to the tracker (gauges, tests).
  const InvariantTracker& tracker() const noexcept { return *tracker_; }

  const SmallWorldNode* node(sim::Id id) const;
  SmallWorldNode* node(sim::Id id);

  /// Ring-rank lengths of all long-range links that point away from their
  /// origin (the E3 observable).
  std::vector<std::size_t> lrl_lengths() const;

  /// Snapshot of Definition 4.2 views.
  IdIndex make_index() const { return IdIndex(engine_); }

 private:
  NetworkOptions options_;
  /// Shared struct-of-arrays backing store for every node's hot state.
  /// Behind unique_ptr for address stability across network moves; declared
  /// before engine_ so it outlives the nodes (which release their slots on
  /// destruction).
  std::unique_ptr<NodeStore> store_;
  sim::Engine engine_;
  /// Always on; behind unique_ptr so node back-pointers survive network
  /// moves (make_stable_ring / snapshot restore return networks by value).
  std::unique_ptr<InvariantTracker> tracker_;
  std::unique_ptr<NodeMetrics> node_metrics_;  ///< live iff metrics attached
  sim::Engine::HookId invariant_hook_ = 0;     ///< live iff metrics attached
};

/// Builds a network whose nodes carry the given ids and whose initial state
/// is already the perfect sorted ring with lrl = self — the "stable modulo
/// move-and-forget" state used by routing/probing experiments.
SmallWorldNetwork make_stable_ring(std::vector<sim::Id> ids, NetworkOptions options = {});

/// Generates n distinct uniform ids in (0,1).
std::vector<sim::Id> random_ids(std::size_t n, util::Rng& rng);

}  // namespace sssw::core
