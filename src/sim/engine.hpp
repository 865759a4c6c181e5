// engine.hpp — the discrete-event message-passing engine (§II of the paper).
//
// The engine owns a set of processes, one incoming channel per process, and a
// scheduler.  Protocols implement the Process interface; the self-stabilizing
// small-world node and the baseline linearization node are both plugins.
// Everything is deterministic given (seed, scheduler, initial state).
//
// Determinism model (DESIGN.md "Sharded deterministic execution"):
//   * every process owns a private random stream, derived once from
//     (seed, id) — protocol coin flips, channel-drain shuffles, and the
//     loss/fault fate of that process's sends all come from its stream;
//   * the engine stream (rng()) belongs to the scheduler alone (the
//     random-async action picks);
//   * synchronous-family rounds split each phase into contiguous rank
//     ranges, the parts, run by `shards` worker lanes (each lane owns a
//     block of parts and takes unstarted parts off slower lanes when it is
//     done).  Each part buffers its side effects (sends, timer arms,
//     counter deltas); every channel then receives its messages in
//     canonical (sender rank, send order), which contiguous partitioning
//     makes the same sequence for every part count, so trajectories are
//     bit-identical across shards ∈ {1, 2, …}.  Without a fault injector or
//     send hook, each part draws its senders' loss fates right after their
//     actions and buckets the survivors by the lane that owns their
//     destination channel (contiguous slot ranges), and each lane then
//     appends the buckets for its channels in source-part order — the
//     destination merge, in parallel.  With either one present, their
//     shared ordered state forces the sequential merge at the barrier.
//     Timer arms are always applied sequentially, in part order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/id_index.hpp"
#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"

namespace sssw::util {
struct ChunkBounds;
}  // namespace sssw::util

namespace sssw::sim {

class Engine;

/// Engine-internal: one buffered send.  Parallel phases must not touch
/// channels, shared counters, or another process's stream, so Context::send
/// records (who, where, what) — with the destination already resolved to its
/// slot, IdIndex::kNone if no such process — and a merge does the rest.
/// Slots are never reused and membership cannot change inside a round, so
/// the resolution stays valid until the merge.
struct PendingSend {
  std::uint32_t from_slot;
  std::uint32_t to_slot;
  Id to;
  Message message;
};
// Part outboxes hold a phase's sends; 32-bit slots keep them this small.
static_assert(sizeof(PendingSend) == 48);

/// Engine-internal: a send that survived its loss draw, bucketed for the lane
/// that owns its destination channel (the destination merge).
struct RoutedSend {
  std::uint32_t to_slot;
  Message message;
};

/// Engine-internal: one part's buffered side effects for the current phase
/// (a part is a contiguous rank range; see the determinism model).  In the
/// destination merge, part d < lanes also tallies what lane d appended.
/// Cache-line aligned: parts bump their tallies on every action.
struct alignas(64) EnginePart {
  struct TimerArm {
    Id id;
    std::uint32_t delay;
    std::uint64_t tag;
  };
  /// Sequential merge: every send of the phase.  Destination merge: only
  /// the current sender's sends, until they are routed.
  std::vector<PendingSend> outbox;
  /// Destination merge: surviving sends by destination lane, each bucket in
  /// (sender rank, send order).
  std::vector<std::vector<RoutedSend>> routed;
  std::vector<TimerArm> timer_arms;
  /// The snapshot of the channel being delivered (Channel::drain swaps it
  /// with the channel's buffer, so buffers rotate instead of each node
  /// keeping a second one).
  std::vector<Message> arrivals;
  std::array<std::uint64_t, kMaxMessageTypes> sent_by_type{};  ///< routed sends
  std::uint64_t actions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t lost = 0;       ///< routed sends eaten by the loss model
  std::uint64_t dropped = 0;    ///< routed sends to unknown identifiers
  std::size_t drained = 0;      ///< messages taken out of channels this phase
  std::size_t appended = 0;     ///< destination merge: see above
};

/// The face of the engine a process sees while executing one atomic action.
class Context {
 public:
  /// Sends `message` to the node with identifier `to`.  Sends to identifiers
  /// that no longer exist (departed nodes) are counted and dropped, matching
  /// the leave semantics of §IV.G.  Self-sends are legal.  Inside a parallel
  /// phase the send is buffered and takes effect at the phase barrier, in
  /// canonical (sender rank, send order) — invisible to the protocol, which
  /// never observes a channel it sent to within the same phase anyway.
  void send(Id to, const Message& message);

  /// The acting process's private deterministic stream (derived from the
  /// engine seed and the process id), so concurrent actions never contend
  /// for — or, worse, reorder — a shared generator.
  util::Rng& rng();

  /// Synchronous round counter (also advanced by async steps, see Engine).
  std::uint64_t round() const noexcept;

  /// Arms a timer for the acting process: `on_timer(tag)` fires at the start
  /// of the round `delay` rounds from now (see Engine::schedule_timer).
  void schedule_timer(std::uint32_t delay, std::uint64_t tag);

 private:
  friend class Engine;
  Context(Engine& engine, Id self, util::Rng* rng, std::size_t from_slot,
          EnginePart* part) noexcept
      : engine_(engine),
        self_(self),
        rng_(rng),
        from_slot_(static_cast<std::uint32_t>(from_slot)),
        part_(part) {}
  Engine& engine_;
  Id self_;  ///< the acting process (the fault layer's partition filter
             ///< needs the sender, which a Message does not carry)
  util::Rng* rng_;           ///< the acting process's slot stream
  std::uint32_t from_slot_;  ///< the acting process's slot index
  EnginePart* part_;         ///< non-null inside a parallel phase: buffer here
};

/// Cheap protocol tag: hot inspection paths (invariant predicates, views,
/// snapshots) used to dynamic_cast every process per evaluation, which is
/// measurable at n >= 10^4.  Each protocol family claims one constant here
/// and inspection code checks the tag before a static_cast.  0 is reserved
/// for untagged test/utility processes, which no typed accessor matches.
using ProcessKind = std::uint8_t;
inline constexpr ProcessKind kUntaggedProcess = 0;
inline constexpr ProcessKind kSmallWorldProcess = 1;
inline constexpr ProcessKind kLinearizationProcess = 2;
inline constexpr ProcessKind kFingerProcess = 3;

/// A protocol node.  Actions are atomic: the engine never interleaves two
/// callbacks *of the same process*, and concurrent actions of different
/// processes share no mutable state (each process owns its state and stream;
/// sends are buffered).  `on_message` is the receive action, `on_regular`
/// the always-enabled regular action (Algorithm 1's two actions).
class Process {
 public:
  virtual ~Process() = default;
  virtual Id id() const noexcept = 0;
  virtual void on_message(Context& ctx, const Message& message) = 0;
  virtual void on_regular(Context& ctx) = 0;

  /// Timer action: fires for timers armed via Context::schedule_timer /
  /// Engine::schedule_timer.  Default is a no-op so protocols without timers
  /// are untouched.  Like the other actions it is atomic and may send
  /// messages or re-arm timers.
  virtual void on_timer(Context& ctx, std::uint64_t tag) {
    (void)ctx;
    (void)tag;
  }

  ProcessKind kind() const noexcept { return kind_; }

 protected:
  Process() = default;
  explicit Process(ProcessKind kind) noexcept : kind_(kind) {}

 private:
  const ProcessKind kind_ = kUntaggedProcess;
};

struct EngineConfig {
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;
  /// In kRandomAsync, number of atomic actions that count as one "round"
  /// when 0: defaults to (#processes + #pending messages) per round.
  std::size_t async_actions_per_round = 0;
  /// In kDelayedRandom, each pending message is independently delivered in a
  /// given round with this probability (the paper's slow-channel adversary
  /// used 1/2).  Must lie in (0, 1]; validated at engine construction.
  double delivery_probability = 0.5;
  /// Each sent message is independently lost with this probability.  The
  /// paper's model assumes lossless channels; a self-stabilizing protocol
  /// that re-announces its state every round tolerates loss anyway — this
  /// knob lets the tests and benches demonstrate that.  Must lie in [0, 1);
  /// validated at engine construction.
  double message_loss = 0.0;
  /// Fault-injection adversary on the send path (duplication, bounded extra
  /// delay, transient partitions, stale replay — see sim/faults.hpp and
  /// doc/FAULTS.md).  A default-constructed plan is inactive and leaves the
  /// trajectory bit-identical to a fault-free run.
  FaultPlan faults{};
  /// In kAdversarialOldestLast, the fairness deadline: every message is
  /// held this many extra rounds before its channel sees it.  Must be >= 1.
  std::uint32_t adversary_delay = 3;
  /// Worker lanes the synchronous-family schedulers fan each round's phases
  /// across.  Trajectories are bit-identical for every value >= 1 (the
  /// determinism model above), so this is purely a wall-clock knob.
  /// kRandomAsync is inherently sequential and ignores it.  Must be >= 1.
  std::size_t shards = 1;
};

struct EngineCounters {
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;     ///< atomic actions executed (receive + regular)
  std::uint64_t deliveries = 0;  ///< receive actions executed
  std::uint64_t dropped = 0;     ///< sends to departed/unknown identifiers
  std::uint64_t lost = 0;        ///< sends eaten by the loss model
  std::uint64_t timers = 0;      ///< timer actions fired (on_timer callbacks)
  FaultCounters faults;          ///< injected-fault events (sim/faults.hpp)
  std::array<std::uint64_t, kMaxMessageTypes> sent_by_type{};

  std::uint64_t total_sent() const noexcept {
    std::uint64_t sum = 0;
    for (const auto count : sent_by_type) sum += count;
    return sum;
  }
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Registers a process.  Identifiers must be unique and finite (-0.0 and
  /// 0.0 are the same identifier).  O(n − r)
  /// for rank r (the sorted-order insert shift), so ascending bulk loads are
  /// O(1) amortized per node — million-node networks build in linear time.
  void add_process(std::unique_ptr<Process> process);

  /// Removes a process: its state and channel vanish; in-flight messages to
  /// it will be dropped on send.  With `purge_references` (the fail-stop
  /// "leave" of §IV.G) every in-flight message carrying the departed
  /// identifier is also removed; without it (crash-stop) stale references
  /// stay in flight and only a failure detector can heal the survivors.
  /// Returns false if no such process exists.
  bool remove_process(Id id, bool purge_references = true);

  std::size_t process_count() const noexcept { return order_.size(); }
  bool contains(Id id) const noexcept { return index_.contains(id); }

  /// Mutable/const access to a node's protocol state for setup & inspection.
  Process* find(Id id) noexcept;
  const Process* find(Id id) const noexcept;

  /// All process identifiers in ascending order, as an allocation-free view
  /// over the engine's incrementally maintained sorted order.  Invalidated
  /// by add_process/remove_process (take it fresh after membership changes;
  /// do not hold it across a join/leave — copy into a vector for that).
  std::span<const Id> id_span() const noexcept { return ids_sorted_; }

  /// Applies `fn` to every process in ascending identifier order.
  void for_each(const std::function<void(const Process&)>& fn) const;

  /// Places a message directly into the channel of `to` without a sender —
  /// models arbitrary initial channel contents (self-stabilization starts
  /// from any state, including garbage in flight).  Returns false if no such
  /// process exists.
  bool inject(Id to, const Message& message);

  /// Arms a timer: process `id` receives `on_timer(tag)` at the start of the
  /// round `delay` rounds from now (`delay` >= 1), before any message of
  /// that round is received.  Timers due in the same round fire in ascending
  /// id order (ties per id in arming order), so trajectories stay a pure
  /// function of (state, seed) like every other scheduling decision.  Timers
  /// for a process that has since left or crashed lapse silently; a run that
  /// never arms a timer is bit-identical to one built before timers existed.
  void schedule_timer(Id id, std::uint32_t delay, std::uint64_t tag);

  /// Timers currently armed (tests/inspection).
  std::size_t pending_timers() const noexcept { return timer_count_; }

  /// Executes one round under the configured scheduler.
  void run_round();

  /// Executes `rounds` rounds.
  void run_rounds(std::size_t rounds);

  /// Runs until `predicate()` holds (checked after each round) or
  /// `max_rounds` elapse; returns true iff the predicate held.
  bool run_until(const std::function<bool()>& predicate, std::size_t max_rounds);

  /// Total number of messages currently in flight: channel contents plus
  /// messages parked in the fault layer's hold queue (a held message is
  /// still "in the channel" as far as Def. 4.2 views are concerned).  O(1):
  /// both counts are maintained incrementally, not recomputed.
  std::size_t pending_messages() const noexcept {
    return pending_total_ + (faults_ ? faults_->held_count() : 0);
  }

  /// Applies `fn` to every pending message with its destination identifier
  /// (the channel's owner), in ascending owner order; messages held by the
  /// fault layer are visited after the channel contents, in hold order.
  void for_each_pending(const std::function<void(Id to, const Message&)>& fn) const;

  const EngineCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = EngineCounters{}; }

  /// The scheduler's stream.  Protocol code should use Context::rng (its
  /// per-process stream) instead; this one decides only scheduler-level
  /// draws, so that shard lanes never share a generator.
  util::Rng& rng() noexcept { return rng_; }
  std::uint64_t round() const noexcept { return counters_.rounds; }

  /// Streams this engine's events into `registry` (counter and gauge names
  /// per doc/OBSERVABILITY.md: engine.rounds, engine.messages.sent, …).
  /// The registry must outlive the engine or be detached first.  Metrics
  /// accumulate from the moment of attachment; they are not retroactive.
  void attach_metrics(obs::Registry& registry);
  void detach_metrics() noexcept { metrics_ = Metrics{}; }

  // --- observation hooks ------------------------------------------------
  // Hooks are *chained*: any number of observers may attach concurrently
  // (a lookup manager, a snapshotter, a test capture) and each receives
  // every event.  add returns a token for targeted removal, so detaching
  // one observer never silently disables another.
  //
  // Threading: send and round hooks always fire from the sequential merge /
  // epilogue, so observing never constrains the lane count.
  using SendHook = std::function<void(Id to, const Message&)>;
  using RoundHook = std::function<void(std::uint64_t round)>;
  using HookId = std::uint64_t;

  /// Observer invoked on every send, before loss/routing (the conformance
  /// tests' send capture).
  HookId add_send_hook(SendHook hook);
  bool remove_send_hook(HookId id) noexcept;

  /// Observer invoked at the end of every round with the new round number
  /// (periodic snapshotting, convergence watchdogs).
  HookId add_round_hook(RoundHook hook);
  bool remove_round_hook(HookId id) noexcept;

  /// Testing scheduler: delivers everything currently pending (shuffled per
  /// receiver stream) WITHOUT executing any regular action, and does not
  /// advance the round counter.  Lets tests exercise a single receive action
  /// in isolation.
  void deliver_pending_once();

 private:
  friend class Context;

  struct Slot {
    std::unique_ptr<Process> process;
    Channel channel;
    /// This slot's position in order_ (its rank among live ids).  Lets the
    /// hot paths map slot → Fenwick index in O(1).  Stale for dead slots.
    std::size_t rank = 0;
    /// The process's private stream: util::derive_stream(seed, bits of id).
    /// Touched only by this process's own actions, its channel drains, and
    /// the merge-time fate of its sends — never by another lane.
    util::Rng rng{0};
  };

  /// Cached metric handles (registry-owned); all null when detached, so the
  /// hot paths pay one branch.  Parts never touch them: merge_parts adds
  /// each lane's tallies in bulk.
  struct Metrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* actions = nullptr;
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* timers = nullptr;
    obs::Counter* faults_duplicated = nullptr;
    obs::Counter* faults_delayed = nullptr;
    obs::Counter* faults_replayed = nullptr;
    obs::Counter* faults_partition_dropped = nullptr;
    obs::Gauge* channel_depth = nullptr;
    obs::Gauge* processes = nullptr;
  };

  /// Counts the send by type, fires send hooks, draws the loss/fault fate
  /// from the *sender's* stream, and routes the survivors.  Called inline
  /// from sequential contexts and from the sequential merge for buffered
  /// sends — same code, same stream, same order either way.  The registry's
  /// engine.messages.sent is counted by the caller: per send in
  /// Context::send, per part in merge_parts.
  void dispatch_send(const PendingSend& send);
  /// Destination merge, in the part, after each sender's actions: draws the
  /// loss fates of the sender's buffered sends and buckets the survivors.
  void route_outbox(Slot& sender, EnginePart& part, const util::ChunkBounds& split);
  /// Destination merge: lane `dest` appends every source part's bucket for
  /// it to its own channels, in source-part order.
  void append_routed(std::size_t parts, std::size_t dest);
  void enqueue_or_drop(std::uint32_t to_slot, const Message& message);
  void release_due_messages();
  void fire_due_timers();
  /// Sequential delivery (async scheduler, deliver_pending_once).
  void deliver(Slot& slot, std::size_t slot_index, const Message& message);
  /// Buffered delivery: counters and sends buffer into `part`.
  void deliver_buffered(Slot& slot, std::size_t slot_index,
                        const Message& message, EnginePart& part);
  void run_synchronous_round(ReceiptOrder order);
  void run_async_round();
  void finish_round();
  /// Applies every part's buffered effects in part order (sequential): the
  /// tallies, the timer arms, and — on the sequential-merge path — the sends.
  void merge_parts(std::size_t parts);
  /// Lanes for a round over `n` processes: config shards, capped by n.
  std::size_t effective_lanes(std::size_t n) const noexcept;
  /// Lazily rebuilds the pending-by-rank Fenwick index (async scheduler
  /// only) after membership changes invalidated it.
  void ensure_fenwick();
  void note_drained(Slot& slot, std::size_t removed) noexcept;

  EngineConfig config_;
  util::Rng rng_;
  // Present only when the fault plan is active or the scheduler needs the
  // hold queue (kAdversarialOldestLast); null means the send path is the
  // exact fault-free code of earlier revisions.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<FaultInjector::Held> released_;  // collect_due scratch, reused
  // Identifier → slot index: a flat open-addressing table, so a send's
  // lookup is one hash and usually one cache line.  Lanes read it
  // concurrently; only add/remove_process (sequential) write it.  Never
  // iterated (order_ is the canonical iteration order), so its layout
  // cannot leak into trajectories.
  IdIndex index_;
  std::vector<Slot> slots_;        // dense storage; holes after removal
  // Canonical scheduling order: live slot indices, ascending by node id,
  // maintained by sorted insert/erase (never rebuilt from map/hash
  // iteration).  Every scheduler draws from this order, so trajectories are
  // a function of (node set, channel contents, seed) alone — bit-identical
  // across platforms, stdlibs, and join/leave histories that reach the same
  // state.
  std::vector<std::size_t> order_;
  // Live identifiers, ascending: ids_sorted_[rank] == slots_[order_[rank]]'s
  // id.  Maintained by the same sorted insert/erase as order_, so id_span()
  // hands out the canonical order without allocating.
  std::vector<Id> ids_sorted_;
  // Pending messages per order_-rank, Fenwick-indexed: the async scheduler
  // finds the pick-th pending message by binary descent in O(log n).  Only
  // kRandomAsync pays for it (use_fenwick_); membership changes mark it
  // dirty and ensure_fenwick rebuilds it lazily, so bulk loads skip the old
  // O(n)-per-add rebuild entirely.
  util::Fenwick pending_by_rank_;
  bool use_fenwick_ = false;
  bool fenwick_dirty_ = true;
  std::size_t pending_total_ = 0;  // sum of all channel sizes, kept in step
  std::vector<std::int64_t> rank_counts_;  // rebuild scratch, reused
  std::vector<EnginePart> parts_;  // per-part buffers, reused across rounds
  EngineCounters counters_;
  Metrics metrics_;
  HookId next_hook_id_ = 1;
  std::vector<std::pair<HookId, SendHook>> send_hooks_;
  std::vector<std::pair<HookId, RoundHook>> round_hooks_;
  std::vector<std::vector<Message>> arrivals_;  // deliver_pending_once snapshots
  struct Timer {
    Id id;
    std::uint64_t tag;
  };
  // Armed timers, keyed by due round; each bucket holds arming order and is
  // id-sorted (stably) at fire time for the canonical order.
  std::map<std::uint64_t, std::vector<Timer>> timers_;
  std::size_t timer_count_ = 0;
  std::vector<Timer> due_timers_;  // fire_due_timers scratch, reused
};

// --- Context inline fast paths ---------------------------------------------
// send() is the hottest engine call (every protocol action fires several);
// in a lane it is an index lookup and one push_back, with the real dispatch
// deferred to the merge.  Defined here, after Engine, so the calls inline
// into protocol code.

inline void Context::send(Id to, const Message& message) {
  const PendingSend send{from_slot_, engine_.index_.find(to), to, message};
  if (part_ != nullptr) {
    part_->outbox.push_back(send);
    return;
  }
  if (engine_.metrics_.sent) engine_.metrics_.sent->add();
  engine_.dispatch_send(send);
}

inline util::Rng& Context::rng() { return *rng_; }

inline std::uint64_t Context::round() const noexcept {
  return engine_.counters_.rounds;
}

inline void Context::schedule_timer(std::uint32_t delay, std::uint64_t tag) {
  if (part_ != nullptr) {
    part_->timer_arms.push_back(EnginePart::TimerArm{self_, delay, tag});
    return;
  }
  engine_.schedule_timer(self_, delay, tag);
}

}  // namespace sssw::sim
