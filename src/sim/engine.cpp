#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sssw::sim {

const char* to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "synchronous";
    case SchedulerKind::kRandomAsync:
      return "random-async";
    case SchedulerKind::kAdversarialLifo:
      return "adversarial-lifo";
    case SchedulerKind::kDelayedRandom:
      return "delayed-random";
    case SchedulerKind::kAdversarialOldestLast:
      return "adversarial-oldest-last";
  }
  return "unknown";
}

Engine::Engine(EngineConfig config) : config_(config), rng_(config.seed) {
  SSSW_CHECK_MSG(
      config_.delivery_probability > 0.0 && config_.delivery_probability <= 1.0,
      "EngineConfig::delivery_probability must lie in (0, 1]");
  SSSW_CHECK_MSG(config_.message_loss >= 0.0 && config_.message_loss < 1.0,
                 "EngineConfig::message_loss must lie in [0, 1)");
  SSSW_CHECK_MSG(config_.shards >= 1, "EngineConfig::shards must be >= 1");
  config_.faults.validate();
  const bool oldest_last =
      config_.scheduler == SchedulerKind::kAdversarialOldestLast;
  if (oldest_last)
    SSSW_CHECK_MSG(config_.adversary_delay >= 1,
                   "EngineConfig::adversary_delay must be >= 1");
  // Only the async scheduler ever asks "where is the pick-th pending
  // message?"; everyone else skips the Fenwick bookkeeping on the send path.
  use_fenwick_ = config_.scheduler == SchedulerKind::kRandomAsync;
  // The injector only exists when it can act, so a default config keeps the
  // send path (and the RNG streams) bit-identical to earlier revisions.
  if (config_.faults.active() || oldest_last) {
    faults_ = std::make_unique<FaultInjector>(
        config_.faults, oldest_last ? config_.adversary_delay : 0);
  }
}

void Engine::ensure_fenwick() {
  if (!fenwick_dirty_) return;
  rank_counts_.resize(order_.size());
  for (std::size_t rank = 0; rank < order_.size(); ++rank)
    rank_counts_[rank] =
        static_cast<std::int64_t>(slots_[order_[rank]].channel.size());
  pending_by_rank_.assign(rank_counts_);
  fenwick_dirty_ = false;
}

void Engine::note_drained(Slot& slot, std::size_t removed) noexcept {
  if (removed == 0) return;
  pending_total_ -= removed;
  if (use_fenwick_ && !fenwick_dirty_)
    pending_by_rank_.add(slot.rank, -static_cast<std::int64_t>(removed));
}

void Engine::add_process(std::unique_ptr<Process> process) {
  SSSW_CHECK(process != nullptr);
  const Id id = process->id();
  SSSW_CHECK_MSG(is_node_id(id), "process identifiers must be finite");
  SSSW_CHECK_MSG(!index_.contains(id), "duplicate process identifier");
  const std::size_t slot = slots_.size();
  slots_.push_back(Slot{std::move(process), Channel{}, /*rank=*/0,
                        util::derive_stream(config_.seed,
                                            std::bit_cast<std::uint64_t>(id))});
  index_.emplace(id, slot);
  // Canonical ordering: insert at the slot's id-sorted position instead of
  // rebuilding from map iteration, so order_ is a pure function of the live
  // id set.  ids_sorted_ is the parallel identifier mirror behind id_span().
  // Ranks at and after the insertion point shift by one — O(n − rank), which
  // an ascending bulk load never pays (every insert lands at the end).
  const auto pos = std::lower_bound(ids_sorted_.begin(), ids_sorted_.end(), id);
  const auto rank = static_cast<std::size_t>(pos - ids_sorted_.begin());
  ids_sorted_.insert(pos, id);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(rank), slot);
  slots_[slot].rank = rank;
  for (std::size_t r = rank + 1; r < order_.size(); ++r)
    slots_[order_[r]].rank = r;
  fenwick_dirty_ = true;
}

bool Engine::remove_process(Id id, bool purge_references) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const std::size_t slot_index = it->second;
  const std::size_t rank = slots_[slot_index].rank;
  SSSW_DCHECK(rank < order_.size() && order_[rank] == slot_index);
  pending_total_ -= slots_[slot_index].channel.size();
  slots_[slot_index].process.reset();
  slots_[slot_index].channel.clear();
  index_.erase(it);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(rank));
  SSSW_DCHECK(rank < ids_sorted_.size() && ids_sorted_[rank] == id);
  ids_sorted_.erase(ids_sorted_.begin() + static_cast<std::ptrdiff_t>(rank));
  for (std::size_t r = rank; r < order_.size(); ++r)
    slots_[order_[r]].rank = r;
  // Fail-stop semantics (§IV.G): "the connections it had to and from other
  // nodes also disappear" — that includes the temporary links formed by
  // in-flight messages carrying the departed identifier.  Without this
  // purge, a stale lin message can re-poison a neighbour's l/r with an id
  // that no longer answers, wedging the gap open forever.
  if (purge_references) {
    for (const std::size_t survivor : order_) {
      const std::size_t purged = slots_[survivor].channel.purge_references(id);
      pending_total_ -= purged;
      counters_.dropped += purged;
      if (metrics_.dropped) metrics_.dropped->add(purged);
    }
    if (faults_) {
      // Messages parked in the hold queue are in flight too, and the replay
      // history must forget the departed node or a later replay would
      // resurrect a reference that fail-stop already erased.
      const std::size_t purged = faults_->purge_references(id);
      counters_.dropped += purged;
      if (metrics_.dropped) metrics_.dropped->add(purged);
    }
  }
  // A departed process must not be woken by a stale alarm — and a node that
  // later re-joins under the same identifier must not inherit one either.
  for (auto& [due, bucket] : timers_) {
    const auto removed = std::erase_if(
        bucket, [id](const Timer& timer) { return timer.id == id; });
    timer_count_ -= removed;
  }
  fenwick_dirty_ = true;
  return true;
}

void Engine::schedule_timer(Id id, std::uint32_t delay, std::uint64_t tag) {
  SSSW_CHECK_MSG(delay >= 1, "timers must fire at least one round out");
  SSSW_CHECK_MSG(index_.contains(id), "cannot arm a timer for an unknown process");
  timers_[counters_.rounds + delay].push_back(Timer{id, tag});
  ++timer_count_;
}

/// Fires every timer due this round, in ascending-id order (stable per id),
/// before any channel is snapshotted — a timer action's sends land in
/// channels exactly like sends from last round's actions.  Re-arming from
/// inside on_timer targets a strictly later round (delay >= 1), so the loop
/// terminates.  With no timers armed this is one empty-map check: the
/// pre-timer trajectory is untouched byte for byte.  Always sequential (the
/// same code at every shard count): timer actions are rare next to protocol
/// actions, so parallelizing them buys nothing.
void Engine::fire_due_timers() {
  while (!timers_.empty() && timers_.begin()->first <= counters_.rounds) {
    due_timers_.swap(timers_.begin()->second);
    timers_.erase(timers_.begin());
    timer_count_ -= due_timers_.size();
    std::stable_sort(due_timers_.begin(), due_timers_.end(),
                     [](const Timer& a, const Timer& b) { return a.id < b.id; });
    for (const Timer& timer : due_timers_) {
      const auto it = index_.find(timer.id);
      if (it == index_.end()) continue;  // process gone: the alarm lapses
      ++counters_.actions;
      ++counters_.timers;
      if (metrics_.actions) metrics_.actions->add();
      if (metrics_.timers) metrics_.timers->add();
      Slot& slot = slots_[it->second];
      Context ctx(*this, timer.id, &slot.rng, it->second, nullptr);
      slot.process->on_timer(ctx, timer.tag);
    }
    due_timers_.clear();
  }
}

Process* Engine::find(Id id) noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : slots_[it->second].process.get();
}

const Process* Engine::find(Id id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : slots_[it->second].process.get();
}

void Engine::for_each(const std::function<void(const Process&)>& fn) const {
  for (const std::size_t slot : order_) fn(*slots_[slot].process);
}

/// Places `message` into the channel of `to`, or counts a drop when the
/// target departed or never existed.
void Engine::enqueue_or_drop(Id to, const Message& message) {
  const auto it = index_.find(to);
  if (it == index_.end()) {
    ++counters_.dropped;
    if (metrics_.dropped) metrics_.dropped->add();
    return;
  }
  Slot& slot = slots_[it->second];
  slot.channel.push(message);
  ++pending_total_;
  if (use_fenwick_ && !fenwick_dirty_) pending_by_rank_.add(slot.rank, 1);
}

void Engine::dispatch_send(std::size_t from_slot, Id to, const Message& message) {
  SSSW_DCHECK(message.type < kMaxMessageTypes);
  ++counters_.sent_by_type[message.type];
  if (metrics_.sent) metrics_.sent->add();
  for (const auto& [id, hook] : send_hooks_) hook(to, message);
  // Loss and fault fates draw from the *sender's* stream: each process's
  // draw sequence (protocol flips during its action, then the fates of its
  // own sends in issue order) is then a pure function of (state, seed),
  // independent of how many lanes executed the phase.
  Slot& sender = slots_[from_slot];
  if (config_.message_loss > 0.0 &&
      sender.rng.bernoulli(config_.message_loss)) {
    ++counters_.lost;
    if (metrics_.lost) metrics_.lost->add();
    return;
  }
  if (!faults_) {
    enqueue_or_drop(to, message);
    return;
  }
  // The injector decides the fate of this send; the engine keeps all the
  // channel and counter bookkeeping.  Duplicates and replays are channel
  // artefacts, not protocol sends: they skip the sent counter and the send
  // hooks, so a send capture shows what the protocol did, not what the
  // adversary fabricated.
  const FaultInjector::SendDecision decision = faults_->on_send(
      sender.process->id(), to, message, counters_.rounds + 1, sender.rng);
  if (decision.duplicated) {
    ++counters_.faults.duplicated;
    if (metrics_.faults_duplicated) metrics_.faults_duplicated->add();
  }
  if (decision.held > 0) {
    counters_.faults.delayed += decision.held;
    if (metrics_.faults_delayed) metrics_.faults_delayed->add(decision.held);
  }
  if (decision.partition_dropped) {
    ++counters_.faults.partition_dropped;
    if (metrics_.faults_partition_dropped)
      metrics_.faults_partition_dropped->add();
  }
  if (decision.deliver_now) enqueue_or_drop(to, message);
  if (decision.duplicate_now) enqueue_or_drop(to, message);
  if (decision.has_replay) {
    ++counters_.faults.replayed;
    if (metrics_.faults_replayed) metrics_.faults_replayed->add();
    enqueue_or_drop(decision.replay_to, decision.replay_message);
  }
}

bool Engine::inject(Id to, const Message& message) {
  const auto it = index_.find(to);
  if (it == index_.end()) return false;
  Slot& slot = slots_[it->second];
  slot.channel.push(message);
  ++pending_total_;
  if (use_fenwick_ && !fenwick_dirty_) pending_by_rank_.add(slot.rank, 1);
  return true;
}

void Engine::deliver(Slot& slot, std::size_t slot_index, const Message& message) {
  ++counters_.deliveries;
  ++counters_.actions;
  if (metrics_.delivered) metrics_.delivered->add();
  if (metrics_.actions) metrics_.actions->add();
  Context ctx(*this, slot.process->id(), &slot.rng, slot_index, nullptr);
  slot.process->on_message(ctx, message);
}

void Engine::deliver_buffered(Slot& slot, std::size_t slot_index,
                              const Message& message, EngineLane& lane) {
  ++lane.deliveries;
  ++lane.actions;
  if (metrics_.delivered) metrics_.delivered->add();
  if (metrics_.actions) metrics_.actions->add();
  Context ctx(*this, slot.process->id(), &slot.rng, slot_index, &lane);
  slot.process->on_message(ctx, message);
}

/// Common per-round epilogue: bumps the round counter, refreshes the
/// level gauges, and fires the round hooks (snapshotters poll here).
void Engine::finish_round() {
  ++counters_.rounds;
  if (metrics_.rounds) {
    metrics_.rounds->add();
    metrics_.channel_depth->set(static_cast<double>(pending_messages()));
    metrics_.processes->set(static_cast<double>(process_count()));
  }
  for (const auto& [id, hook] : round_hooks_) hook(counters_.rounds);
}

std::size_t Engine::effective_lanes(std::size_t n) const noexcept {
  return std::min(config_.shards, n);
}

void Engine::merge_lanes(std::size_t lanes) {
  for (std::size_t i = 0; i < lanes; ++i) {
    EngineLane& lane = lanes_[i];
    counters_.actions += lane.actions;
    counters_.deliveries += lane.deliveries;
    pending_total_ -= lane.drained;
    lane.actions = 0;
    lane.deliveries = 0;
    lane.drained = 0;
    // Lanes cover contiguous rank ranges and each lane appends in rank
    // order, so this concatenation IS the canonical (sender rank, send
    // order) sequence — the same sequence for every shard count.
    for (const PendingSend& send : lane.outbox)
      dispatch_send(send.from_slot, send.to, send.message);
    lane.outbox.clear();
    for (const EngineLane::TimerArm& arm : lane.timer_arms)
      schedule_timer(arm.id, arm.delay, arm.tag);
    lane.timer_arms.clear();
  }
}

void Engine::run_synchronous_round(ReceiptOrder order) {
  const std::size_t n = order_.size();
  if (n == 0) {
    finish_round();
    return;
  }
  const std::size_t lanes = effective_lanes(n);
  if (lanes_.size() < lanes) lanes_.resize(lanes);
  if (arrivals_.size() < slots_.size()) arrivals_.resize(slots_.size());
  const bool delayed = config_.scheduler == SchedulerKind::kDelayedRandom;

  // Phase A0: snapshot every channel *before* any delivery, so that messages
  // sent while processing this round's arrivals are delivered next round
  // (true synchronous semantics).  Each receiver drains with its own stream,
  // so the per-channel arrival order is independent of the lane partition —
  // and of which thread ran it.
  util::parallel_for_chunked(
      n, lanes, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        EngineLane& out = lanes_[lane];
        for (std::size_t rank = begin; rank < end; ++rank) {
          const std::size_t slot_index = order_[rank];
          Slot& slot = slots_[slot_index];
          const std::size_t before = slot.channel.size();
          if (delayed) {
            slot.channel.drain_sample(arrivals_[slot_index],
                                      config_.delivery_probability, slot.rng);
          } else {
            slot.channel.drain(arrivals_[slot_index], order, slot.rng);
          }
          out.drained += before - slot.channel.size();
        }
      });
  merge_lanes(lanes);

  // Phase A: every node receives everything that was pending at round start.
  // Receive actions only touch the receiver's own state and stream; their
  // sends buffer in the lane outbox until the barrier.
  util::parallel_for_chunked(
      n, lanes, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        EngineLane& out = lanes_[lane];
        for (std::size_t rank = begin; rank < end; ++rank) {
          const std::size_t slot_index = order_[rank];
          Slot& slot = slots_[slot_index];
          std::vector<Message>& messages = arrivals_[slot_index];
          for (const Message& message : messages)
            deliver_buffered(slot, slot_index, message, out);
          messages.clear();
        }
      });
  merge_lanes(lanes);

  // Phase B: every node executes its (always enabled) regular action.
  util::parallel_for_chunked(
      n, lanes, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        EngineLane& out = lanes_[lane];
        for (std::size_t rank = begin; rank < end; ++rank) {
          const std::size_t slot_index = order_[rank];
          Slot& slot = slots_[slot_index];
          ++out.actions;
          if (metrics_.actions) metrics_.actions->add();
          Context ctx(*this, slot.process->id(), &slot.rng, slot_index, &out);
          slot.process->on_regular(ctx);
        }
      });
  merge_lanes(lanes);
  finish_round();
}

/// The async scheduler stays sequential at every shard count: its whole
/// point is a single global interleaving of atomic actions, so there is no
/// phase to fan out.  Scheduler picks draw from the engine stream; protocol
/// flips, drain shuffles, and send fates draw from the acting process's
/// stream, exactly like the synchronous family.
void Engine::run_async_round() {
  ensure_fenwick();
  std::size_t budget = config_.async_actions_per_round;
  if (budget == 0) budget = process_count() + pending_messages();
  if (budget == 0) budget = 1;

  for (std::size_t step = 0; step < budget; ++step) {
    const std::size_t enabled = process_count() + pending_total_;
    if (enabled == 0) break;
    std::size_t pick = rng_.below(enabled);
    if (pick < process_count()) {
      const std::size_t slot_index = order_[pick];
      Slot& slot = slots_[slot_index];
      ++counters_.actions;
      if (metrics_.actions) metrics_.actions->add();
      Context ctx(*this, slot.process->id(), &slot.rng, slot_index, nullptr);
      slot.process->on_regular(ctx);
    } else {
      pick -= process_count();
      // Binary descent over the per-rank Fenwick index locates the channel
      // holding the pick-th pending message in O(log n); ranks follow the
      // canonical id order, so the pick → message mapping depends only on
      // the current state, not on how it was reached.
      const std::size_t rank =
          pending_by_rank_.find_kth(static_cast<std::int64_t>(pick));
      const std::size_t slot_index = order_[rank];
      Slot& slot = slots_[slot_index];
      const Message message =
          slot.channel.take_one(ReceiptOrder::kShuffled, slot.rng);
      note_drained(slot, 1);
      deliver(slot, slot_index, message);
    }
  }
  finish_round();
}

/// Moves every held message whose delay has elapsed back into its channel,
/// before the round snapshots channel contents — a message held `extra`
/// rounds is delivered exactly `extra` rounds later than it would have been.
void Engine::release_due_messages() {
  if (!faults_) return;
  faults_->collect_due(counters_.rounds, released_);
  for (const FaultInjector::Held& held : released_)
    enqueue_or_drop(held.to, held.message);
  released_.clear();
}

void Engine::run_round() {
  release_due_messages();
  fire_due_timers();
  switch (config_.scheduler) {
    case SchedulerKind::kSynchronous:
      run_synchronous_round(ReceiptOrder::kShuffled);
      break;
    case SchedulerKind::kRandomAsync:
      run_async_round();
      break;
    case SchedulerKind::kAdversarialLifo:
      run_synchronous_round(ReceiptOrder::kLifo);
      break;
    case SchedulerKind::kDelayedRandom:
      run_synchronous_round(ReceiptOrder::kShuffled);
      break;
    case SchedulerKind::kAdversarialOldestLast:
      run_synchronous_round(ReceiptOrder::kLifo);
      break;
  }
}

void Engine::deliver_pending_once() {
  if (arrivals_.size() < slots_.size()) arrivals_.resize(slots_.size());
  for (const std::size_t slot_index : order_) {
    Slot& slot = slots_[slot_index];
    const std::size_t before = slot.channel.size();
    slot.channel.drain(arrivals_[slot_index], ReceiptOrder::kShuffled, slot.rng);
    note_drained(slot, before - slot.channel.size());
  }
  for (const std::size_t slot_index : order_) {
    Slot& slot = slots_[slot_index];
    if (!slot.process) continue;
    for (const Message& message : arrivals_[slot_index])
      deliver(slot, slot_index, message);
    arrivals_[slot_index].clear();
  }
}

void Engine::run_rounds(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) run_round();
}

bool Engine::run_until(const std::function<bool()>& predicate, std::size_t max_rounds) {
  if (predicate()) return true;
  for (std::size_t i = 0; i < max_rounds; ++i) {
    run_round();
    if (predicate()) return true;
  }
  return false;
}

void Engine::for_each_pending(
    const std::function<void(Id to, const Message&)>& fn) const {
  for (std::size_t rank = 0; rank < order_.size(); ++rank)
    for (const Message& message : slots_[order_[rank]].channel.pending())
      fn(ids_sorted_[rank], message);
  // Held messages are channel contents that have not reached their channel
  // yet; hiding them would make connectivity views (Def. 4.2) lie about
  // in-flight references.
  if (faults_) faults_->for_each_held(fn);
}

void Engine::attach_metrics(obs::Registry& registry) {
  metrics_.rounds = &registry.counter("engine.rounds");
  metrics_.actions = &registry.counter("engine.actions");
  metrics_.sent = &registry.counter("engine.messages.sent");
  metrics_.delivered = &registry.counter("engine.messages.delivered");
  metrics_.dropped = &registry.counter("engine.messages.dropped");
  metrics_.lost = &registry.counter("engine.messages.lost");
  metrics_.timers = &registry.counter("engine.timers.fired");
  metrics_.faults_duplicated = &registry.counter("faults.messages.duplicated");
  metrics_.faults_delayed = &registry.counter("faults.messages.delayed");
  metrics_.faults_replayed = &registry.counter("faults.messages.replayed");
  metrics_.faults_partition_dropped =
      &registry.counter("faults.messages.partition-dropped");
  metrics_.channel_depth = &registry.gauge("engine.channel.depth");
  metrics_.processes = &registry.gauge("engine.processes");
}

namespace {

template <typename Hook>
Engine::HookId add_hook(std::vector<std::pair<Engine::HookId, Hook>>& hooks,
                        Engine::HookId& next_id, Hook hook) {
  SSSW_CHECK_MSG(hook != nullptr, "hooks must be callable; use remove to detach");
  const Engine::HookId id = next_id++;
  hooks.emplace_back(id, std::move(hook));
  return id;
}

template <typename Hook>
bool remove_hook(std::vector<std::pair<Engine::HookId, Hook>>& hooks,
                 Engine::HookId id) noexcept {
  for (std::size_t i = 0; i < hooks.size(); ++i) {
    if (hooks[i].first != id) continue;
    hooks.erase(hooks.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

}  // namespace

Engine::HookId Engine::add_send_hook(SendHook hook) {
  return add_hook(send_hooks_, next_hook_id_, std::move(hook));
}

bool Engine::remove_send_hook(HookId id) noexcept {
  return remove_hook(send_hooks_, id);
}

Engine::HookId Engine::add_round_hook(RoundHook hook) {
  return add_hook(round_hooks_, next_hook_id_, std::move(hook));
}

bool Engine::remove_round_hook(HookId id) noexcept {
  return remove_hook(round_hooks_, id);
}

}  // namespace sssw::sim
