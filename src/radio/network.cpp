#include "radio/network.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "graph/packed.hpp"

namespace radiocast::radio {

const char* engine_mode_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::kScalar:
      return "scalar";
    case EngineMode::kBitset:
      return "bitset";
    case EngineMode::kAuto:
      return "auto";
  }
  return "auto";
}

Network::Network(const graph::Graph& graph)
    : graph_(graph),
      protocols_(graph.num_nodes(), nullptr),
      awake_(graph.num_nodes(), 0),
      poll_at_(graph.num_nodes(), 0),
      transmitting_(graph.num_nodes(), 0),
      reach_(graph.num_nodes(), ReachSlot{0, 0}),
      payload_arena_(std::make_unique<PayloadArena>()) {
  RC_ASSERT_MSG(graph.finalized(), "Network requires a finalized graph");
  // Sized up front so the first round allocates like every other round
  // (touched_ is a fixed-size scratch buffer — at most one entry per node
  // plus one slack slot for Phase 2's unconditional cursor write once all
  // nodes are touched; a modest transmission reserve absorbs typical
  // rounds and grows at most O(log n) times otherwise).
  touched_.resize(static_cast<std::size_t>(graph.num_nodes()) + 1);
  transmissions_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
  tx_meta_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
  tx_from_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
}

void Network::set_protocol(NodeId id, std::unique_ptr<NodeProtocol> protocol) {
  set_protocol(id, protocol.get());
  owned_.push_back(std::move(protocol));
}

void Network::set_protocol(NodeId id, NodeProtocol* protocol) {
  RC_ASSERT_MSG(id < num_nodes(), "set_protocol on an out-of-range id");
  RC_ASSERT(protocol != nullptr);
  RC_ASSERT_MSG(!started_, "set_protocol after the simulation started");
  protocol->set_payload_arena(payload_arena_.get());
  protocols_[id] = protocol;
}

NodeProtocol& Network::protocol(NodeId id) {
  RC_ASSERT(id < num_nodes() && protocols_[id] != nullptr);
  return *protocols_[id];
}

const NodeProtocol& Network::protocol(NodeId id) const {
  RC_ASSERT(id < num_nodes() && protocols_[id] != nullptr);
  return *protocols_[id];
}

void Network::wake_at_start(NodeId id) {
  RC_ASSERT_MSG(id < num_nodes(), "wake_at_start on an out-of-range id");
  RC_ASSERT_MSG(!started_, "wake_at_start after the simulation started");
  if (!awake_[id]) {
    awake_[id] = 1;
    awake_list_.push_back(id);
    awake_list_dirty_ = true;
    pending_initial_wakes_.push_back(id);
  }
}

void Network::set_fault_model(const FaultModel& model) {
  RC_ASSERT_MSG(!started_, "set_fault_model after the simulation started");
  RC_ASSERT(model.reception_loss_probability >= 0.0 &&
            model.reception_loss_probability <= 1.0);
  fault_model_ = model;
  fault_rng_.reseed(model.seed);
}

void Network::enable_collision_detection(bool on) {
  RC_ASSERT_MSG(!started_, "enable_collision_detection after the simulation started");
  collision_detection_ = on;
}

void Network::set_auditor(NetworkAuditHook* auditor) {
  RC_ASSERT_MSG(!started_ || auditor == nullptr,
                "set_auditor after the simulation started");
  auditor_ = auditor;
}

void Network::set_test_mutations(const EngineMutations& mutations) {
  RC_ASSERT_MSG(!started_, "set_test_mutations after the simulation started");
  mutations_ = mutations;
}

void Network::set_engine(EngineMode mode) {
  RC_ASSERT_MSG(!started_, "set_engine after the simulation started");
  engine_ = mode;
}

void Network::wake(NodeId id) {
  if (!awake_[id]) {
    awake_[id] = 1;
    awake_list_.push_back(id);
    awake_list_dirty_ = true;
    ++trace_.counters().wakeups;
    if (auditor_ != nullptr) auditor_->on_node_wake(round_, id);
    upcall(id).on_wake(round_);
  }
}

void Network::step() {
  if (!started_) {
    started_ = true;
    if (auditor_ != nullptr) auditor_->on_sim_start(pending_initial_wakes_);
    for (NodeId id : pending_initial_wakes_) {
      ++trace_.counters().wakeups;
      upcall(id).on_wake(round_);
    }
    pending_initial_wakes_.clear();
#ifndef NDEBUG
    for (NodeId id = 0; id < num_nodes(); ++id) {
      RC_ASSERT_MSG(protocols_[id] != nullptr, "every node needs a protocol");
    }
#endif
    if (engine_ != EngineMode::kScalar) {
      const std::size_t n = num_nodes();
      tx_bits_.resize(n);
      once_bits_.resize(n);
      twice_bits_.resize(n);
      tx_index_of_.resize(n);
    }
  }

  // Last round's payload buffers go back to the arena first, so this
  // round's on_transmit calls can reuse them instead of hitting the heap.
  for (Message& spent : transmissions_) payload_arena_->recycle_body(spent.body);
  transmissions_.clear();
  tx_meta_.clear();
  tx_from_.clear();
  if (awake_list_dirty_) {
    std::sort(awake_list_.begin(), awake_list_.end());
    awake_list_dirty_ = false;
  }

  // Phase 1: collect transmission decisions from awake nodes that are due
  // a poll. Both kernels start from this transmit set.
  poll_transmitters();
  if (auditor_ != nullptr) auditor_->on_transmissions(round_, transmissions_);

  // Phases 2-3. Fault erasures (the shared Rng draws once per successful
  // slot, in receiver-touch order), an audit hook and the test mutations
  // all observe the scalar sweep's order, so any round with one of them
  // attached runs there under every mode. Without them per-node outcomes
  // are order-independent (protocols only interact through the channel,
  // which the round's transmit set already fixes), and the bitset sweep
  // may classify receivers word-wise in id order.
  //
  // kAuto's rule: take the bitset sweep once the transmitters' rows hold
  // at least n neighbor slots, i.e. the round reaches the average node at
  // least once. Below that most reached nodes are single receptions, which
  // the scalar sweep resolves from its reach slot while the bitset sweep
  // re-scans the receiver's row; above it collisions dominate, and the
  // bitset sweep classifies 64 of them with one AND. The sum also bounds
  // the bitset sweep's fixed cost, its passes over the n/64 words, by one
  // word per 64 slots. Fit from bench_engine_step (docs/performance.md).
  const bool order_sensitive =
      auditor_ != nullptr || fault_model_.reception_loss_probability > 0.0 ||
      mutations_.deliver_on_collision || mutations_.deliver_while_transmitting ||
      mutations_.skip_wake_on_receive;
  const bool bitset_pays = engine_ == EngineMode::kAuto
                               ? tx_degree_sum_ >= num_nodes()
                               : engine_ == EngineMode::kBitset;
  if (!order_sensitive && bitset_pays) {
    ++bitset_rounds_;
    sweep_bitset();
  } else {
    sweep_scalar();
  }

  if (auditor_ != nullptr) auditor_->on_round_end(round_);
  ++round_;
  ++trace_.counters().rounds;
}

void Network::poll_transmitters() {
  // The dense awake list replaces the historical full-n scan; it is kept
  // sorted so on_transmit fires in the same ascending-id order as that
  // scan did. Counter deltas accumulate in locals and flush once after the
  // loop: the virtual on_transmit calls would otherwise force a
  // reload/store of the trace structure per awake node. Observable state
  // is unchanged — nothing reads the counters until after the flush.
  std::uint64_t bits_tx_acc = 0;
  std::uint64_t polls_acc = 0;
  std::size_t degree_acc = 0;
  std::array<std::uint64_t, kNumMessageKinds> tx_kind_acc{};
  NodeProtocol* const* const tx_protocols = protocols_.data();
  const std::size_t* const offsets = graph_.csr_offsets();
  Round* const poll_at = poll_at_.data();
  const Round round_now = round_;
  // awake_list_ cannot change inside this loop (wake() only fires on
  // reception, in Phase 3), so its bounds are hoisted past the virtual
  // calls. Nodes inside a declared quiet spell are skipped without a call
  // (see NodeProtocol::quiet_until): the loop costs one hint load per
  // awake node plus one virtual call per due node.
  const NodeId* const awake_ids = awake_list_.data();
  const std::size_t awake_n = awake_list_.size();
  for (std::size_t i = 0; i < awake_n; ++i) {
    const NodeId id = awake_ids[i];
    if (poll_at[id] > round_now) continue;
    NodeProtocol* const proto = tx_protocols[id];
    std::optional<MessageBody> body = proto->on_transmit(round_now);
    poll_at[id] = proto->quiet_until();
    ++polls_acc;
    if (body.has_value()) {
      const auto bits = static_cast<std::uint32_t>(message_size_bits(*body));
      const auto kind = static_cast<std::uint32_t>(message_kind_index(*body));
      bits_tx_acc += bits;
      degree_acc += offsets[id + 1] - offsets[id];
      ++tx_kind_acc[kind];
      // emplace + move-assign: one variant move instead of the two a
      // `push_back({id, std::move(*body)})` temporary would cost.
      Message& slot = transmissions_.emplace_back();
      slot.from = id;
      slot.body = std::move(*body);
      tx_meta_.push_back({bits, kind});
      tx_from_.push_back(id);
    }
  }
  tx_degree_sum_ = degree_acc;
  TraceCounters& c = trace_.counters();
  c.transmissions += transmissions_.size();
  c.bits_transmitted += bits_tx_acc;
  c.polls += polls_acc;
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    c.transmissions_by_kind[k] += tx_kind_acc[k];
  }
}

void Network::sweep_scalar() {
  // Phase 2: compute, per node, how many transmissions reached it. The
  // loop is branchless: whether a neighbor is newly touched is a random,
  // unpredictable bit, so the classical `if (first touch) append` form
  // mispredicts on a large fraction of the visits. Instead every visit
  // unconditionally writes the next free touched_ slot and the cursor
  // advances only on first touch (stale writes are overwritten or ignored),
  // and the first-reacher index is kept via a conditional move. touched_
  // ends up holding exactly the first-touch sequence, in the same order
  // the branching form produced.
  std::size_t touched_count = 0;
  {
    const std::size_t tx_count = tx_from_.size();
    const std::size_t* const offsets = graph_.csr_offsets();
    const NodeId* const targets = graph_.csr_targets();
    ReachSlot* const reach = reach_.data();
    NodeId* const touched = touched_.data();
    std::uint8_t* const transmitting = transmitting_.data();
    for (std::uint32_t t = 0; t < tx_count; ++t) {
      const NodeId u = tx_from_[t];
      transmitting[u] = 1;
      const std::size_t end = offsets[u + 1];
      for (std::size_t e = offsets[u]; e < end; ++e) {
        const NodeId v = targets[e];
        // Single 8-byte load/store of the packed slot, with the
        // first-reacher select done in mask arithmetic: written this way
        // (rather than with ?:) so the compiler cannot re-introduce a
        // first-touch branch — see the phase comment above.
        std::uint64_t packed;
        std::memcpy(&packed, &reach[v], sizeof packed);
        const std::uint32_t cnt = static_cast<std::uint32_t>(packed);
        const std::uint32_t src = static_cast<std::uint32_t>(packed >> 32);
        const std::uint32_t is_new = cnt == 0 ? 1u : 0u;
        const std::uint32_t new_src = src ^ ((src ^ t) & (0u - is_new));
        packed = (static_cast<std::uint64_t>(new_src) << 32) |
                 static_cast<std::uint64_t>(cnt + 1);
        std::memcpy(&reach[v], &packed, sizeof packed);
        touched[touched_count] = v;
        touched_count += is_new;
      }
    }
  }

  // Phase 3: deliveries — exactly one reaching message, receiver silent.
  // Scratch arrays go through hoisted pointers and counter deltas through
  // local accumulators (flushed after the loop): the on_receive virtual
  // calls would otherwise force per-receiver reloads of every member.
  // Nothing observes the counters until after the flush, so the batching
  // is invisible.
  const bool faults_on = fault_model_.reception_loss_probability > 0.0;
  {
    const std::uint8_t* const transmitting = transmitting_.data();
    ReachSlot* const reach = reach_.data();
    const Message* const txs = transmissions_.data();
    const TxMeta* const tx_meta = tx_meta_.data();
    std::uint64_t deliveries_acc = 0;
    std::uint64_t bits_rx_acc = 0;
    std::uint64_t collision_acc = 0;
    std::uint64_t deaf_acc = 0;
    std::uint64_t fault_acc = 0;
    std::array<std::uint64_t, kNumMessageKinds> rx_kind_acc{};
    const NodeId* const touched = touched_.data();
    for (std::size_t i = 0; i < touched_count; ++i) {
      const NodeId v = touched[i];
      const ReachSlot slot = reach[v];
      const std::uint32_t reached = slot.count;
      reach[v].count = 0;  // reset for the next round

      // Delivery path, shared by the model and by the seeded-bug mutations.
      // Force-inlined: it sits on the hot tail of the loop and the
      // compiler otherwise outlines it for the three rare mutation sites.
      // The awake_[v] guard is replicated here so the common
      // already-awake delivery skips the wake() call entirely (wake
      // re-checks, so semantics are untouched).
      const auto deliver = [&](std::uint32_t source) __attribute__((always_inline)) {
        const Message& tx = txs[source];
        const TxMeta meta = tx_meta[source];
        ++deliveries_acc;
        bits_rx_acc += meta.size_bits;
        ++rx_kind_acc[meta.kind];
        if (auditor_ != nullptr) auditor_->on_deliver(round_, v, source, tx);
        if (!mutations_.skip_wake_on_receive && !awake_[v]) wake(v);
        upcall(v).on_receive(round_, tx);
      };

      if (transmitting[v]) {
        ++deaf_acc;
        if (auditor_ != nullptr) auditor_->on_deaf_slot(round_, v, reached);
        if (mutations_.deliver_while_transmitting) deliver(slot.source);
        continue;
      }
      if (reached >= 2) {
        ++collision_acc;
        if (auditor_ != nullptr) {
          auditor_->on_collision_slot(round_, v, reached, collision_detection_);
        }
        if (collision_detection_) {
          wake(v);
          upcall(v).on_collision(round_);
        }
        if (mutations_.deliver_on_collision) deliver(slot.source);
        continue;
      }
      if (faults_on && fault_rng_.next_bool(fault_model_.reception_loss_probability)) {
        // Injected interference: the receiver observes silence.
        ++fault_acc;
        if (auditor_ != nullptr) auditor_->on_fault_drop(round_, v, slot.source);
        continue;
      }
      deliver(slot.source);
    }
    TraceCounters& c = trace_.counters();
    c.deliveries += deliveries_acc;
    c.bits_delivered += bits_rx_acc;
    c.collision_slots += collision_acc;
    c.deaf_slots += deaf_acc;
    c.fault_drops += fault_acc;
    for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
      c.deliveries_by_kind[k] += rx_kind_acc[k];
    }
  }
  for (const NodeId from : tx_from_) transmitting_[from] = 0;
}

void Network::sweep_bitset() {
  const graph::PackedRows& rows = graph_.packed_rows();
  const std::size_t nw = tx_bits_.num_words();
  std::uint64_t* const tx = tx_bits_.words().data();
  std::uint64_t* const once = once_bits_.words().data();
  std::uint64_t* const twice = twice_bits_.words().data();
  std::fill_n(once, nw, 0);
  std::fill_n(twice, nw, 0);

  // Phase 1's transmitters as bits, plus the id -> transmission index map
  // the delivery walk resolves senders through.
  std::fill_n(tx, nw, 0);
  for (std::uint32_t t = 0; t < tx_from_.size(); ++t) {
    const NodeId id = tx_from_[t];
    tx[id >> 6] |= 1ULL << (id & 63);
    tx_index_of_[id] = t;
  }

  // Phase 2: carry-save scatter. Each transmitter ORs the word groups of
  // its neighbor row into the (once, twice) pair; afterwards once & ~twice
  // is the exactly-one set.
  for (std::size_t w0 = 0; w0 < nw; ++w0) {
    std::uint64_t word = tx[w0];
    while (word != 0) {
      const auto u = static_cast<NodeId>((w0 << 6) + std::countr_zero(word));
      word &= word - 1;
      for (const graph::WordGroup& g : rows.row(u)) {
        twice[g.word] |= once[g.word] & g.mask;
        once[g.word] |= g.mask;
      }
    }
  }

  // Phase 3: classify all 64 receivers of a word at once.
  //   deaf      = once &  tx          (heard something while sending)
  //   collision = twice & ~tx         (>= 2 reached, silent)
  //   success   = once & ~twice & ~tx (exactly 1 reached, silent)
  // Deaf and collision slots are pure popcounts; only successes (and,
  // under the CD ablation, collisions) walk their bits.
  std::uint64_t deliveries_acc = 0;
  std::uint64_t bits_rx_acc = 0;
  std::uint64_t collision_acc = 0;
  std::uint64_t deaf_acc = 0;
  std::array<std::uint64_t, kNumMessageKinds> rx_kind_acc{};
  for (std::size_t w0 = 0; w0 < nw; ++w0) {
    const std::uint64_t o = once[w0];
    if (o == 0) continue;
    const std::uint64_t tw = twice[w0];
    const std::uint64_t txw = tx[w0];
    deaf_acc += static_cast<std::uint64_t>(std::popcount(o & txw));
    const std::uint64_t coll = tw & ~txw;
    collision_acc += static_cast<std::uint64_t>(std::popcount(coll));
    if (collision_detection_ && coll != 0) {
      std::uint64_t cbits = coll;
      while (cbits != 0) {
        const auto v = static_cast<NodeId>((w0 << 6) + std::countr_zero(cbits));
        cbits &= cbits - 1;
        wake(v);
        upcall(v).on_collision(round_);
      }
    }
    std::uint64_t succ = o & ~tw & ~txw;
    while (succ != 0) {
      const auto v = static_cast<NodeId>((w0 << 6) + std::countr_zero(succ));
      succ &= succ - 1;
      // Exactly one transmitter reached v, so the first nonzero
      // row-word intersection pins it (first-hit trick).
      NodeId from = 0;
      for (const graph::WordGroup& g : rows.row(v)) {
        const std::uint64_t hits = tx[g.word] & g.mask;
        if (hits != 0) {
          from = static_cast<NodeId>((static_cast<std::size_t>(g.word) << 6) +
                                     std::countr_zero(hits));
          break;
        }
      }
      const std::uint32_t idx = tx_index_of_[from];
      const Message& txm = transmissions_[idx];
      const TxMeta meta = tx_meta_[idx];
      ++deliveries_acc;
      bits_rx_acc += meta.size_bits;
      ++rx_kind_acc[meta.kind];
      if (!awake_[v]) wake(v);
      upcall(v).on_receive(round_, txm);
    }
  }
  {
    TraceCounters& c = trace_.counters();
    c.deliveries += deliveries_acc;
    c.bits_delivered += bits_rx_acc;
    c.collision_slots += collision_acc;
    c.deaf_slots += deaf_acc;
    for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
      c.deliveries_by_kind[k] += rx_kind_acc[k];
    }
  }
}

bool Network::advance_done_count() {
  while (done_count_ < num_nodes() && protocols_[done_count_]->done()) ++done_count_;
  return done_count_ == num_nodes();
}

bool Network::run_until_done(Round max_rounds) {
  done_count_ = 0;  // re-verify from scratch: protocols may have been swapped
  if (advance_done_count()) return true;
  for (Round r = 0; r < max_rounds; ++r) {
    step();
    if (advance_done_count()) return true;
  }
  return false;
}

}  // namespace radiocast::radio
