// Round-scoped payload buffer recycling for the simulation engine.
//
// Every transmitted PlainPacketMsg / DataMsg / CodedMsg carries a
// gf2::Payload (a heap byte vector). Without recycling, each transmission
// costs one malloc in the protocol's on_transmit and one free when the
// engine clears its per-round transmission buffer — at sweep scale that
// is millions of allocator round-trips whose only purpose is to hand the
// same few dozen bytes back and forth.
//
// PayloadArena breaks the cycle: the Network owns one arena per run and,
// when a round's transmissions are retired, harvests their payload
// buffers back into a free pool (`recycle_body`); protocols acquire
// buffers from the pool when building outgoing messages (`acquire` /
// `acquire_copy`). After the first round of a steady workload every
// payload is bump-served from recycled capacity, and the pool stays
// bounded by the buffers in circulation (one round's transmissions plus
// the rows parked in decoders) — but only because the protocols acquire
// from it. The harvest is unconditional, so a protocol that builds its
// payloads on the heap instead makes the pool grow by one buffer per
// transmission for the whole run.
//
// Determinism: an acquired buffer is always handed out logically empty
// (size 0) and fully overwritten by the caller, so payload *bytes* on the
// air are bit-identical with and without an arena; no RNG is involved.
// Protocols therefore treat the arena as a pure allocation hint: every
// call site falls back to a plain heap vector when no arena is attached
// (protocols driven outside a Network, unit tests).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "radio/message.hpp"

namespace radiocast::radio {

/// Per-run free pool of payload buffers (see file comment for the cycle).
class PayloadArena {
 public:
  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  PayloadArena(PayloadArena&&) = default;
  PayloadArena& operator=(PayloadArena&&) = default;

  /// An empty payload, reusing pooled capacity when available. The caller
  /// fills it completely (append/resize only — contents start empty).
  gf2::Payload acquire() {
    if (pool_.empty()) {
      ++misses_;
      return {};
    }
    ++hits_;
    gf2::Payload buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();
    return buf;
  }

  /// A payload holding a copy of `src`, reusing pooled capacity.
  gf2::Payload acquire_copy(const gf2::Payload& src) {
    gf2::Payload buf = acquire();
    buf.assign(src.begin(), src.end());
    return buf;
  }

  /// A copy of `src` whose payload buffer (if any) comes from the pool;
  /// payload-free message kinds are copied verbatim. Byte-identical to a
  /// plain `MessageBody out = src`.
  MessageBody copy_body(const MessageBody& src) {
    if (const auto* plain = std::get_if<PlainPacketMsg>(&src)) {
      PlainPacketMsg out;
      out.packet.id = plain->packet.id;
      out.packet.payload = acquire_copy(plain->packet.payload);
      out.group_id = plain->group_id;
      out.group_count = plain->group_count;
      out.index_in_group = plain->index_in_group;
      out.group_size = plain->group_size;
      return out;
    }
    if (const auto* coded = std::get_if<CodedMsg>(&src)) {
      CodedMsg out;
      out.group_id = coded->group_id;
      out.group_count = coded->group_count;
      out.group_size = coded->group_size;
      out.coeffs = coded->coeffs;
      out.payload = acquire_copy(coded->payload);
      return out;
    }
    if (const auto* data = std::get_if<DataMsg>(&src)) {
      DataMsg out;
      out.packet.id = data->packet.id;
      out.packet.payload = acquire_copy(data->packet.payload);
      out.to = data->to;
      return out;
    }
    return src;
  }

  /// Returns a spent buffer to the pool (no-op for capacity-free buffers).
  void recycle(gf2::Payload&& buf) {
    if (buf.capacity() == 0) return;
    pool_.push_back(std::move(buf));
  }

  /// Returns a batch of spent buffers to the pool — e.g. the drained wire
  /// images of a completed IncrementalDecoder (take_packets) after the
  /// packets have been parsed out of them.
  void recycle_all(std::vector<gf2::Payload>&& bufs) {
    for (gf2::Payload& buf : bufs) recycle(std::move(buf));
  }

  /// Harvests the payload buffer (if any) out of a retired message body.
  /// The body is left with an empty payload; callers must be done with it.
  void recycle_body(MessageBody& body) {
    switch (body.index()) {
      case 2:  // DataMsg
        recycle(std::move(std::get_if<DataMsg>(&body)->packet.payload));
        return;
      case 4:  // PlainPacketMsg
        recycle(std::move(std::get_if<PlainPacketMsg>(&body)->packet.payload));
        return;
      case 5:  // CodedMsg
        recycle(std::move(std::get_if<CodedMsg>(&body)->payload));
        return;
      default:  // payload-free kinds
        return;
    }
  }

  /// Buffers currently idle in the pool.
  std::size_t pooled() const { return pool_.size(); }
  /// Acquire calls served from the pool / from the heap (observability).
  std::uint64_t hits() const { return hits_; }
  /// Acquire calls that fell back to a fresh heap buffer.
  std::uint64_t misses() const { return misses_; }

 private:
  std::vector<gf2::Payload> pool_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace radiocast::radio
