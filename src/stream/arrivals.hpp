// Deterministic arrival processes for the open-system streaming workload.
//
// A stream run replaces the closed k-packet placement with packets that
// keep arriving at every node for as long as the run lasts. The schedule
// is materialized up front from a *dedicated* RNG stream: an Rng seeded
// with ArrivalConfig::seed, split once per node in node order, so
//
//   * the same (n, config, horizon) triple always produces the same
//     byte-identical schedule, and
//   * arrival generation consumes zero draws from the placement / run /
//     fault streams of the closed scenarios — existing runs stay
//     draw-for-draw unchanged no matter how the stream layer evolves.
//
// Two process shapes cover the interesting regimes:
//   * kPoisson — i.i.d. exponential inter-arrival times per node (the
//     memoryless "millions of independent users" model); several packets
//     may land on one node in one round.
//   * kPeriodic — fixed period 1/rate per node with a random per-node
//     phase, the smooth constant-bit-rate counterpoint.
//
// Dynamic mode instead draws a finite list (make_arrivals): k packets at
// uniform rounds and nodes, from the caller's RNG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "radio/message.hpp"
#include "radio/node.hpp"

namespace radiocast::stream {

/// One packet arrival event: `packet` reaches `node` at `round`.
struct Arrival {
  radio::Round round = 0;
  radio::NodeId node = 0;
  radio::Packet packet;
};

enum class ArrivalKind { kPoisson, kPeriodic };

/// "poisson" / "periodic" (the spelling the scenario schema uses).
const char* arrival_kind_name(ArrivalKind kind);
/// Inverse of arrival_kind_name; returns false on an unknown spelling.
bool arrival_kind_from_string(const std::string& s, ArrivalKind& out);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Expected packets per node per round. 0 disables arrivals entirely.
  double rate = 0.0;
  std::uint32_t payload_bytes = 16;
  /// Root of the dedicated arrival stream (see the file comment).
  std::uint64_t seed = 0;
};

/// The full arrival schedule over [0, horizon) rounds for an n-node
/// network, sorted by round (ties in ascending node order). Packet ids are
/// radio::make_packet_id(node, seq) with per-node sequence numbers;
/// payloads are filled from the node's child stream.
std::vector<Arrival> make_arrival_schedule(std::uint32_t n,
                                           const ArrivalConfig& cfg,
                                           std::uint64_t horizon);

/// Dynamic mode's finite arrival list: `k` packets at uniform random rounds
/// in [0, spread_rounds) and uniform random nodes, sorted by round.
std::vector<Arrival> make_arrivals(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t spread_rounds,
                                   std::uint32_t payload_bytes, Rng& rng);

}  // namespace radiocast::stream
