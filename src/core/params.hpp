// Tunable parameters of the k-broadcast protocol and their resolution into
// concrete per-stage schedules.
//
// The paper specifies all stage lengths up to constant factors; the
// constants here are the library defaults, chosen empirically so that the
// w.h.p. claims hold across the test grid (they can be swept by the
// robustness benches). A value of 0 for any "0 => default" field means
// "derive from Knowledge".
#pragma once

#include <cstdint>

#include "radio/knowledge.hpp"

namespace radiocast::core {

struct KBroadcastConfig {
  radio::Knowledge know;

  // --- Stage 1: leader election ---
  /// Decay epochs per binary-search probe (an alarm window). 0 => BGI
  /// default Θ(D̂ + log n̂).
  std::uint32_t leader_probe_epochs = 0;

  // --- Stage 2: BFS construction ---
  /// Decay epochs per BFS phase. 0 => 6·log n̂ (each phase must deliver the
  /// frontier's construction message to all neighbors w.h.p.).
  std::uint32_t bfs_epochs_per_phase = 0;
  /// Extra phases beyond D̂ (slack for late layer assignments).
  std::uint32_t bfs_extra_phases = 2;

  // --- Stage 3: packet collection ---
  /// The paper's constant c in GRAB's cascade (OSPG down to c·log n and
  /// MSPG(c²log²n, c·log n)).
  std::uint32_t grab_c = 3;
  /// Decay epochs of each ALARM window. 0 => BGI default.
  std::uint32_t alarm_epochs = 0;

  // --- Stage 4: dissemination ---
  /// Packets per coded group, at most 64 (the ⌈log n⌉-bit coefficient
  /// header is one uint64 word). 0 => ⌈log n̂⌉ (the paper's choice).
  std::uint32_t group_size = 0;
  /// Decay epochs per FORWARD phase. 0 => 10·log n̂ (enough receptions for
  /// Lemma 3's full-rank threshold w.h.p.).
  std::uint32_t forward_epochs = 0;
  /// Phases between consecutive group injections (paper: 3 — the minimum
  /// spacing that keeps groups collision-disjoint; ablation knob).
  std::uint32_t group_spacing = 3;
  /// Random linear coding (the paper) vs plain per-packet forwarding
  /// (the BII-style baseline).
  bool coded = true;
};

/// All schedule constants resolved to concrete numbers.
struct ResolvedConfig {
  radio::Knowledge know;
  std::uint32_t log_n = 1;
  std::uint32_t log_delta = 1;

  // Stage 1.
  std::uint32_t leader_probes = 1;       ///< binary-search iterations
  std::uint32_t leader_probe_epochs = 1; ///< Decay epochs per probe
  std::uint64_t stage1_rounds = 0;

  // Stage 2.
  std::uint32_t bfs_phases = 1;
  std::uint32_t bfs_epochs_per_phase = 1;
  std::uint64_t bfs_phase_rounds = 0;
  std::uint64_t stage2_rounds = 0;

  // Stage 3.
  std::uint32_t grab_c = 3;
  std::uint64_t c_log_n = 1;            ///< c·log n̂ (cascade floor)
  std::uint32_t alarm_epochs = 1;
  std::uint64_t alarm_rounds = 0;       ///< rounds per ALARM window
  std::uint64_t initial_estimate = 1;   ///< x₀ = (D̂+log n̂)·log n̂

  // Stage 4.
  std::uint32_t group_size = 1;
  std::uint32_t forward_epochs = 1;
  std::uint32_t group_spacing = 3;
  bool coded = true;
  std::uint64_t dissem_phase_rounds = 0;

  std::uint64_t stage3_start() const { return stage1_rounds + stage2_rounds; }
};

/// Fills every derived field from the config's knowledge and constants.
ResolvedConfig resolve(const KBroadcastConfig& cfg);

}  // namespace radiocast::core
