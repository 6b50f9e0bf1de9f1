// ChannelAuditor — protocol-agnostic radio-model conformance checking.
//
// The repo's one independent re-derivation of Section 1's reception rules.
// It implements radio::NetworkAuditHook only (no core::RunAuditor
// lifecycle, no protocol-discipline or ground-truth checks), so any caller
// that owns a radio::Network — the open-system stream driver in particular
// — can attach it via Network::set_auditor; ModelAuditor builds one per
// k-broadcast run and forwards every engine event to it. Every `radio.*`
// check lives here:
//
//   * a node receives iff exactly one neighbor transmitted and the node
//     itself was silent; the engine's reach counts agree with a recount
//     straight from the adjacency lists;
//   * only awake nodes transmit; transmitters are deaf (half-duplex);
//   * on_collision callbacks fire exactly iff the CD ablation is on;
//   * fault erasures only occur under a fault model, only on slots that
//     would otherwise deliver;
//   * every reached node gets exactly one outcome per round, reconciled
//     at on_round_end against the recomputed expectation.
//
// Strictly read-only, no RNG draws: an audited run is bit-identical to an
// unaudited one. One instance audits one simulation; construct a fresh one
// per run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/violation.hpp"
#include "graph/graph.hpp"
#include "radio/audit_hook.hpp"

namespace radiocast::audit {

class ChannelAuditor final : public radio::NetworkAuditHook {
 public:
  struct Options {
    /// Reception-loss faults are enabled for this run (fault drops are
    /// legal iff true).
    bool faults_enabled = false;
    /// The collision-detection ablation is enabled (on_collision
    /// callbacks are legal iff true).
    bool collision_detection = false;
    /// If true, every node must be initially awake (the dynamic/stream
    /// setting); if false, the initial wake set is unconstrained.
    bool expect_all_awake = false;
  };

  /// Violations go into `sink` when one is given (it must outlive the
  /// auditor, which never clears it), else into the auditor's own report.
  ChannelAuditor(const graph::Graph& g, const Options& opts,
                 AuditReport* sink = nullptr);
  /// report_ may point into the object itself.
  ChannelAuditor(const ChannelAuditor&) = delete;
  ChannelAuditor& operator=(const ChannelAuditor&) = delete;

  const AuditReport& report() const { return *report_; }
  bool clean() const { return report_->clean(); }
  /// One-line human-readable summary ("clean" or first violation).
  std::string summary() const { return report_->summary(); }
  /// The round most recently opened by on_transmissions (0 before any).
  radio::Round current_round() const { return current_round_; }

  // --- radio::NetworkAuditHook ---
  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override;
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override;
  void on_deliver(radio::Round round, radio::NodeId receiver,
                  std::uint32_t tx_index, const radio::Message& msg) override;
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd_callback) override;
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override;
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override;
  void on_node_wake(radio::Round round, radio::NodeId node) override;
  void on_round_end(radio::Round round) override;

 private:
  enum class Outcome : std::uint8_t {
    kNone,
    kDelivered,
    kCollision,
    kDeaf,
    kFaultDrop
  };

  void violation(std::uint64_t round, std::uint32_t node, const char* check,
                 std::string detail) {
    report_->add(round, node, check, std::move(detail));
  }

  const graph::Graph& graph_;
  Options opts_;
  AuditReport own_report_;
  AuditReport* report_;  ///< the sink, or &own_report_

  radio::Round current_round_ = 0;
  bool round_open_ = false;
  std::vector<std::uint8_t> awake_;
  std::vector<std::uint32_t> reach_;
  std::vector<std::uint32_t> source_;  ///< first reaching tx index
  std::vector<std::uint8_t> transmitting_;
  std::vector<Outcome> outcome_;
  std::vector<radio::NodeId> touched_;
  std::vector<radio::NodeId> tx_from_;
};

}  // namespace radiocast::audit
