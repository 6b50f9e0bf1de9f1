#include "core/params.hpp"

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "protocols/bgi_broadcast.hpp"

namespace radiocast::core {

ResolvedConfig resolve(const KBroadcastConfig& cfg) {
  ResolvedConfig rc;
  rc.know = cfg.know;
  rc.log_n = cfg.know.log_n();
  rc.log_delta = cfg.know.log_delta();

  // Stage 1: binary search over the padded id space [0, 2^B).
  rc.leader_probes = ceil_log2(next_pow2(cfg.know.n_hat));
  if (rc.leader_probes == 0) rc.leader_probes = 1;
  rc.leader_probe_epochs = cfg.leader_probe_epochs != 0
                               ? cfg.leader_probe_epochs
                               : protocols::bgi_default_epochs(cfg.know);
  rc.stage1_rounds = static_cast<std::uint64_t>(rc.leader_probes) *
                     rc.leader_probe_epochs * rc.log_delta;

  // Stage 2.
  rc.bfs_phases = cfg.know.d_hat + cfg.bfs_extra_phases;
  rc.bfs_epochs_per_phase =
      cfg.bfs_epochs_per_phase != 0 ? cfg.bfs_epochs_per_phase : 6 * rc.log_n;
  rc.bfs_phase_rounds =
      static_cast<std::uint64_t>(rc.bfs_epochs_per_phase) * rc.log_delta;
  rc.stage2_rounds = static_cast<std::uint64_t>(rc.bfs_phases) * rc.bfs_phase_rounds;

  // Stage 3.
  rc.grab_c = cfg.grab_c;
  rc.c_log_n = static_cast<std::uint64_t>(cfg.grab_c) * rc.log_n;
  rc.alarm_epochs =
      cfg.alarm_epochs != 0 ? cfg.alarm_epochs : protocols::bgi_default_epochs(cfg.know);
  rc.alarm_rounds = static_cast<std::uint64_t>(rc.alarm_epochs) * rc.log_delta;
  rc.initial_estimate =
      static_cast<std::uint64_t>(cfg.know.d_hat + rc.log_n) * rc.log_n;

  // Stage 4.
  rc.group_size = cfg.group_size != 0 ? cfg.group_size : rc.log_n;
  // Both pipelines address a packet by its bit in one uint64 word (the
  // CodedMsg coefficient header, the decoder's unit rows).
  RC_ASSERT_MSG(rc.group_size <= 64,
                "group_size exceeds 64: the coefficient header is one 64-bit word");
  rc.forward_epochs = cfg.forward_epochs != 0 ? cfg.forward_epochs : 10 * rc.log_n;
  rc.group_spacing = cfg.group_spacing;
  rc.coded = cfg.coded;
  // A phase must fit both a FORWARD execution and the root's one-by-one
  // injection of a whole group.
  rc.dissem_phase_rounds =
      std::max<std::uint64_t>(static_cast<std::uint64_t>(rc.forward_epochs) * rc.log_delta,
                              rc.group_size);
  return rc;
}

}  // namespace radiocast::core
