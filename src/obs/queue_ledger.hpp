// Queue-depth ledger for the open-system stream driver.
//
// Sibling of ChannelLedger: capped per-sample rows for telemetry; the
// exact whole-run totals are the driver's stream::QueueStats. One row is
// appended per sampled round (the stream driver samples at every epoch
// boundary and at the horizon), aggregating the source buffers of ALL
// nodes — the ledger tracks the system backlog, not per-node detail. Rows
// beyond `max_rows` are dropped with an explicit count, never silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace radiocast::obs {

class QueueLedger {
 public:
  /// One aggregate backlog sample. The counter fields are cumulative
  /// (monotone) run totals as of the sampled round, so consecutive rows
  /// can be differenced for per-epoch deltas.
  struct Row {
    std::uint64_t round = 0;
    std::uint64_t buffered = 0;       ///< packets in bounded buffers
    std::uint64_t held_back = 0;      ///< packets parked by backpressure
    std::uint64_t in_flight = 0;      ///< admitted, not yet network-wide
    std::uint64_t offered = 0;        ///< cumulative arrivals offered
    std::uint64_t admitted = 0;       ///< cumulative admissions
    std::uint64_t dropped = 0;        ///< cumulative drops
    std::uint64_t backpressured = 0;  ///< cumulative deferrals
    std::uint64_t delivered = 0;      ///< cumulative packets known network-wide
  };

  explicit QueueLedger(std::size_t max_rows) : max_rows_(max_rows) {}

  void sample(const Row& row);

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped_rows() const { return dropped_rows_; }

 private:
  std::size_t max_rows_;
  std::vector<Row> rows_;
  std::uint64_t dropped_rows_ = 0;
};

}  // namespace radiocast::obs
