// Bounded source buffers and saturation detection for the stream layer.
//
// In the open system a node cannot hand the pipeline more packets than the
// pipeline can carry: arrivals that outrun the epoch capacity have to wait
// somewhere, and a real radio has finite memory. SourceQueue models that
// finite memory with three classic policies, and SaturationDetector turns
// the resulting queue-depth trace into a binary verdict ("offered load
// exceeds capacity") that the driver reports alongside throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radio/node.hpp"

namespace radiocast::stream {

/// What a full buffer does with the next arrival.
enum class BufferPolicy {
  kDropNew,       ///< reject the arriving packet (tail drop)
  kDropOld,       ///< evict the oldest buffered packet to make room
  kBackpressure,  ///< defer the arrival; it re-offers when space frees up
};

/// "drop_new" / "drop_old" / "backpressure" (the scenario-schema spelling).
const char* buffer_policy_name(BufferPolicy policy);
/// Inverse of buffer_policy_name; returns false on an unknown spelling.
bool buffer_policy_from_string(const std::string& s, BufferPolicy& out);

/// Exact per-queue counters, summable across nodes and trials.
struct QueueStats {
  std::uint64_t offered = 0;        ///< arrivals presented to the queue
  std::uint64_t admitted = 0;       ///< accepted into the buffer
  std::uint64_t dropped = 0;        ///< discarded (either policy's victim)
  std::uint64_t backpressured = 0;  ///< deferred at least once
  std::uint64_t peak_depth = 0;     ///< max buffered+held_back ever seen

  void merge(const QueueStats& other);
};

/// One node's bounded arrival buffer. `capacity` bounds the in-buffer
/// packets; under kBackpressure the deferred packets wait in a separate
/// holdback list (the "application" that has not transmitted yet) and
/// re-offer oldest-first whenever drain() frees space.
class SourceQueue {
 public:
  SourceQueue(std::uint32_t capacity, BufferPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  /// Present one arrival. Returns true when the packet entered the buffer
  /// immediately (false: dropped, or parked in the holdback list).
  bool offer(radio::Packet packet);

  /// Epoch boundary: hand every buffered packet to the pipeline, then
  /// refill from the holdback list (oldest first) up to capacity.
  std::vector<radio::Packet> drain();

  std::uint64_t depth() const { return buffer_.size() + holdback_.size(); }
  std::uint64_t buffered() const { return buffer_.size(); }
  std::uint64_t held_back() const { return holdback_.size(); }
  const QueueStats& stats() const { return stats_; }

 private:
  void admit(radio::Packet packet);
  void note_depth();

  std::uint32_t capacity_;
  BufferPolicy policy_;
  std::vector<radio::Packet> buffer_;
  std::vector<radio::Packet> holdback_;
  QueueStats stats_;
};

struct SaturationConfig {
  /// Depth samples per sliding-window comparison (the detector compares
  /// the newest sample against the one `window` samples earlier).
  std::uint32_t window = 8;
  /// Minimum total-depth growth across the window that counts as
  /// saturation. Guards against latching on small stable backlogs.
  std::uint64_t min_growth = 1;
};

/// Sliding-window queue-growth test over the aggregate queue depth. The
/// driver feeds one sample per epoch; the detector latches `saturated()`
/// the first time the depth grew by at least `min_growth` over a full
/// window — i.e. the backlog is trending up rather than oscillating around
/// a fixed working level.
class SaturationDetector {
 public:
  explicit SaturationDetector(const SaturationConfig& cfg);

  void sample(std::uint64_t total_depth);

  bool saturated() const { return saturated_; }
  /// Index (0-based, in sample order) of the sample that latched
  /// saturation; meaningful only when saturated().
  std::uint64_t onset_sample() const { return onset_; }

 private:
  SaturationConfig cfg_;
  std::vector<std::uint64_t> ring_;  ///< last window+1 samples
  std::uint64_t count_ = 0;
  bool saturated_ = false;
  std::uint64_t onset_ = 0;
};

}  // namespace radiocast::stream
