#include "obs/queue_ledger.hpp"

namespace radiocast::obs {

void QueueLedger::sample(const Row& row) {
  if (rows_.size() < max_rows_) {
    rows_.push_back(row);
  } else {
    ++dropped_rows_;
  }
}

}  // namespace radiocast::obs
