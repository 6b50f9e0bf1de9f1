// Statistics accumulators used by the benchmark harness and by tests that
// validate probabilistic claims (reception probabilities, w.h.p. bounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace radiocast {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Also retains the first kPercentileBuffer samples so percentile() is
/// *exact* (nearest-rank on a sorted copy) for the sample counts the bench
/// harness actually sees; past that the buffer stops growing and
/// percentile() degrades to a nearest-rank estimate over the retained
/// prefix — percentile_exact() reports which regime applies. The result is
/// deterministic either way: it depends only on the multiset (and, beyond
/// the buffer, the order) of added samples, never on wall clock or
/// addresses.
class RunningStats {
 public:
  /// Samples retained for exact percentiles; bench tables reduce over
  /// seeds (≤ a few dozen), so this covers them with exactness to spare.
  static constexpr std::size_t kPercentileBuffer = 64;

  void add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// CAUTION: min()/max() return 0.0 on an empty accumulator, which is
  /// indistinguishable from a real 0.0 sample — check empty() first when
  /// the distinction matters.
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  /// Nearest-rank percentile (rank = max(1, ceil(q*n)), q in [0, 1]) over
  /// the retained sample buffer — an order statistic of the actual
  /// samples, never an interpolated value. Exact while
  /// percentile_exact(); 0.0 on an empty accumulator (same caveat as
  /// min()/max()).
  double percentile(double q) const;
  double median() const { return percentile(0.5); }
  /// True while every added sample is still retained, i.e. count() <=
  /// kPercentileBuffer, so percentile() is exact.
  bool percentile_exact() const { return count_ <= kPercentileBuffer; }

  /// Half-width of a normal-approximation 95% confidence interval on the
  /// mean. Zero for fewer than two samples.
  double ci95_halfwidth() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::vector<double> buffer_;  // first kPercentileBuffer samples
};

/// Accumulator that stores every sample; supports exact quantiles.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Exact quantile by linear interpolation between order statistics;
  /// q in [0, 1]. Must not be called on an empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Counter for Bernoulli experiments: tracks successes / trials and exposes
/// a Wilson-score interval, which behaves sensibly near 0 and 1 (where the
/// w.h.p. claims live).
class BernoulliCounter {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  std::uint64_t trials() const { return trials_; }
  std::uint64_t successes() const { return successes_; }
  double rate() const {
    return trials_ == 0 ? 0.0 : static_cast<double>(successes_) / static_cast<double>(trials_);
  }

  /// Lower bound of the 95% Wilson score interval for the success rate.
  double wilson_lower95() const;
  /// Upper bound of the 95% Wilson score interval for the success rate.
  double wilson_upper95() const;

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

/// Ordinary least-squares fit of y = a + b*x; used by scaling benches to
/// report empirical slopes against log Delta / log n predictors.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination in [0, 1].
  double r2 = 0.0;
};

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace radiocast
