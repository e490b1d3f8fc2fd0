// Small statistics helpers: the geometric mean behind the SciMark composite
// score, and the fixed-bucket histogram the telemetry hot paths record
// latencies into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcnet::support {

/// Geometric mean (used for the SciMark composite score).
double geometric_mean(const std::vector<double>& values);

/// Fixed-bucket power-of-two histogram for latency-style values (ns).
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
/// Recording is a few arithmetic ops and one array increment, so it is cheap
/// enough for telemetry hot paths; count/total/min/max are exact, percentiles
/// are bucket-resolution approximations.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value);
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(total_) / static_cast<double>(count_) : 0;
  }

  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_floor(std::size_t i);
  /// Inclusive upper bound of bucket i.
  static std::uint64_t bucket_ceil(std::size_t i);

  /// Value below which `p` percent (0..100) of samples fall. Resolved to the
  /// containing bucket's upper bound, clamped to the exact max.
  std::uint64_t percentile(double p) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace hpcnet::support
