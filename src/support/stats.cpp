#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

namespace hpcnet::support {

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

std::size_t bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  std::size_t bits = 0;
  while (v != 0) {
    v >>= 1;
    ++bits;
  }
  return bits < Histogram::kBuckets ? bits : Histogram::kBuckets - 1;
}

}  // namespace

void Histogram::record(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  ++count_;
  total_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ += other.total_;
  if (other.count_ != 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

void Histogram::reset() { *this = Histogram{}; }

std::uint64_t Histogram::bucket_floor(std::size_t i) {
  return i == 0 ? 0 : 1ull << (i - 1);
}

std::uint64_t Histogram::bucket_ceil(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kBuckets - 1) return ~0ull;
  return (1ull << i) - 1;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the sample at percentile p (1-based, nearest-rank method).
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const std::uint64_t ceil = bucket_ceil(i);
      return ceil < max_ ? ceil : max_;
    }
  }
  return max_;
}

}  // namespace hpcnet::support
