#include "obs/registry.hpp"

#include <cmath>

#include "util/check.hpp"

namespace sssw::obs {

namespace {

/// Bucket index for a sample: 0 for x <= 1, otherwise the smallest i with
/// x <= 2^i.  Implemented with exact double comparisons against power-of-two
/// edges (no std::log2, whose last-ulp behaviour is platform-dependent).
std::size_t bucket_index(double x) noexcept {
  std::size_t index = 0;
  double upper = 1.0;
  while (x > upper && index + 1 < Histogram::kBuckets) {
    upper *= 2.0;
    ++index;
  }
  return index;
}

}  // namespace

std::size_t Counter::next_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

void Histogram::observe(double x) noexcept {
  if (!(x >= 0.0)) return;  // negatives and NaN carry no log-scale meaning
  ++buckets_[bucket_index(x)];
  if (count_ == 0 || x < min_) min_ = x;
  if (count_ == 0 || x > max_) max_ = x;
  ++count_;
  sum_ += x;
}

double Histogram::bucket_upper(std::size_t i) noexcept {
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[i];
    if (static_cast<double>(seen) < rank) continue;
    // Interpolate inside bucket i between its lower and upper edge.
    const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
    const double hi = bucket_upper(i);
    const double frac = (rank - before) / static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * frac;
  }
  return max_;
}

void Histogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void Registry::check_name(const std::string& name, int kind) const {
  SSSW_CHECK_MSG(!name.empty(), "metric name must not be empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    SSSW_CHECK_MSG(ok, "metric names are lowercase dot-separated paths");
  }
  // A name must keep one kind for the life of the registry.
  SSSW_CHECK_MSG(kind == 0 || !counters_.contains(name),
                 "metric already registered as a counter");
  SSSW_CHECK_MSG(kind == 1 || !gauges_.contains(name),
                 "metric already registered as a gauge");
  SSSW_CHECK_MSG(kind == 2 || !histograms_.contains(name),
                 "metric already registered as a histogram");
}

Counter& Registry::counter(const std::string& name) {
  check_name(name, 0);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  check_name(name, 1);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  check_name(name, 2);
  return histograms_[name];
}

const Counter* Registry::find_counter(const std::string& name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const noexcept {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, metric] : other.counters_) counter(name).merge(metric);
  for (const auto& [name, metric] : other.gauges_) gauge(name).merge(metric);
  for (const auto& [name, metric] : other.histograms_)
    histogram(name).merge(metric);
}

void Registry::reset() noexcept {
  for (auto& [name, metric] : counters_) metric.reset();
  for (auto& [name, metric] : gauges_) metric.reset();
  for (auto& [name, metric] : histograms_) metric.reset();
}

std::vector<std::pair<std::string, double>> flatten(const Registry& registry) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(registry.counters().size() + registry.gauges().size() +
              3 * registry.histograms().size());
  for (const auto& [name, counter] : registry.counters())
    out.emplace_back(name, static_cast<double>(counter.value()));
  for (const auto& [name, gauge] : registry.gauges())
    out.emplace_back(name, gauge.value());
  for (const auto& [name, histogram] : registry.histograms()) {
    out.emplace_back(name + "_count", static_cast<double>(histogram.count()));
    out.emplace_back(name + "_mean", histogram.mean());
    out.emplace_back(name + "_p90", histogram.quantile(0.9));
  }
  return out;
}

}  // namespace sssw::obs
