#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace ber::obs {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string metric_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += sorted[i].first + "=\"" + sorted[i].second + "\"";
  }
  key += "}";
  return key;
}

// ------------------------------------------------------------------- Gauge --

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void Gauge::set_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --------------------------------------------------------------- Histogram --

Histogram::Histogram() : buckets_(static_cast<std::size_t>(kBuckets)) {}

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // v in [2^e, 2^(e+1)), e >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
}

std::uint64_t Histogram::bucket_lower(std::size_t idx) {
  if (idx < static_cast<std::size_t>(kSub)) return idx;
  const std::size_t group = idx / kSub;  // >= 1
  const std::uint64_t sub = idx % kSub;
  return (static_cast<std::uint64_t>(kSub) + sub) << (group - 1);
}

std::uint64_t Histogram::bucket_upper(std::size_t idx) {
  if (idx + 1 >= static_cast<std::size_t>(kBuckets)) return ~0ull;
  return bucket_lower(idx + 1);
}

void Histogram::record(double v) {
  if (!(v > 0.0)) v = 0.0;  // negatives and NaN clamp to the zero bucket
  const std::uint64_t iv = static_cast<std::uint64_t>(std::llround(
      std::min(v, 9.2e18)));
  buckets_[bucket_index(iv)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double mx = max_.load(std::memory_order_relaxed);
  while (mx < v &&
         !max_.compare_exchange_weak(mx, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(static_cast<std::size_t>(kBuckets));
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  // Recompute the total from the buckets: under concurrent recording the
  // atomic count may run ahead of the bucket copies, and the walk must use
  // a rank consistent with what it will actually find.
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum);
    cum += buckets[i];
    if (rank < static_cast<double>(cum)) {
      const double lower = static_cast<double>(bucket_lower(i));
      // Linear-range buckets hold exactly one integer value each — the
      // lower bound is the value; interpolating would only add error.
      if (i < static_cast<std::size_t>(kSub)) return lower;
      const double upper = static_cast<double>(bucket_upper(i));
      const double frac =
          (rank - lo_rank + 0.5) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::min(1.0, frac);
    }
  }
  return static_cast<double>(bucket_upper(buckets.size() - 1));
}

double Histogram::Snapshot::fraction_le(double v) const {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 1.0;
  if (v < 0.0) return 0.0;
  const std::uint64_t iv = static_cast<std::uint64_t>(
      std::llround(std::min(v, 9.2e18)));
  const std::size_t idx = bucket_index(iv);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < idx; ++i) below += buckets[i];
  double in_bucket = static_cast<double>(buckets[idx]);
  if (idx >= static_cast<std::size_t>(kSub)) {
    // Wide bucket: count the straddling bucket's samples proportionally to
    // how much of it lies at or below v (linear buckets hold one integer
    // value each, so they are entirely <= v already).
    const double lo = static_cast<double>(bucket_lower(idx));
    const double hi = static_cast<double>(bucket_upper(idx));
    in_bucket *= std::clamp((static_cast<double>(iv) + 1.0 - lo) / (hi - lo),
                            0.0, 1.0);
  }
  return std::min(1.0, (static_cast<double>(below) + in_bucket) /
                           static_cast<double>(total));
}

Histogram::Snapshot Histogram::Snapshot::operator-(
    const Snapshot& earlier) const {
  Snapshot d;
  d.count = count - std::min(earlier.count, count);
  d.sum = sum - earlier.sum;
  d.max = max;  // max is not subtractable; keep the cumulative high-water
  d.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t base =
        i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    d.buckets[i] = buckets[i] - std::min(base, buckets[i]);
  }
  return d;
}

Json Histogram::Snapshot::to_json() const {
  Json j = Json::object();
  j.set("count", static_cast<std::uint64_t>(count));
  j.set("sum", sum);
  j.set("mean", mean());
  j.set("p50", quantile(0.50));
  j.set("p90", quantile(0.90));
  j.set("p99", quantile(0.99));
  j.set("p999", quantile(0.999));
  j.set("max", max);
  return j;
}

// ---------------------------------------------------------------- Registry --

namespace {
enum Kind { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* kind_name(int k) {
  return k == kCounter ? "counter" : k == kGauge ? "gauge" : "histogram";
}
}  // namespace

struct Registry::Entry {
  std::string name;
  Labels labels;
  int kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

std::map<std::string, Registry::Entry>& Registry::entries() const {
  if (entries_ == nullptr) {
    const_cast<Registry*>(this)->entries_ = new std::map<std::string, Entry>();
  }
  return *entries_;
}

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const Labels& labels, int kind) {
  const std::string key = metric_key(name, labels);
  const auto [it, inserted] = entries().try_emplace(key);
  Entry& e = it->second;
  if (!inserted) {
    if (e.kind != kind) {
      throw std::invalid_argument(
          "obs::Registry: \"" + key + "\" already registered as a " +
          kind_name(e.kind) + ", requested as a " + kind_name(kind));
    }
    return e;
  }
  e.name = name;
  e.labels = labels;
  e.kind = kind;
  switch (kind) {
    case kCounter: e.counter = std::make_unique<Counter>(); break;
    case kGauge: e.gauge = std::make_unique<Gauge>(); break;
    default: e.histogram = std::make_unique<Histogram>(); break;
  }
  return e;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kHistogram).histogram;
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::object(), gauges = Json::object(),
       histograms = Json::object();
  for (const auto& [key, e] : entries()) {
    switch (e.kind) {
      case kCounter: counters.set(key, e.counter->value()); break;
      case kGauge: gauges.set(key, e.gauge->value()); break;
      default: histograms.set(key, e.histogram->snapshot().to_json()); break;
    }
  }
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries()) {
    switch (e.kind) {
      case kCounter: e.counter->reset(); break;
      case kGauge: e.gauge->reset(); break;
      default: e.histogram->reset(); break;
    }
  }
}

Registry& registry() {
  static Registry* r = new Registry();  // never destroyed: instruments may
                                        // be touched by late-exiting threads
  return *r;
}

// ------------------------------------------------------------ ScopedTimer --

ScopedTimerUs::ScopedTimerUs(Histogram& h) : h_(h), start_ns_(monotonic_ns()) {}

ScopedTimerUs::~ScopedTimerUs() {
  h_.record(static_cast<double>(monotonic_ns() - start_ns_) * 1e-3);
}

}  // namespace ber::obs
