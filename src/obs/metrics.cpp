#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.h"

namespace locald::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Prometheus sample values are floats; integral values render without a
// fraction so counter samples byte-agree with the JSON surface's integers.
std::string render_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::ostringstream os;
    os << static_cast<std::int64_t>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::counter:
      return "counter";
    case MetricType::gauge:
      return "gauge";
    case MetricType::histogram:
      return "histogram";
  }
  return "untyped";
}

// Samples of a one-value instrument: a single `name value` line, read by
// `read` at collection time.
template <typename Read>
auto scalar(Read read) {
  return [read](const std::string& name, std::string& out) {
    out += name + " " + render_value(static_cast<double>(read())) + "\n";
  };
}

// Prometheus escaping for HELP text: \\ and \n.
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  LOCALD_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    s.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

const std::vector<double>& Histogram::default_latency_buckets_seconds() {
  static const std::vector<double> buckets = {0.001, 0.005, 0.025, 0.1,
                                              0.5,   1.0,   5.0,   10.0};
  return buckets;
}

void Registry::add(const std::string& name, const std::string& help,
                   MetricType type, const std::shared_ptr<void>& owner,
                   Samples samples) {
  LOCALD_ASSERT(valid_metric_name(name),
                "metric name must match [a-zA-Z_:][a-zA-Z0-9_:]*");
  std::lock_guard<std::mutex> lk(mu_);
  // A family whose owner has expired is gone even before a scrape prunes
  // it, so only a live one can conflict.
  const auto it = families_.find(name);
  LOCALD_ASSERT(it == families_.end() || it->second.owner.expired() ||
                    it->second.type == type,
                "metric re-registered with a different type: " + name);
  families_[name] = Family{help, type, owner, std::move(samples)};
}

std::shared_ptr<Counter> Registry::counter(const std::string& name,
                                           const std::string& help) {
  auto metric = std::make_shared<Counter>();
  add(name, help, MetricType::counter, metric,
      scalar([c = metric.get()] { return c->value(); }));
  return metric;
}

std::shared_ptr<Gauge> Registry::gauge(const std::string& name,
                                       const std::string& help) {
  auto metric = std::make_shared<Gauge>();
  add(name, help, MetricType::gauge, metric,
      scalar([g = metric.get()] { return g->value(); }));
  return metric;
}

std::shared_ptr<Histogram> Registry::histogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<double> bounds) {
  auto metric = std::make_shared<Histogram>(std::move(bounds));
  add(name, help, MetricType::histogram, metric,
      [h = metric.get()](const std::string& n, std::string& out) {
        const Histogram::Snapshot s = h->snapshot();
        // `_bucket` samples are cumulative, closed by the mandatory +Inf.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.counts.size(); ++b) {
          cumulative += s.counts[b];
          out += n + "_bucket{le=\"" +
                 (b < s.bounds.size() ? render_value(s.bounds[b]) : "+Inf") +
                 "\"} " + render_value(static_cast<double>(cumulative)) +
                 "\n";
        }
        out += n + "_sum " + render_value(s.sum) + "\n";
        out += n + "_count " + render_value(static_cast<double>(s.count)) +
               "\n";
      });
  return metric;
}

MetricHandle Registry::counter_fn(const std::string& name,
                                  const std::string& help,
                                  std::function<std::uint64_t()> fn) {
  auto cb = std::make_shared<std::function<std::uint64_t()>>(std::move(fn));
  add(name, help, MetricType::counter, cb,
      scalar([f = cb.get()] { return (*f)(); }));
  return cb;
}

MetricHandle Registry::gauge_fn(const std::string& name,
                                const std::string& help,
                                std::function<double()> fn) {
  auto cb = std::make_shared<std::function<double()>>(std::move(fn));
  add(name, help, MetricType::gauge, cb,
      scalar([f = cb.get()] { return (*f)(); }));
  return cb;
}

void Registry::prune() {
  std::erase_if(families_,
                [](const auto& entry) { return entry.second.owner.expired(); });
}

std::string Registry::render_prometheus() {
  std::lock_guard<std::mutex> lk(mu_);
  prune();
  std::string out;
  for (const auto& [name, family] : families_) {
    // Held across the sample read: the closure borrows the owner.
    const std::shared_ptr<void> owner = family.owner.lock();
    if (!owner) continue;  // expired since the prune
    out += "# HELP " + name + " " + escape_help(family.help) + "\n";
    out += "# TYPE " + name + " " + std::string(type_name(family.type)) +
           "\n";
    family.samples(name, out);
  }
  return out;
}

std::size_t Registry::family_count() {
  std::lock_guard<std::mutex> lk(mu_);
  prune();
  return families_.size();
}

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // owners may outlive static destruction order
}

}  // namespace locald::obs
