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

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
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

std::string escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string label_key(std::vector<Label> labels) {
  if (labels.empty()) return "";
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.name < b.name; });
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].name;
    out += "=\"";
    out += escape_label_value(labels[i].value);
    out += "\"";
  }
  out += "}";
  return out;
}

bool Registry::Child::expired() const {
  return counter.expired() && gauge.expired() && histogram.expired() &&
         counter_cb.expired() && gauge_cb.expired();
}

Registry::Family& Registry::family_for(const std::string& name,
                                       const std::string& help,
                                       MetricType type) {
  LOCALD_ASSERT(valid_metric_name(name),
                "metric name must match [a-zA-Z_:][a-zA-Z0-9_:]*");
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.help = help;
    family.type = type;
  } else {
    LOCALD_ASSERT(family.type == type,
                  "metric re-registered with a different type: " + name);
  }
  return family;
}

std::shared_ptr<Counter> Registry::counter(const std::string& name,
                                           const std::string& help,
                                           std::vector<Label> labels) {
  for (const Label& label : labels) {
    LOCALD_ASSERT(valid_label_name(label.name), "bad label name");
  }
  auto metric = std::make_shared<Counter>();
  std::lock_guard<std::mutex> lk(mu_);
  Family& family = family_for(name, help, MetricType::counter);
  Child child;
  child.labels = labels;
  child.counter = metric;
  family.children[label_key(std::move(labels))] = std::move(child);
  return metric;
}

std::shared_ptr<Gauge> Registry::gauge(const std::string& name,
                                       const std::string& help,
                                       std::vector<Label> labels) {
  for (const Label& label : labels) {
    LOCALD_ASSERT(valid_label_name(label.name), "bad label name");
  }
  auto metric = std::make_shared<Gauge>();
  std::lock_guard<std::mutex> lk(mu_);
  Family& family = family_for(name, help, MetricType::gauge);
  Child child;
  child.labels = labels;
  child.gauge = metric;
  family.children[label_key(std::move(labels))] = std::move(child);
  return metric;
}

std::shared_ptr<Histogram> Registry::histogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<double> bounds,
                                               std::vector<Label> labels) {
  for (const Label& label : labels) {
    LOCALD_ASSERT(valid_label_name(label.name), "bad label name");
  }
  auto metric = std::make_shared<Histogram>(std::move(bounds));
  std::lock_guard<std::mutex> lk(mu_);
  Family& family = family_for(name, help, MetricType::histogram);
  Child child;
  child.labels = labels;
  child.histogram = metric;
  family.children[label_key(std::move(labels))] = std::move(child);
  return metric;
}

MetricHandle Registry::counter_fn(const std::string& name,
                                  const std::string& help,
                                  std::function<std::uint64_t()> fn,
                                  std::vector<Label> labels) {
  for (const Label& label : labels) {
    LOCALD_ASSERT(valid_label_name(label.name), "bad label name");
  }
  auto cb = std::make_shared<CallbackCounter>();
  cb->fn = std::move(fn);
  std::lock_guard<std::mutex> lk(mu_);
  Family& family = family_for(name, help, MetricType::counter);
  Child child;
  child.labels = labels;
  child.counter_cb = cb;
  family.children[label_key(std::move(labels))] = std::move(child);
  return cb;
}

MetricHandle Registry::gauge_fn(const std::string& name,
                                const std::string& help,
                                std::function<double()> fn,
                                std::vector<Label> labels) {
  for (const Label& label : labels) {
    LOCALD_ASSERT(valid_label_name(label.name), "bad label name");
  }
  auto cb = std::make_shared<CallbackGauge>();
  cb->fn = std::move(fn);
  std::lock_guard<std::mutex> lk(mu_);
  Family& family = family_for(name, help, MetricType::gauge);
  Child child;
  child.labels = labels;
  child.gauge_cb = cb;
  family.children[label_key(std::move(labels))] = std::move(child);
  return cb;
}

std::string Registry::render_prometheus() {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (auto family_it = families_.begin(); family_it != families_.end();) {
    Family& family = family_it->second;
    for (auto it = family.children.begin(); it != family.children.end();) {
      it = it->second.expired() ? family.children.erase(it) : std::next(it);
    }
    if (family.children.empty()) {
      family_it = families_.erase(family_it);
      continue;
    }
    const std::string& name = family_it->first;
    out += "# HELP " + name + " " + escape_help(family.help) + "\n";
    out += "# TYPE " + name + " " + std::string(type_name(family.type)) +
           "\n";
    for (const auto& [key, child] : family.children) {
      if (const auto c = child.counter.lock()) {
        out += name + key + " " +
               render_value(static_cast<double>(c->value())) + "\n";
      } else if (const auto cb = child.counter_cb.lock()) {
        out += name + key + " " +
               render_value(static_cast<double>(cb->fn())) + "\n";
      } else if (const auto g = child.gauge.lock()) {
        out += name + key + " " +
               render_value(static_cast<double>(g->value())) + "\n";
      } else if (const auto gb = child.gauge_cb.lock()) {
        out += name + key + " " + render_value(gb->fn()) + "\n";
      } else if (const auto h = child.histogram.lock()) {
        const Histogram::Snapshot s = h->snapshot();
        // `_bucket` samples are cumulative, closed by the mandatory +Inf.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.counts.size(); ++b) {
          cumulative += s.counts[b];
          std::vector<Label> bucket_labels = child.labels;
          bucket_labels.push_back(
              {"le", b < s.bounds.size() ? render_value(s.bounds[b])
                                         : "+Inf"});
          out += name + "_bucket" + label_key(std::move(bucket_labels)) +
                 " " + render_value(static_cast<double>(cumulative)) + "\n";
        }
        out += name + "_sum" + key + " " + render_value(s.sum) + "\n";
        out += name + "_count" + key + " " +
               render_value(static_cast<double>(s.count)) + "\n";
      }
    }
    ++family_it;
  }
  return out;
}

std::size_t Registry::family_count() {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t live = 0;
  for (auto& [name, family] : families_) {
    for (auto it = family.children.begin(); it != family.children.end();) {
      it = it->second.expired() ? family.children.erase(it) : std::next(it);
    }
    if (!family.children.empty()) ++live;
  }
  return live;
}

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // owners may outlive static destruction order
}

}  // namespace locald::obs
