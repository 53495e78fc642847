#include "common/telemetry.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "common/check.h"
#include "common/flat_json.h"

namespace dprbg {

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

std::uint64_t Histogram::percentile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; ceil without float drift.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) return bucket_upper(i);
  }
  // Bucket cells are read racily against concurrent observers; fall back
  // to the largest populated bucket.
  for (unsigned i = kBuckets; i-- > 0;) {
    if (bucket_count(i) != 0) return bucket_upper(i);
  }
  return 0;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

MetricsRegistry& metrics() noexcept {
  static MetricsRegistry r;
  return r;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               std::string_view labels,
                                               MetricType type) {
  std::lock_guard g(mu_);
  for (auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      // One name+labels, one instrument type — re-registering as a
      // different kind is a programmer error.
      DPRBG_CHECK(e->type == type);
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name.assign(name);
  e->labels.assign(labels);
  e->type = type;
  switch (type) {
    case MetricType::kCounter:
      e->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      e->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      e->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels) {
  return *entry(name, labels, MetricType::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels) {
  return *entry(name, labels, MetricType::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view labels) {
  return *entry(name, labels, MetricType::kHistogram).histogram;
}

void MetricsRegistry::reset() {
  std::lock_guard g(mu_);
  for (auto& e : entries_) {
    switch (e->type) {
      case MetricType::kCounter: e->counter->reset(); break;
      case MetricType::kGauge: e->gauge->reset(); break;
      case MetricType::kHistogram: e->histogram->reset(); break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard g(mu_);
  return entries_.size();
}

CollectorHandle::~CollectorHandle() { reg_.remove_collector(id_); }

CollectorHandle MetricsRegistry::add_collector(Collector fn) {
  std::lock_guard g(collector_mu_);
  const std::uint64_t id = next_collector_++;
  collectors_.emplace_back(id, std::move(fn));
  return CollectorHandle(*this, id);
}

void MetricsRegistry::remove_collector(std::uint64_t id) {
  std::lock_guard g(collector_mu_);
  std::erase_if(collectors_, [id](const auto& c) { return c.first == id; });
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::vector<MetricSample> raw;
  {
    std::lock_guard g(mu_);
    raw.reserve(entries_.size());
    for (const auto& e : entries_) {
      MetricSample s;
      s.name = e->name;
      s.labels = e->labels;
      s.type = e->type;
      switch (e->type) {
        case MetricType::kCounter:
          s.value = static_cast<std::int64_t>(e->counter->value());
          break;
        case MetricType::kGauge:
          s.value = e->gauge->value();
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *e->histogram;
          s.count = h.count();
          s.sum = h.sum();
          for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
            const std::uint64_t c = h.bucket_count(i);
            if (c != 0) s.buckets.emplace_back(i, c);
          }
          s.p50 = h.percentile(0.50);
          s.p90 = h.percentile(0.90);
          s.p99 = h.percentile(0.99);
          s.p999 = h.percentile(0.999);
          break;
        }
      }
      raw.push_back(std::move(s));
    }
  }
  {
    std::lock_guard g(collector_mu_);
    ViewSink sink(raw);
    for (const auto& [id, fn] : collectors_) fn(sink);
  }

  // Group by name (families in first-appearance order, so Prometheus
  // gets one contiguous block per family) and merge samples that share
  // a (name, labels) pair: counters sum, gauges keep the maximum.
  std::map<std::string, std::size_t, std::less<>> family_of;
  std::vector<std::vector<MetricSample>> families;
  for (auto& s : raw) {
    const auto [it, fresh] = family_of.try_emplace(s.name, families.size());
    if (fresh) families.emplace_back();
    auto& fam = families[it->second];
    const auto same = std::find_if(fam.begin(), fam.end(), [&s](auto& x) {
      return x.labels == s.labels;
    });
    if (same == fam.end()) {
      fam.push_back(std::move(s));
    } else if (s.type == MetricType::kCounter) {
      same->value += s.value;
    } else {
      same->value = std::max(same->value, s.value);
    }
  }
  MetricsSnapshot out;
  out.samples.reserve(raw.size());
  for (auto& fam : families) {
    for (auto& s : fam) out.samples.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------

const char* to_string(MetricType t) noexcept {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

namespace {

void append_kv_str(std::string& out, std::string_view key,
                   std::string_view v) {
  out += '"';
  out += key;
  out += "\":\"";
  flat_json_escape(out, v);
  out += '"';
}

void append_kv_num(std::string& out, std::string_view key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

// Sparse bucket encoding "idx:count,idx:count" kept as a string field so
// every snapshot line stays a flat object (FlatJsonScanner contract).
std::string encode_buckets(
    const std::vector<std::pair<unsigned, std::uint64_t>>& buckets) {
  std::string out;
  for (const auto& [idx, c] : buckets) {
    if (!out.empty()) out += ',';
    out += std::to_string(idx);
    out += ':';
    out += std::to_string(c);
  }
  return out;
}

bool decode_buckets(std::string_view enc,
                    std::vector<std::pair<unsigned, std::uint64_t>>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < enc.size()) {
    const std::size_t colon = enc.find(':', pos);
    if (colon == std::string_view::npos) return false;
    std::size_t comma = enc.find(',', colon + 1);
    if (comma == std::string_view::npos) comma = enc.size();
    unsigned idx = 0;
    std::uint64_t c = 0;
    try {
      idx = static_cast<unsigned>(
          std::stoul(std::string(enc.substr(pos, colon - pos))));
      c = std::stoull(std::string(enc.substr(colon + 1, comma - colon - 1)));
    } catch (...) {
      return false;
    }
    if (idx >= Histogram::kBuckets) return false;
    out.emplace_back(idx, c);
    pos = comma + 1;
  }
  return true;
}

}  // namespace

std::string to_json(const MetricSample& s) {
  std::string out;
  out.reserve(160);
  out += '{';
  append_kv_str(out, "name", s.name);
  out += ',';
  append_kv_str(out, "labels", s.labels);
  out += ',';
  append_kv_str(out, "type", to_string(s.type));
  if (s.type == MetricType::kHistogram) {
    out += ',';
    append_kv_num(out, "count", s.count);
    out += ',';
    append_kv_num(out, "sum", s.sum);
    out += ',';
    append_kv_num(out, "p50", s.p50);
    out += ',';
    append_kv_num(out, "p90", s.p90);
    out += ',';
    append_kv_num(out, "p99", s.p99);
    out += ',';
    append_kv_num(out, "p999", s.p999);
    out += ',';
    append_kv_str(out, "buckets", encode_buckets(s.buckets));
  } else {
    out += ",\"value\":";
    out += std::to_string(s.value);
  }
  out += '}';
  return out;
}

bool from_json(std::string_view line, MetricSample& s) {
  s = MetricSample{};
  bool have_name = false;
  bool type_ok = true;
  bool buckets_ok = true;
  FlatJsonScanner scanner(line);
  const bool ok = scanner.scan([&](const std::string& key,
                                   const std::string& sval, std::uint64_t nval,
                                   bool is_string) {
    if (key == "name") {
      s.name = sval;
      have_name = true;
    } else if (key == "labels") {
      s.labels = sval;
    } else if (key == "type") {
      if (sval == "counter") s.type = MetricType::kCounter;
      else if (sval == "gauge") s.type = MetricType::kGauge;
      else if (sval == "histogram") s.type = MetricType::kHistogram;
      else type_ok = false;
    } else if (key == "value") {
      s.value = static_cast<std::int64_t>(nval);
    } else if (key == "count") {
      s.count = nval;
    } else if (key == "sum") {
      s.sum = nval;
    } else if (key == "p50") {
      s.p50 = nval;
    } else if (key == "p90") {
      s.p90 = nval;
    } else if (key == "p99") {
      s.p99 = nval;
    } else if (key == "p999") {
      s.p999 = nval;
    } else if (key == "buckets") {
      if (!sval.empty()) buckets_ok = decode_buckets(sval, s.buckets);
    }
    // unknown keys: ignored (forward compatibility)
    (void)is_string;
  });
  return ok && have_name && type_ok && buckets_ok;
}

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          std::string_view labels) const {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::int64_t MetricsSnapshot::sum_values(std::string_view name) const {
  std::int64_t total = 0;
  for (const auto& s : samples) {
    if (s.name == name && s.type != MetricType::kHistogram) total += s.value;
  }
  return total;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  for (const auto& s : samples) os << to_json(s) << '\n';
}

bool MetricsSnapshot::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

MetricsSnapshot read_snapshot(std::istream& is, std::size_t* malformed) {
  MetricsSnapshot out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    MetricSample s;
    if (from_json(line, s)) {
      out.samples.push_back(std::move(s));
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return out;
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

namespace {

// "k=v,k=v" -> {k="v",k="v"}; empty labels render as no brace block.
std::string prometheus_labels(const std::string& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  std::size_t pos = 0;
  while (pos < labels.size()) {
    std::size_t comma = labels.find(',', pos);
    if (comma == std::string::npos) comma = labels.size();
    const std::string_view kv(labels.data() + pos, comma - pos);
    const std::size_t eq = kv.find('=');
    if (out.size() > 1) out += ',';
    if (eq == std::string_view::npos) {
      out += "label=\"";
      flat_json_escape(out, kv);
      out += '"';
    } else {
      out.append(kv.substr(0, eq));
      out += "=\"";
      flat_json_escape(out, kv.substr(eq + 1));
      out += '"';
    }
    pos = comma + 1;
  }
  out += '}';
  return out;
}

}  // namespace

void MetricsSnapshot::write_prometheus(std::ostream& os) const {
  std::string last_typed;
  for (const auto& s : samples) {
    const std::string name = "dprbg_" + s.name;
    if (name != last_typed) {
      os << "# TYPE " << name << ' ' << to_string(s.type) << '\n';
      last_typed = name;
    }
    const std::string lbl = prometheus_labels(s.labels);
    if (s.type != MetricType::kHistogram) {
      os << name << lbl << ' ' << s.value << '\n';
      continue;
    }
    // Cumulative buckets keyed by inclusive upper bound, then +Inf.
    std::uint64_t cum = 0;
    for (const auto& [idx, c] : s.buckets) {
      cum += c;
      std::string blbl = s.labels;
      if (!blbl.empty()) blbl += ',';
      blbl += "le=" + std::to_string(Histogram::bucket_upper(idx));
      os << name << "_bucket" << prometheus_labels(blbl) << ' ' << cum << '\n';
    }
    std::string inf = s.labels;
    if (!inf.empty()) inf += ',';
    inf += "le=+Inf";
    os << name << "_bucket" << prometheus_labels(inf) << ' ' << s.count
       << '\n';
    os << name << "_sum" << lbl << ' ' << s.sum << '\n';
    os << name << "_count" << lbl << ' ' << s.count << '\n';
  }
}

}  // namespace dprbg
