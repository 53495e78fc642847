// Live telemetry: a process-wide registry of named, label-tagged
// instruments — monotonic counters, gauges, and log-bucketed latency
// histograms — cheap enough for protocol hot paths, plus snapshot-time
// views of the ledgers the protocol stack keeps anyway.
//
// The trace layer (common/trace.h) answers "what did this run COST",
// after the fact, as per-phase ledgers gated against the paper's lemmas.
// This module answers "how is the system doing RIGHT NOW": pool depth,
// refill latency percentiles, per-committee health, barrier wait time —
// the signals a randomness-beacon operator watches while the service
// runs. Every sample in a snapshot is one of two kinds:
//
//   * PUSHED instruments (Counter, Gauge, Histogram) are bumped by the
//     code that observes the event: latency histograms, pipeline and
//     pool counters, anything on per-player code. They mirror trace.h's
//     enable/disable contract: OFF by default, every mutator is behind
//     one relaxed atomic load (`telemetry_enabled()`), and sites guard
//     their registry lookups and clock reads behind it too, so a
//     disabled run performs ZERO registry mutations — not even
//     instrument creation (tests/telemetry_test.cpp locks this in,
//     EXPERIMENTS.md E19 bounds the overhead). When enabled, cells are
//     relaxed atomics bumped without locks.
//   * VIEWS are counters and gauges that a ledger already holds: the
//     lockstep core's per-domain and per-player comm and verdict
//     counts, the misbehavior manager's totals and standings, the
//     HealthBoard's health and failover counts, the TCP peers' byte and
//     connect counts. The owning object registers one collector
//     (add_collector) that reads its own always-on ledger when
//     snapshot() runs; nothing is copied on the event path, so a view
//     can never drift from its ledger and costs nothing while no one
//     snapshots. A view reflects its object's state since that object
//     was constructed and disappears when the object is destroyed (the
//     RAII handle unregisters it).
//
// Aggregation semantics. Views of SHARED state (the exchange path, the
// HealthBoard) count each event once. Pushed instruments on PER-PLAYER
// code (coin pools, the pipeline scheduler) are bumped once per player
// per event — honest players run in lockstep, so gauges agree (last
// writer wins) and counters read as `players x events`. Samples from
// several live objects may share a (name, labels) pair (n TcpClusters
// of one TcpLoopback, say): counters are summed, gauges keep the
// maximum (the worst standing or health). The reconciliation gates
// (bench/pipeline --metrics, bench/beacon --metrics) compare the views
// with Cluster::faults(), the per-domain ledgers, Cluster::comm() and
// the trace layer's per-round comm deltas.
//
// Exposition: `metrics().snapshot()` freezes every instrument and view
// into a `MetricsSnapshot`, grouped by metric name, that serializes to
// flat JSONL (same tolerant conventions as the trace schema — unknown
// keys ignored, any key order) and to Prometheus text format.
// `tools/metrics_report` renders and diffs snapshots.

#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dprbg {

// ---------------------------------------------------------------------
// Global enable flag (mirrors tracer().enabled()).
// ---------------------------------------------------------------------

namespace telemetry_detail {
inline std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> on{false};
  return on;
}
}  // namespace telemetry_detail

[[nodiscard]] inline bool telemetry_enabled() noexcept {
  return telemetry_detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_telemetry_enabled(bool on) noexcept {
  telemetry_detail::enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Instruments. All cells are relaxed atomics; every mutator no-ops when
// telemetry is disabled. Instruments are created by the registry and
// live for the process lifetime (reset() zeroes values but never
// invalidates a handle), so call sites may cache references.
// ---------------------------------------------------------------------

// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!telemetry_enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> v_{0};
};

// Last-written level (pool depth, in-flight window, health state).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!telemetry_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    if (!telemetry_enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> v_{0};
};

// Log-bucketed histogram of non-negative integer observations (latency
// in microseconds, sizes, depths). Buckets: values below kSubBuckets are
// exact; above, each power-of-two octave is split into kSubBuckets
// geometric sub-buckets, bounding the relative quantization error by
// 1/kSubBuckets (12.5%). 496 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 8
  static constexpr unsigned kBuckets =
      ((64 - kSubBits) << kSubBits) + kSubBuckets;  // 496

  // The bucket index recording value `v`.
  [[nodiscard]] static unsigned bucket_of(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const unsigned sub = static_cast<unsigned>(v >> shift) & (kSubBuckets - 1);
    return ((msb - kSubBits + 1) << kSubBits) + sub;
  }
  // Inclusive [lower, upper] value range of bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_lower(unsigned idx) noexcept {
    if (idx < kSubBuckets) return idx;
    const unsigned msb = (idx >> kSubBits) + kSubBits - 1;
    const unsigned sub = idx & (kSubBuckets - 1);
    const std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
    return (std::uint64_t{1} << msb) + sub * width;
  }
  [[nodiscard]] static std::uint64_t bucket_upper(unsigned idx) noexcept {
    if (idx < kSubBuckets) return idx;
    const unsigned msb = (idx >> kSubBits) + kSubBits - 1;
    const std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
    return bucket_lower(idx) + width - 1;
  }

  void observe(std::uint64_t v) noexcept {
    if (!telemetry_enabled()) return;
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(unsigned idx) const noexcept {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

  // The q-quantile (q in [0, 1]) as the upper bound of the bucket
  // holding the rank-ceil(q * count) observation — exact for values
  // below kSubBuckets, within 1/kSubBuckets relative error above.
  // Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

 private:
  friend class MetricsRegistry;
  void reset() noexcept;
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// ---------------------------------------------------------------------
// Snapshot: a frozen, serializable copy of every instrument.
// ---------------------------------------------------------------------

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricType t) noexcept;

struct MetricSample {
  std::string name;
  // Canonical label string "k=v" or "k=v,k=v" (empty: unlabeled). The
  // cardinality rules (DESIGN.md §13) keep label values to bounded
  // small sets: committee id, player id, eviction reason.
  std::string labels;
  MetricType type = MetricType::kCounter;
  std::int64_t value = 0;  // counter/gauge level (counter: >= 0)
  // Histogram-only fields.
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<unsigned, std::uint64_t>> buckets;  // sparse idx:count
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;
};

// One flat JSON object (single line, no trailing newline).
[[nodiscard]] std::string to_json(const MetricSample& s);
// Parses one snapshot line; returns false on malformed input. Unknown
// keys are ignored so the schema can grow.
bool from_json(std::string_view line, MetricSample& s);

struct MetricsSnapshot {
  // Grouped by name, families in first-registration order (pushed
  // instruments first, then views in collector order); one sample per
  // (name, labels).
  std::vector<MetricSample> samples;

  // The sample with exactly this (name, labels), or nullptr.
  [[nodiscard]] const MetricSample* find(std::string_view name,
                                         std::string_view labels = {}) const;
  // Counter/gauge `value` summed over every label set of `name`.
  [[nodiscard]] std::int64_t sum_values(std::string_view name) const;

  // JSONL: one sample per line.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;
  // Prometheus text exposition (counters/gauges plus cumulative
  // histogram buckets); metric names get a "dprbg_" prefix.
  void write_prometheus(std::ostream& os) const;
};

// Parses a whole snapshot stream, skipping blank lines; malformed lines
// are counted in `*malformed` (if non-null) and dropped.
MetricsSnapshot read_snapshot(std::istream& is,
                              std::size_t* malformed = nullptr);

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

class MetricsRegistry;

// What a collector appends its view samples to.
class ViewSink {
 public:
  void counter(std::string_view name, std::string labels, std::uint64_t v) {
    add(name, std::move(labels), MetricType::kCounter,
        static_cast<std::int64_t>(v));
  }
  void gauge(std::string_view name, std::string labels, std::int64_t v) {
    add(name, std::move(labels), MetricType::kGauge, v);
  }

 private:
  friend class MetricsRegistry;
  explicit ViewSink(std::vector<MetricSample>& out) : out_(out) {}
  void add(std::string_view name, std::string labels, MetricType type,
           std::int64_t v) {
    MetricSample& s = out_.emplace_back();
    s.name = name;
    s.labels = std::move(labels);
    s.type = type;
    s.value = v;
  }
  std::vector<MetricSample>& out_;
};

// A snapshot-time view: reads its owner's ledger (under the owner's own
// lock) into the sink. It runs under the registry's collector mutex, so
// the lock order is collector mutex -> owner lock; it must never call
// into the registry, and an owner must not register or unregister a
// collector while holding its own lock.
using Collector = std::function<void(ViewSink&)>;

// Unregisters its collector on destruction, blocking until a snapshot
// that is running it has finished. Owners hold it as their last member
// (initialized in place from add_collector), so it registers after and
// unregisters before every member the collector reads.
class [[nodiscard]] CollectorHandle {
 public:
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;
  ~CollectorHandle();

 private:
  friend class MetricsRegistry;
  CollectorHandle(MetricsRegistry& reg, std::uint64_t id)
      : reg_(reg), id_(id) {}
  MetricsRegistry& reg_;
  const std::uint64_t id_;
};

class MetricsRegistry {
 public:
  // Finds or creates the instrument with this (name, labels). The
  // returned reference is valid for the process lifetime. Asking for an
  // existing name+labels with a different instrument type aborts
  // (DPRBG_CHECK) — one name, one type. Lookup takes the registry
  // mutex: hot paths should acquire once and cache the reference, and
  // call sites must guard acquisition behind telemetry_enabled() so the
  // disabled mode never mutates the registry.
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {});

  // Registers a view collector; it runs at every snapshot() until the
  // returned handle is destroyed. Registration is not gated on
  // telemetry_enabled(): views read ledgers that are always on.
  CollectorHandle add_collector(Collector fn);

  // Zeroes every pushed instrument's cells. Instruments are never
  // destroyed, so cached references stay valid across resets (benches
  // reset between measured runs). Views are not touched: they always
  // read their object's state since construction.
  void reset();

  // Number of pushed instruments (views are not counted).
  [[nodiscard]] std::size_t size() const;
  // Copies the instruments under the instrument mutex, releases it, then
  // runs the collectors under the collector mutex; merges samples that
  // share a (name, labels) pair and groups them by name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    std::string labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, std::string_view labels,
               MetricType type);

  friend class CollectorHandle;
  void remove_collector(std::uint64_t id);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order

  mutable std::mutex collector_mu_;  // taken before any owner's lock
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;
  std::uint64_t next_collector_ = 1;
};

// The process-wide registry used by every instrumentation site.
MetricsRegistry& metrics() noexcept;

// One block of `elems` elements through a vector field kernel: the
// blocked kernels in poly/interpolate.h and the NTT loops in
// gf/fft_field.cpp. Publishes field_kernel_elems_total{op} and the
// field_kernel_block_len{op} histogram; a no-op when telemetry is off.
inline void note_field_kernel(const char* op, std::size_t elems) {
  if (!telemetry_enabled()) return;
  MetricsRegistry& reg = metrics();
  const std::string labels = std::string("op=") + op;
  reg.counter("field_kernel_elems_total", labels).add(elems);
  reg.histogram("field_kernel_block_len", labels).observe(elems);
}

// ---------------------------------------------------------------------
// Timing helper: a steady-clock stamp that call sites take only when
// telemetry is enabled, so the disabled mode performs no clock reads.
// ---------------------------------------------------------------------

using TelemetryClock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t telemetry_elapsed_us(
    TelemetryClock::time_point since) noexcept {
  const auto d = TelemetryClock::now() - since;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

}  // namespace dprbg
