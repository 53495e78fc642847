// Tests for the live telemetry subsystem (common/telemetry.h):
//   * enable/disable contract — with telemetry disabled, a full cluster
//     run performs ZERO registry mutations (no instruments created, no
//     cells bumped): the disabled mode is an identity, not just "cheap";
//     and a destroyed object leaves no view behind;
//   * histogram bucket math — log-bucketed observations land in the
//     bucket whose [lower, upper] range brackets the value, and every
//     percentile matches a scalar reference computation bucket-for-bucket;
//   * snapshot JSONL round-trip and the Prometheus writer;
//   * registry thread-safety — an 8-thread hammer on shared instruments
//     (exercised under TSan by tools/sanitize.sh);
//   * views — the net_*, net_tcp_*, misbehavior and beacon counters are
//     snapshot-time reads of their objects' ledgers: they equal those
//     ledgers exactly (simulated Cluster and TcpLoopback), merge across
//     objects into one sample per (name, labels), group by family in
//     Prometheus output, and are safe to snapshot mid-run (TSan);
//   * BeaconStatus reflects the HealthBoard it distills.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "beacon/beacon_status.h"
#include "coin/coin_pipeline.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/committee.h"
#include "net/fault.h"
#include "net/misbehavior.h"
#include "net/tcp_cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

std::string jsonl(const MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_json(os);
  return os.str();
}

// Every test leaves the global registry empty and telemetry off.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_telemetry_enabled(false);
    metrics().reset();
  }
  void TearDown() override {
    set_telemetry_enabled(false);
    metrics().reset();
  }
};

// ---------------------------------------------------------------------
// Enable/disable contract.
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledInstrumentMutatorsAreIdentity) {
  Counter& c = metrics().counter("t_counter");
  Gauge& g = metrics().gauge("t_gauge");
  Histogram& h = metrics().histogram("t_hist");
  ASSERT_FALSE(telemetry_enabled());
  c.add(5);
  g.set(42);
  g.add(-3);
  h.observe(1000);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);

  set_telemetry_enabled(true);
  c.add(5);
  g.set(42);
  h.observe(1000);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1000u);
}

// The instrumented hot paths must not even CREATE instruments while
// telemetry is off — a disabled run leaves the registry bit-for-bit
// untouched. This is the zero-overhead claim the E19 bench quantifies.
TEST_F(TelemetryTest, DisabledClusterRunPerformsZeroRegistryMutations) {
  // reset() zeroes instruments but never destroys them (cached refs must
  // stay valid), so measure the registry as a delta, not an absolute.
  const std::size_t size_before = metrics().size();
  const std::string snap_before = jsonl(metrics().snapshot());
  const int n = 5;
  const unsigned t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 4, /*seed=*/11);
  {
    Cluster cluster(n, static_cast<int>(t), /*seed=*/11);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      io.send_all(make_tag(ProtoId::kApp, 0, 0), {1, 2, 3});
      io.sync();
      (void)pool.take();
    }));
    EXPECT_EQ(metrics().size(), size_before);
    EXPECT_GT(cluster.comm().messages, 0u);  // the run really ran
    // The cluster's view is live while the cluster is: it reads the
    // always-on ledger, telemetry flag or not.
    EXPECT_EQ(metrics().snapshot().sum_values("net_domain_messages_total"),
              static_cast<std::int64_t>(cluster.comm().messages));
  }
  // Destroying the cluster unregistered its collector: nothing leaks.
  EXPECT_EQ(metrics().size(), size_before);
  EXPECT_EQ(jsonl(metrics().snapshot()), snap_before);
}

// ---------------------------------------------------------------------
// Histogram bucket math.
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, BucketBoundsBracketEveryValue) {
  // Small values are exact buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), static_cast<unsigned>(v));
    EXPECT_EQ(Histogram::bucket_lower(Histogram::bucket_of(v)), v);
    EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_of(v)), v);
  }
  // Larger values: lower <= v <= upper, buckets contiguous, index
  // monotone in v.
  const std::vector<std::uint64_t> probes = {
      8, 9, 15, 16, 17, 100, 1000, 4095, 4096, 123456789,
      (1ull << 40) + 12345, ~0ull};
  unsigned last = 0;
  for (std::uint64_t v : probes) {
    const unsigned b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::bucket_lower(b), v) << v;
    EXPECT_GE(Histogram::bucket_upper(b), v) << v;
    EXPECT_GE(b, last) << v;
    last = b;
  }
  // Contiguity: each bucket's upper is the next bucket's lower - 1.
  for (unsigned b = 0; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_upper(b) + 1, Histogram::bucket_lower(b + 1))
        << b;
  }
  // Relative error bound: bucket width <= lower/8 from 8 upward (the
  // <=12.5% widening the header promises). lower >= 2^msb and width =
  // 2^(msb-3), so width * 8 <= lower exactly.
  for (unsigned b = 8; b < Histogram::kBuckets; ++b) {
    const std::uint64_t lo = Histogram::bucket_lower(b);
    const std::uint64_t width = Histogram::bucket_upper(b) - lo + 1;
    EXPECT_LE(width, lo / 8) << b;
  }
}

// Percentiles against a scalar reference: the histogram may widen a
// value to its bucket, so the correct assertion is bucket equality —
// percentile(q) must be the upper bound of the bucket holding the
// rank-ceil(q*count) element of the sorted sample.
TEST_F(TelemetryTest, PercentilesMatchScalarReference) {
  set_telemetry_enabled(true);
  Histogram& h = metrics().histogram("t_pctl");
  std::vector<std::uint64_t> values;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 stream
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1000000;  // microsecond-latency shaped
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.count(), values.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Same ceil-rank the implementation uses.
    const double target = q * static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(target);
    if (static_cast<double>(rank) < target) ++rank;
    if (rank == 0) rank = 1;
    const std::uint64_t ref = values[std::min(rank, values.size()) - 1];
    const std::uint64_t got = h.percentile(q);
    EXPECT_EQ(Histogram::bucket_of(got), Histogram::bucket_of(ref))
        << "q=" << q << " ref=" << ref << " got=" << got;
    EXPECT_EQ(got, Histogram::bucket_upper(Histogram::bucket_of(ref)))
        << "q=" << q;
  }
  // Sum is exact (not bucketed).
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) sum += v;
  EXPECT_EQ(h.sum(), sum);
}

// ---------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, RegistryKeysByNameAndLabelsWithStableRefs) {
  set_telemetry_enabled(true);
  const std::size_t size_before = metrics().size();
  Counter& a = metrics().counter("reqs", "committee=0");
  Counter& b = metrics().counter("reqs", "committee=1");
  Counter& a2 = metrics().counter("reqs", "committee=0");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  b.add(4);
  EXPECT_EQ(metrics().size(), size_before + 2);

  // reset() zeroes values but keeps instruments (cached refs stay valid).
  metrics().reset();
  EXPECT_EQ(metrics().size(), size_before + 2);
  EXPECT_EQ(a.value(), 0u);
  a.add(7);
  EXPECT_EQ(metrics().counter("reqs", "committee=0").value(), 7u);
}

TEST_F(TelemetryTest, SnapshotRoundTripsThroughJsonl) {
  set_telemetry_enabled(true);
  metrics().counter("c_total", "committee=0").add(12);
  metrics().gauge("g_depth").set(-5);
  Histogram& h = metrics().histogram("h_us", "phase=combine");
  h.observe(3);
  h.observe(1000);
  h.observe(123456);
  const MetricsSnapshot snap = metrics().snapshot();

  std::ostringstream os;
  snap.write_json(os);
  std::istringstream is(os.str());
  std::size_t malformed = 9;
  const MetricsSnapshot back = read_snapshot(is, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(back.samples.size(), snap.samples.size());
  for (std::size_t i = 0; i < snap.samples.size(); ++i) {
    const MetricSample& x = snap.samples[i];
    const MetricSample* y = back.find(x.name, x.labels);
    ASSERT_NE(y, nullptr) << x.name;
    EXPECT_EQ(y->type, x.type);
    EXPECT_EQ(y->value, x.value);
    EXPECT_EQ(y->count, x.count);
    EXPECT_EQ(y->sum, x.sum);
    EXPECT_EQ(y->buckets, x.buckets);
    EXPECT_EQ(y->p50, x.p50);
    EXPECT_EQ(y->p999, x.p999);
  }
  // Unknown keys and garbage lines are tolerated, counted, skipped.
  std::istringstream dirty(
      "{\"name\":\"ok\",\"labels\":\"\",\"type\":\"counter\",\"value\":1,"
      "\"future_field\":\"ignored\"}\n"
      "not json at all\n");
  malformed = 0;
  const MetricsSnapshot tol = read_snapshot(dirty, &malformed);
  EXPECT_EQ(tol.samples.size(), 1u);
  EXPECT_EQ(malformed, 1u);
}

TEST_F(TelemetryTest, PrometheusWriterEmitsTypedSamples) {
  set_telemetry_enabled(true);
  metrics().counter("c_total", "committee=2").add(9);
  Histogram& h = metrics().histogram("h_us");
  h.observe(5);
  h.observe(70);
  std::ostringstream os;
  metrics().snapshot().write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE dprbg_c_total counter"), std::string::npos);
  EXPECT_NE(text.find("dprbg_c_total{committee=\"2\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dprbg_h_us histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dprbg_h_us_sum 75"), std::string::npos);
  EXPECT_NE(text.find("dprbg_h_us_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Thread safety (TSan-exercised via tools/sanitize.sh).
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, ConcurrentMutationAndSnapshotIsExact) {
  set_telemetry_enabled(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  Counter& c = metrics().counter("hammer_total");
  Gauge& g = metrics().gauge("hammer_depth");
  Histogram& h = metrics().histogram("hammer_us");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([ti, &c, &g, &h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        g.set(static_cast<std::int64_t>(i));
        h.observe(i % 4096);
        if (i % 1024 == 0) {
          // Concurrent registry lookups race instrument creation.
          metrics()
              .counter("hammer_lane", "lane=" + std::to_string(ti % 3))
              .add(1);
          (void)metrics().snapshot();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t lanes = 0;
  for (int lane = 0; lane < 3; ++lane) {
    lanes +=
        metrics().counter("hammer_lane", "lane=" + std::to_string(lane))
            .value();
  }
  // i = 0, 1024, ... fires ceil(kPerThread / 1024) times per thread.
  EXPECT_EQ(lanes, kThreads * ((kPerThread + 1023) / 1024));
  EXPECT_GE(g.value(), 0);  // last-writer-wins, but always a written value
}

// ---------------------------------------------------------------------
// Reconciliation with the cluster's own ledgers.
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, EnabledClusterRunReconcilesWithClusterLedgers) {
  set_telemetry_enabled(true);
  const int n = 5;
  Cluster cluster(n, 1, /*seed=*/21);
  cluster.run(std::vector<Cluster::Program>(n, [](PartyIo& io) {
    for (int r = 0; r < 3; ++r) {
      io.send_all(make_tag(ProtoId::kApp, 0, r), {9, 9, 9, 9});
      io.sync();
    }
  }));
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_EQ(snap.sum_values("net_domain_messages_total"),
            static_cast<std::int64_t>(cluster.comm().messages));
  EXPECT_EQ(snap.sum_values("net_domain_bytes_total"),
            static_cast<std::int64_t>(cluster.comm().bytes));
  EXPECT_EQ(snap.sum_values("net_stale_rejections_total"),
            static_cast<std::int64_t>(cluster.stale_rejections()));
  EXPECT_EQ(snap.sum_values("net_player_messages_total"),
            static_cast<std::int64_t>(cluster.comm().messages));
  EXPECT_EQ(snap.sum_values("net_player_bytes_total"),
            static_cast<std::int64_t>(cluster.comm().bytes));
  // Per-player counters match the trace ledger player by player.
  const auto per_player = cluster.per_player_comm();
  for (int p = 0; p < n; ++p) {
    const MetricSample* s = snap.find("net_player_bytes_total",
                                      "player=" + std::to_string(p));
    ASSERT_NE(s, nullptr) << p;
    EXPECT_EQ(s->value, static_cast<std::int64_t>(per_player[p].bytes)) << p;
  }
  // Views are reads, not deltas: snapshotting twice with no traffic in
  // between must not double-count, and reset() does not touch them.
  metrics().reset();
  const MetricsSnapshot again = metrics().snapshot();
  EXPECT_EQ(again.sum_values("net_player_bytes_total"),
            static_cast<std::int64_t>(cluster.comm().bytes));
  // The barrier-wait histogram saw every non-last arrival.
  const MetricSample* wait = snap.find("net_barrier_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);
}

TEST_F(TelemetryTest, MisbehaviorCountersReconcileWithClusterAndManager) {
  set_telemetry_enabled(true);
  const int n = 4, rounds = 3;
  // Decay only moves on tick(), which nothing calls during the run; the
  // tick after it decays every score to zero, unbanning player 2.
  MisbehaviorPolicy policy;
  policy.decay_per_tick = 1000;
  auto mgr = std::make_shared<MisbehaviorManager>(n, policy);
  // Pre-ban player 2 so the run also exercises the suppression counter.
  mgr->report(2, MisbehaviorSignal::kForeignTraffic, 10);
  ASSERT_TRUE(mgr->banned(2));

  FaultPlan plan;
  plan.charge(1);
  plan.add(/*round=*/0, /*from=*/1, /*to=*/0, {FaultAction::kDelay, 1});
  plan.add(/*round=*/1, /*from=*/1, /*to=*/3, {FaultAction::kDelay, 1});

  Cluster cluster(n, 1, /*seed=*/33);
  cluster.set_fault_injector(
      std::make_shared<FaultInjector>(std::move(plan)));
  cluster.set_misbehavior_manager(mgr);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    for (int r = 0; r < rounds; ++r) {
      io.send_all(make_tag(ProtoId::kApp, 0, r), {7, 7});
      io.sync();
      // Everyone rejects player 0's body: what used to be a silent drop
      // is now an attributable, counted event.
      if (io.id() != 0) io.note_decode_failure(0);
    }
  }));

  // Every new counter reconciles three ways: telemetry snapshot ==
  // cluster ledger == domain ledger (and the manager's own totals).
  const MetricsSnapshot snap = metrics().snapshot();
  const Cluster::DomainLedger ledger = cluster.domain_ledger(0);
  EXPECT_EQ(cluster.decode_rejections(),
            static_cast<std::uint64_t>(n - 1) * rounds);
  EXPECT_EQ(snap.sum_values("net_decode_rejections_total"),
            static_cast<std::int64_t>(cluster.decode_rejections()));
  EXPECT_EQ(ledger.decode, cluster.decode_rejections());
  EXPECT_EQ(cluster.slow_envelopes(), 2u);
  EXPECT_EQ(snap.sum_values("net_slow_envelopes_total"),
            static_cast<std::int64_t>(cluster.slow_envelopes()));
  EXPECT_EQ(ledger.slow, cluster.slow_envelopes());
  EXPECT_GT(cluster.banned_suppressions(), 0u);
  EXPECT_EQ(snap.sum_values("net_banned_suppressed_total"),
            static_cast<std::int64_t>(cluster.banned_suppressions()));
  EXPECT_EQ(ledger.banned, cluster.banned_suppressions());

  // Manager-side instruments: per-signal report counters, ban counter,
  // and the per-peer standing gauge.
  EXPECT_EQ(snap.sum_values("net_misbehavior_reports_total"),
            static_cast<std::int64_t>(mgr->totals().reports));
  EXPECT_EQ(snap.sum_values("net_peer_bans_total"),
            static_cast<std::int64_t>(mgr->totals().bans));
  const MetricSample* standing =
      snap.find("net_peer_standing", "player=2");
  ASSERT_NE(standing, nullptr);
  EXPECT_EQ(standing->value,
            static_cast<std::int64_t>(PeerStanding::kBanned));
  EXPECT_EQ(snap.sum_values("net_peer_unbans_total"), 0);

  // Decay past ban_exit: the unban shows up in the view at once.
  mgr->tick();
  ASSERT_FALSE(mgr->banned(2));
  EXPECT_EQ(mgr->totals().unbans, 1u);
  const MetricsSnapshot after = metrics().snapshot();
  EXPECT_EQ(after.sum_values("net_peer_unbans_total"),
            static_cast<std::int64_t>(mgr->totals().unbans));
  EXPECT_EQ(after.sum_values("net_peer_bans_total"),
            static_cast<std::int64_t>(mgr->totals().bans));
  const MetricSample* healed = after.find("net_peer_standing", "player=2");
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(healed->value,
            static_cast<std::int64_t>(mgr->standing(2)));
  EXPECT_NE(healed->value, static_cast<std::int64_t>(PeerStanding::kBanned));
}

// Views from two committees and interleaved pushed instruments: the
// snapshot groups every family, so the Prometheus text has one # TYPE
// line per family and each family's samples in one contiguous block.
TEST_F(TelemetryTest, PrometheusEmitsEachFamilyOnceAndContiguously) {
  set_telemetry_enabled(true);
  // Registration interleaved by committee, the pattern that used to
  // split families.
  for (int c = 0; c < 2; ++c) {
    const std::string l = "committee=" + std::to_string(c);
    metrics().counter("t_first_total", l).add(1);
    metrics().histogram("t_wait_us", l).observe(10);
  }
  const int n = 4;
  Cluster cluster(n, 1, /*seed=*/41);
  Committee::Options o0;
  o0.id = 1;
  o0.first_stream = 0;
  o0.stream_count = 16;
  o0.t = 0;
  Committee::Options o1 = o0;
  o1.id = 2;
  o1.first_stream = 16;
  Committee com0(cluster, {0, 1}, o0);
  Committee com1(cluster, {2, 3}, o1);
  HealthBoard board(/*committees=*/2, /*batches=*/1, FailoverPolicy{});
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    Endpoint& ep = io.id() < 2 ? com0.endpoint(io) : com1.endpoint(io);
    ep.send_all(make_tag(ProtoId::kApp, 0, 0), {5, 5});
    ep.sync();
  }));
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_NE(snap.find("net_domain_messages_total", "committee=1"), nullptr);
  EXPECT_NE(snap.find("net_domain_messages_total", "committee=2"), nullptr);
  EXPECT_EQ(snap.sum_values("net_domain_messages_total"),
            static_cast<std::int64_t>(cluster.comm().messages));

  std::ostringstream os;
  snap.write_prometheus(os);
  std::istringstream lines(os.str());
  std::set<std::string> typed;
  std::string family;
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(family).second) << "repeated: " << line;
      continue;
    }
    ++samples;
    // A sample belongs to the family typed just above it.
    ASSERT_FALSE(family.empty()) << line;
    ASSERT_EQ(line.rfind(family, 0), 0u) << "outside its family: " << line;
    const std::string rest = line.substr(family.size());
    EXPECT_TRUE(rest[0] == '{' || rest[0] == ' ' ||
                rest.rfind("_bucket", 0) == 0 || rest.rfind("_sum", 0) == 0 ||
                rest.rfind("_count", 0) == 0)
        << line;
  }
  EXPECT_GT(samples, typed.size());
  EXPECT_EQ(typed.count("dprbg_t_first_total"), 1u);
  EXPECT_EQ(typed.count("dprbg_beacon_committee_health"), 1u);
}

// The deployed shape: four TcpClusters of one TcpLoopback in one
// process, each with its own views. Same-labelled samples merge, so the
// snapshot sums to the nodes' own stats() and comm() exactly.
TEST_F(TelemetryTest, TcpLoopbackViewsSumNodeLedgers) {
  set_telemetry_enabled(true);
  const int n = 4, t = 0;  // Coin-Gen's phase-king BA needs n > 4t
  const std::uint64_t seed = 515;
  const unsigned m = 2, batches = 2;
  auto genesis = trusted_dealer_coins<F>(n, t, 4 * batches + 8, seed);
  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&](TcpPartyIo& io) {
      CoinPool<F> pool;
      for (const auto& c : genesis[static_cast<std::size_t>(io.id())]) {
        pool.add(c);
      }
      PipelineOptions opts;
      opts.depth = 2;
      const auto res = pipelined_coin_gen<F>(io, m, pool, batches, opts);
      EXPECT_EQ(res.batches.size(), batches);
      for (const auto& b : res.batches) EXPECT_TRUE(b.success);
    });
  }
  loop.run(std::move(programs));
  const MetricsSnapshot snap = metrics().snapshot();

  std::set<std::pair<std::string, std::string>> keys;
  for (const auto& s : snap.samples) {
    EXPECT_TRUE(keys.insert({s.name, s.labels}).second)
        << "duplicate sample " << s.name << "{" << s.labels << "}";
  }

  CommCounters comm;
  TcpStats::PeerStats sum;
  for (int i = 0; i < n; ++i) {
    comm += loop.node(i).comm();
    const TcpStats st = loop.node(i).stats();
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto& ps = st.peers[static_cast<std::size_t>(j)];
      sum.connects += ps.connects;
      sum.reconnects += ps.reconnects;
      sum.tx_bytes += ps.tx_bytes;
      sum.rx_bytes += ps.rx_bytes;
      const MetricSample* tx = snap.find(
          "net_tcp_tx_bytes_total",
          "node=" + std::to_string(i) + ",peer=" + std::to_string(j));
      ASSERT_NE(tx, nullptr) << i << "->" << j;
      EXPECT_EQ(tx->value, static_cast<std::int64_t>(ps.tx_bytes));
    }
    const MetricSample* pending =
        snap.find("net_tcp_recv_pending", "node=" + std::to_string(i));
    ASSERT_NE(pending, nullptr) << i;
    EXPECT_EQ(pending->value, static_cast<std::int64_t>(st.recv_pending));
  }
  EXPECT_GT(sum.tx_bytes, 0u);
  EXPECT_EQ(snap.sum_values("net_tcp_tx_bytes_total"),
            static_cast<std::int64_t>(sum.tx_bytes));
  EXPECT_EQ(snap.sum_values("net_tcp_rx_bytes_total"),
            static_cast<std::int64_t>(sum.rx_bytes));
  EXPECT_EQ(snap.sum_values("net_tcp_connects_total"),
            static_cast<std::int64_t>(sum.connects));
  EXPECT_EQ(snap.sum_values("net_tcp_reconnects_total"),
            static_cast<std::int64_t>(sum.reconnects));
  EXPECT_EQ(snap.sum_values("net_domain_messages_total"),
            static_cast<std::int64_t>(comm.messages));
  EXPECT_EQ(snap.sum_values("net_domain_bytes_total"),
            static_cast<std::int64_t>(comm.bytes));
  EXPECT_EQ(snap.sum_values("net_player_bytes_total"),
            static_cast<std::int64_t>(comm.bytes));
  EXPECT_EQ(snap.sum_values("net_stale_rejections_total"), 0);
}

// The lock-order hazard (run under TSan by tools/sanitize.sh): a thread
// snapshots in a loop while a faulted Cluster bans a peer mid-run and a
// HealthBoard evicts committees, so every collector runs against live
// writers. The final snapshot still equals the ledgers exactly.
TEST_F(TelemetryTest, SnapshotDuringBanningRunAndEvictionsIsSafe) {
  set_telemetry_enabled(true);
  const int n = 4, rounds = 12;
  auto mgr = std::make_shared<MisbehaviorManager>(n);
  FaultPlan plan;
  plan.charge(1);
  for (int r = 0; r + 1 < rounds; r += 2) {
    plan.add(r, /*from=*/1, /*to=*/2, {FaultAction::kDelay, 1});
  }
  Cluster cluster(n, 1, /*seed=*/61);
  cluster.set_fault_injector(
      std::make_shared<FaultInjector>(std::move(plan)));
  cluster.set_misbehavior_manager(mgr);
  const unsigned committees = 4;
  HealthBoard board(committees, /*batches=*/4, FailoverPolicy{});

  std::atomic<bool> done{false};
  std::atomic<int> snaps{0};
  std::thread snapper([&] {
    do {
      const MetricsSnapshot s = metrics().snapshot();
      if (s.find("net_domain_messages_total", "committee=0") != nullptr) {
        snaps.fetch_add(1);
      }
    } while (!done.load());
  });
  std::thread evictor([&] {
    for (unsigned c = 1; c < committees; ++c) {
      board.mark_lagging(c);
      board.report_batch_done(c, 0);
      (void)board.may_launch(c, 1);
      board.evict(c, 2, EvictionReason::kScripted);
      (void)board.may_launch(c, 2);
      board.note_degraded_window();
    }
  });
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    for (int r = 0; r < rounds; ++r) {
      io.send_all(make_tag(ProtoId::kApp, 0, r), {3, 1, 4});
      io.sync();
      // Three witnesses a round against player 0: banned mid-run.
      if (io.id() != 0) io.note_decode_failure(0);
    }
  }));
  evictor.join();
  done.store(true);
  snapper.join();
  EXPECT_GT(snaps.load(), 0);

  ASSERT_TRUE(mgr->banned(0));
  EXPECT_GT(cluster.banned_suppressions(), 0u);
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_EQ(snap.sum_values("net_domain_messages_total"),
            static_cast<std::int64_t>(cluster.comm().messages));
  EXPECT_EQ(snap.sum_values("net_decode_rejections_total"),
            static_cast<std::int64_t>(cluster.decode_rejections()));
  EXPECT_EQ(snap.sum_values("net_slow_envelopes_total"),
            static_cast<std::int64_t>(cluster.slow_envelopes()));
  EXPECT_EQ(snap.sum_values("net_fault_effects_total"),
            static_cast<std::int64_t>(cluster.faults().total()));
  EXPECT_EQ(snap.sum_values("net_banned_suppressed_total"),
            static_cast<std::int64_t>(cluster.banned_suppressions()));
  EXPECT_EQ(snap.sum_values("net_peer_bans_total"),
            static_cast<std::int64_t>(mgr->totals().bans));
  EXPECT_EQ(snap.sum_values("net_misbehavior_reports_total"),
            static_cast<std::int64_t>(mgr->totals().reports));
  const HealthCounters hc = board.counters();
  EXPECT_EQ(hc.evictions, committees - 1);
  const MetricSample* scripted =
      snap.find("beacon_evictions_total", "reason=scripted");
  ASSERT_NE(scripted, nullptr);
  EXPECT_EQ(scripted->value, static_cast<std::int64_t>(hc.evictions));
  EXPECT_EQ(snap.sum_values("beacon_lagging_total"),
            static_cast<std::int64_t>(hc.lagging_transitions));
  EXPECT_EQ(snap.sum_values("beacon_cancelled_batches_total"),
            static_cast<std::int64_t>(hc.cancelled_batches));
  EXPECT_EQ(snap.sum_values("beacon_degraded_windows_total"),
            static_cast<std::int64_t>(hc.degraded_windows));
  for (unsigned c = 0; c < committees; ++c) {
    const MetricSample* h =
        snap.find("beacon_committee_health", "committee=" + std::to_string(c));
    ASSERT_NE(h, nullptr) << c;
    EXPECT_EQ(h->value, static_cast<std::int64_t>(board.health(c))) << c;
  }
}

TEST_F(TelemetryTest, BeaconStatusDistillsHealthBoard) {
  FailoverPolicy policy;
  HealthBoard board(/*committees=*/3, /*batches=*/4, policy);
  board.report_batch_done(0, 0);
  board.report_batch_done(0, 1);
  board.evict(2, 1, EvictionReason::kCrashed);
  const BeaconStatus st = beacon_status(board);
  EXPECT_EQ(st.committees, 3u);
  EXPECT_EQ(st.live, 2u);
  EXPECT_EQ(st.evicted, 1u);
  EXPECT_TRUE(st.degraded);
  EXPECT_EQ(st.counters.evictions, 1u);
  EXPECT_EQ(st.per_committee[0].batches_done, 2u);
  EXPECT_EQ(st.per_committee[2].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(st.per_committee[2].reason, EvictionReason::kCrashed);
  // Telemetry disabled: no pool gauge to read.
  EXPECT_EQ(st.pool_depth, -1);
  const std::string line = st.to_json();
  EXPECT_NE(line.find("\"kind\":\"beacon_status\""), std::string::npos);
  EXPECT_NE(line.find("\"evicted\":1"), std::string::npos);
  EXPECT_NE(line.find("2:evicted(crashed)@1"), std::string::npos);
}

}  // namespace
}  // namespace dprbg
