// Experiment E17: sharded-beacon throughput vs committee count.
//
// Paper context: one n-player clique's coin rate is bounded by its round
// latency no matter how deep the Coin-Gen pipeline runs — every batch
// still crosses the same n players. Sharding K committees of n players
// each (net/committee.h, src/beacon/beacon.h) multiplies throughput: the
// committees run disjoint rosters on disjoint stream slices, so their
// rounds overlap fully and the beacon mints ~K times the coins in the
// same wall-clock, while the XOR combination keeps the global output
// uniform as long as any one committee stays within its fault bound
// (DESIGN.md §11).
//
// The harness simulates per-round link latency exactly as E16 does and
// measures wall-clock and coins/sec at K = 1, 2, 4 committees (same
// per-committee workload each time). Hard invariants checked on every
// run: zero stale-tag rejections, zero foreign-roster rejections, and
// per-committee fault ledgers summing to Cluster::faults() exactly.
//
// Flags: --json (machine-readable rows), --rtt-us=N (default 10000),
// --smoke (K = 1, 2 only, for CI), --batches=N, --depth=N.
//
// --metrics=FILE additionally runs one telemetry-enabled K=2 beacon
// (with a mild fault plan on committee 0 so the fault counters are
// genuinely nonzero) and hard-fails unless the registry snapshot
// reconciles EXACTLY with Cluster::faults(), the per-committee domain
// ledgers, and the trace layer's per-round comm deltas — then writes
// the snapshot to FILE and prints the run's BeaconStatus JSON line.
// The measured rows above always run telemetry-disabled, so --metrics
// never perturbs the numbers.
//
// --crash-committee switches to the E18 liveness bench instead: the
// last committee crashes after its first batch, the failover monitor
// (wall budget derived from the simulated rtt) evicts it, and the run
// hard-fails unless the beacon keeps emitting from the survivors with
// the output marked degraded and the degraded throughput within 25% of
// the ideal (K-1)/K fraction of the healthy baseline at the same K.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "beacon/beacon.h"
#include "bench_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "gf/gf2.h"
#include "net/fault.h"

namespace dprbg {
namespace {

using F = GF2_64;
using bench::fmt;

constexpr unsigned kCommitteeSize = 7;
constexpr unsigned kCommitteeT = 1;
constexpr unsigned kM = 4;  // coins per batch
constexpr std::uint64_t kSeed = 171717;

struct RunStats {
  unsigned coins = 0;  // combined beacon outputs actually minted
  double wall_ms = 0.0;
  std::uint64_t stale = 0;
  std::uint64_t foreign = 0;
  std::uint64_t cluster_faults = 0;
  std::uint64_t committee_faults = 0;  // sum of per-committee ledgers
  bool success = false;
  bool degraded = false;
  bool crashed_evicted = false;  // crash mode: last committee evicted
};

RunStats run_beacon(unsigned k, unsigned batches, unsigned depth,
                    unsigned rtt_us, bool crash = false) {
  typename Beacon<F>::Options opts;
  opts.committees = k;
  opts.committee_size = kCommitteeSize;
  opts.committee_t = kCommitteeT;
  opts.coins_per_batch = kM;
  opts.batches = batches;
  opts.depth = depth;
  opts.seed = kSeed;
  opts.round_latency_us = rtt_us;
  if (crash) {
    // The last committee dies after its first batch; the wall-clock
    // budget is derived from the simulated rtt so the monitor's view of
    // "stalled" scales with the latency the links actually add.
    opts.chaos.crash_committee = static_cast<int>(k) - 1;
    opts.chaos.crash_at_batch = 1;
    opts.failover.wall_budget_ms =
        opts.failover.derive_wall_budget_ms(rtt_us);
  }
  Beacon<F> beacon(opts);

  RunStats stats;
  const auto start = std::chrono::steady_clock::now();
  const auto out = beacon.run();
  const auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  if (crash) {
    // Count only the per-committee exposures that actually backed the
    // combined outputs: the popcount of each emitted window's mask.
    for (std::uint32_t mask : out.window_mask) {
      for (; mask; mask &= mask - 1) stats.coins += kM;
    }
  } else {
    stats.coins =
        static_cast<unsigned>(out.beacon.size()) * k;  // coins exposed total
  }
  stats.success = out.success;
  stats.degraded = out.degraded;
  stats.crashed_evicted =
      !out.committees.empty() &&
      out.committees.back().health == CommitteeHealth::kEvicted;
  stats.stale = beacon.cluster().stale_rejections();
  stats.foreign = beacon.cluster().foreign_rejections();
  stats.cluster_faults = beacon.cluster().faults().total();
  for (unsigned c = 0; c < k; ++c) {
    stats.committee_faults += beacon.committee(c).faults().total();
  }
  return stats;
}

// The beacon telemetry gate: one K=2 run with the registry AND the
// tracer live, plus a mild link-fault plan on committee 0 so the fault
// counters have something real to count. Three independent ledgers must
// then agree exactly — the telemetry snapshot, the cluster's own domain
// ledgers, and the trace layer's per-round comm deltas — because a
// counter that merely "looks plausible" is worthless. The gate does NOT
// assert protocol success (the fault plan may sink batches); it asserts
// that every layer told the same story about what happened.
bool run_metrics_gate(const std::string& path, unsigned batches,
                      unsigned depth, unsigned rtt_us) {
  const unsigned k = 2;
  metrics().reset();
  tracer().clear();
  set_telemetry_enabled(true);
  tracer().set_enabled(true);

  typename Beacon<F>::Options opts;
  opts.committees = k;
  opts.committee_size = kCommitteeSize;
  opts.committee_t = kCommitteeT;
  opts.coins_per_batch = kM;
  opts.batches = batches;
  opts.depth = depth;
  opts.seed = kSeed;
  opts.round_latency_us = rtt_us;
  Beacon<F> beacon(opts);
  FaultPlanParams params;
  params.n = static_cast<int>(kCommitteeSize);
  params.t = kCommitteeT;
  params.rounds = 48;
  params.fault_rate = 0.05;
  beacon.committee(0).set_fault_injector(
      random_fault_plan(params, kSeed + 7));

  const auto out = beacon.run();
  const MetricsSnapshot snap = metrics().snapshot();
  const BeaconStatus status = beacon.status();
  tracer().set_enabled(false);
  set_telemetry_enabled(false);

  Cluster& cluster = beacon.cluster();
  bool ok = true;
  auto check = [&ok](const std::string& what, std::int64_t got,
                     std::int64_t want) {
    if (got != want) {
      std::fprintf(stderr,
                   "FAIL: telemetry reconciliation: %s: snapshot=%lld "
                   "ledger=%lld\n",
                   what.c_str(), static_cast<long long>(got),
                   static_cast<long long>(want));
      ok = false;
    }
  };

  // Cluster-wide totals: labeled counters summed over committees must
  // equal the cluster's aggregate ledgers exactly.
  check("stale rejections", snap.sum_values("net_stale_rejections_total"),
        static_cast<std::int64_t>(cluster.stale_rejections()));
  check("foreign rejections",
        snap.sum_values("net_foreign_rejections_total"),
        static_cast<std::int64_t>(cluster.foreign_rejections()));
  check("decode rejections",
        snap.sum_values("net_decode_rejections_total"),
        static_cast<std::int64_t>(cluster.decode_rejections()));
  check("slow envelopes", snap.sum_values("net_slow_envelopes_total"),
        static_cast<std::int64_t>(cluster.slow_envelopes()));
  check("banned suppressions",
        snap.sum_values("net_banned_suppressed_total"),
        static_cast<std::int64_t>(cluster.banned_suppressions()));
  check("fault effects", snap.sum_values("net_fault_effects_total"),
        static_cast<std::int64_t>(cluster.faults().total()));
  check("domain messages", snap.sum_values("net_domain_messages_total"),
        static_cast<std::int64_t>(cluster.comm().messages));
  check("domain bytes", snap.sum_values("net_domain_bytes_total"),
        static_cast<std::int64_t>(cluster.comm().bytes));
  check("player messages", snap.sum_values("net_player_messages_total"),
        static_cast<std::int64_t>(cluster.comm().messages));
  check("player bytes", snap.sum_values("net_player_bytes_total"),
        static_cast<std::int64_t>(cluster.comm().bytes));
  if (cluster.faults().total() == 0) {
    std::fprintf(stderr,
                 "FAIL: fault plan never fired — the fault-counter "
                 "reconciliation is vacuous\n");
    ok = false;
  }

  // Per-committee: the committee-labeled counters against that
  // committee's own domain ledger, which the eviction scorer reads.
  for (unsigned c = 0; c < k; ++c) {
    const Cluster::DomainLedger led = beacon.committee(c).ledger();
    const std::string lab = "committee=" + std::to_string(c);
    auto value = [&snap, &lab](const char* name) -> std::int64_t {
      const MetricSample* s = snap.find(name, lab);
      return s == nullptr ? 0 : s->value;
    };
    check(lab + " faults", value("net_fault_effects_total"),
          static_cast<std::int64_t>(led.faults.total()));
    check(lab + " stale", value("net_stale_rejections_total"),
          static_cast<std::int64_t>(led.stale));
    check(lab + " foreign", value("net_foreign_rejections_total"),
          static_cast<std::int64_t>(led.foreign));
    const MetricSample* health =
        snap.find("beacon_committee_health", lab);
    if (health == nullptr) {
      std::fprintf(stderr, "FAIL: no beacon_committee_health gauge for %s\n",
                   lab.c_str());
      ok = false;
    } else {
      check(lab + " health gauge", health->value,
            static_cast<std::int64_t>(out.committees[c].health));
    }
  }

  // Trace-layer cross-check: the per-round comm deltas the tracer
  // recorded must sum to the same totals the telemetry counters carry.
  CommCounters traced;
  for (const auto& ev : tracer().events()) {
    if (ev.protocol == "net" && ev.phase == "round") traced += ev.comm;
  }
  check("traced round messages",
        snap.sum_values("net_domain_messages_total"),
        static_cast<std::int64_t>(traced.messages));
  check("traced round bytes", snap.sum_values("net_domain_bytes_total"),
        static_cast<std::int64_t>(traced.bytes));

  // Beacon-level instruments against the run's own output.
  check("windows", snap.sum_values("beacon_windows_total"),
        static_cast<std::int64_t>(out.window_mask.size()));
  check("pipeline batches joined",
        snap.sum_values("pipeline_batches_total"),
        static_cast<std::int64_t>(batches) * k * kCommitteeSize);
  // The status aggregate is built from the same HealthBoard the run
  // used; its counters must match the output's.
  check("status evictions",
        static_cast<std::int64_t>(status.counters.evictions),
        static_cast<std::int64_t>(out.health.evictions));
  check("status degraded windows",
        static_cast<std::int64_t>(status.counters.degraded_windows),
        static_cast<std::int64_t>(out.health.degraded_windows));

  if (!snap.write_json_file(path)) {
    std::fprintf(stderr, "FAIL: cannot write metrics snapshot to %s\n",
                 path.c_str());
    ok = false;
  }
  std::fprintf(stderr, "%s\n", status.to_json().c_str());
  if (ok) {
    std::fprintf(stderr,
                 "telemetry reconciliation OK (%zu instruments, 3-way: "
                 "telemetry == cluster ledgers == trace deltas) -> %s\n",
                 snap.samples.size(), path.c_str());
  }
  tracer().clear();
  return ok;
}

// E18 liveness bench (--crash-committee): baseline and crashed runs at
// the same K, hard-failing unless the survivors keep the beacon alive
// at a sane fraction of the healthy rate. Returns the process exit code.
int run_crash_bench(bool smoke, unsigned batches, unsigned depth,
                    unsigned rtt_us) {
  using namespace dprbg::bench;
  const unsigned k = smoke ? 2u : 4u;

  print_header(
      "E18: beacon liveness under committee crash",
      "a crashed committee is evicted by the failover monitor and "
      "dropped whole from the XOR combination; the surviving K-1 "
      "committees keep emitting, the output is marked degraded, and "
      "throughput stays near the ideal (K-1)/K of the healthy baseline");

  Table table({"mode", "K", "players", "batches", "depth", "coins",
               "wall_ms", "coins_per_s", "rate_vs_baseline", "degraded",
               "evicted", "success", "stale", "foreign"});
  table.context("n", fmt(kCommitteeSize));
  table.context("t", fmt(kCommitteeT));
  table.context("M", fmt(kM));
  table.context("rtt_us", fmt(rtt_us));

  const RunStats base = run_beacon(k, batches, depth, rtt_us);
  const double base_rate = base.coins / (base.wall_ms / 1000.0);
  const RunStats cr = run_beacon(k, batches, depth, rtt_us, /*crash=*/true);
  const double cr_rate = cr.coins / (cr.wall_ms / 1000.0);

  auto row = [&](const char* mode, const RunStats& r, double rate) {
    table.row({mode, fmt(k), fmt(k * kCommitteeSize), fmt(batches),
               fmt(depth), fmt(r.coins), fmt(r.wall_ms), fmt(rate),
               fmt(rate / base_rate), r.degraded ? "yes" : "no",
               r.crashed_evicted ? "yes" : "no", r.success ? "yes" : "NO",
               fmt(r.stale), fmt(r.foreign)});
  };
  row("baseline", base, base_rate);
  row("crashed", cr, cr_rate);
  table.print();

  bool ok = true;
  auto fail = [&](const char* msg) {
    std::fprintf(stderr, "FAIL: %s\n", msg);
    ok = false;
  };
  if (!base.success) fail("healthy baseline run not unanimous");
  if (base.degraded) fail("healthy baseline run marked degraded");
  if (!cr.success) fail("crashed run: survivors not unanimous");
  if (!cr.degraded) fail("crashed run not marked degraded");
  if (!cr.crashed_evicted) fail("crashed committee was not evicted");
  if (cr.foreign != 0) fail("foreign-roster rejections in crashed run");
  if (cr.committee_faults != cr.cluster_faults) {
    fail("committee fault ledgers do not sum to cluster total");
  }
  // Liveness floor: survivors should deliver (K-1)/K of the healthy
  // rate; allow 25% slack for scheduling noise on loaded hosts.
  const double floor =
      base_rate * (static_cast<double>(k - 1) / k) * 0.75;
  if (cr_rate < floor) {
    std::fprintf(stderr,
                 "FAIL: degraded rate %.2f coins/s below liveness floor "
                 "%.2f (baseline %.2f at K=%u)\n",
                 cr_rate, floor, base_rate, k);
    ok = false;
  }
  if (!ok) return 1;
  if (!json_mode()) {
    std::printf(
        "\nshape check: the crashed run must stay within 25%% of the "
        "ideal (K-1)/K rate fraction — the eviction costs one committee's "
        "coins, never the survivors' wall-clock.\n");
  }
  return 0;
}

}  // namespace
}  // namespace dprbg

int main(int argc, char** argv) {
  using namespace dprbg;
  using namespace dprbg::bench;
  parse_args(argc, argv);
  bool smoke = false;
  unsigned batches = 4;
  unsigned depth = 2;
  // Default latency is higher than E16's: committee compute serializes
  // on few-core hosts, so the latency term must dominate for the
  // sharding speedup (which hides latency, not compute) to show.
  unsigned rtt_us = 10000;
  bool crash_mode = false;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") smoke = true;
    if (arg == "--crash-committee") crash_mode = true;
    if (arg.rfind("--rtt-us=", 0) == 0) {
      rtt_us = static_cast<unsigned>(std::atoi(argv[i] + 9));
    }
    if (arg.rfind("--batches=", 0) == 0) {
      batches = static_cast<unsigned>(std::atoi(argv[i] + 10));
    }
    if (arg.rfind("--depth=", 0) == 0) {
      depth = static_cast<unsigned>(std::atoi(argv[i] + 8));
    }
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = std::string(arg.substr(10));
    }
  }

  if (crash_mode) return run_crash_bench(smoke, batches, depth, rtt_us);

  print_header(
      "E17: sharded-beacon throughput vs committee count",
      "one clique's coin rate is round-latency-bound regardless of "
      "pipeline depth; K disjoint committees overlap their rounds fully, "
      "multiplying beacon coins/sec by ~K while the XOR combination "
      "stays uniform if any one committee is within its fault bound");

  Table table({"K", "players", "batches", "depth", "coins", "wall_ms",
               "coins_per_s", "speedup", "success", "stale", "foreign",
               "faults"});
  table.context("n", fmt(kCommitteeSize));
  table.context("t", fmt(kCommitteeT));
  table.context("M", fmt(kM));
  table.context("rtt_us", fmt(rtt_us));

  const std::vector<unsigned> ks =
      smoke ? std::vector<unsigned>{1u, 2u} : std::vector<unsigned>{1u, 2u, 4u};
  double k1_rate = 0.0;
  bool ok = true;
  for (unsigned k : ks) {
    const RunStats r = run_beacon(k, batches, depth, rtt_us);
    const double rate = r.coins / (r.wall_ms / 1000.0);
    if (k == 1) k1_rate = rate;
    table.row({fmt(k), fmt(k * kCommitteeSize), fmt(batches), fmt(depth),
               fmt(r.coins), fmt(r.wall_ms), fmt(rate), fmt(rate / k1_rate),
               r.success ? "yes" : "NO", fmt(r.stale), fmt(r.foreign),
               fmt(r.cluster_faults)});
    if (!r.success) {
      std::fprintf(stderr, "FAIL: beacon run not unanimous at K=%u\n", k);
      ok = false;
    }
    if (r.stale != 0) {
      std::fprintf(stderr, "FAIL: %llu stale rejections at K=%u\n",
                   static_cast<unsigned long long>(r.stale), k);
      ok = false;
    }
    if (r.foreign != 0) {
      std::fprintf(stderr, "FAIL: %llu foreign rejections at K=%u\n",
                   static_cast<unsigned long long>(r.foreign), k);
      ok = false;
    }
    if (r.committee_faults != r.cluster_faults) {
      std::fprintf(stderr,
                   "FAIL: committee fault ledgers (%llu) != cluster "
                   "faults (%llu) at K=%u\n",
                   static_cast<unsigned long long>(r.committee_faults),
                   static_cast<unsigned long long>(r.cluster_faults), k);
      ok = false;
    }
  }
  table.print();
  if (!ok) return 1;
  if (!metrics_path.empty() &&
      !run_metrics_gate(metrics_path, batches, depth, rtt_us)) {
    return 1;
  }
  if (json_mode()) return 0;
  std::printf(
      "\nshape check: committees share no rounds, so coins/sec should "
      "scale near-linearly in K (>= 1.8x at K=4 at the default rtt); "
      "stale and foreign must be 0 and the per-committee fault ledgers "
      "must sum to the cluster total.\n");
  return 0;
}
