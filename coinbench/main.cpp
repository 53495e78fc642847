// coinbench: the repository benchmark (see README.md).
//
//   coinbench --workload <mint_wide|draw_stream|tcp_mint> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes a separate traced run and splits it into per-layer metrics. Both
// print '#' lines (host facts, correctness gates, every metric with its
// unit, sample count and spread) and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// gate passed, 1 when one failed or the run threw, 2 on bad arguments.

#include "timed_io.h"  // first: its TraceSpan specialisation must precede use

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "common/trace.h"
#include "gf/gf2_clmul.h"
#include "kernels.h"
#include "net/msg.h"
#include "workloads.h"

#ifndef COINBENCH_BUILD_TYPE
#define COINBENCH_BUILD_TYPE "unknown"
#endif

namespace coinbench {
namespace {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<double> pooled(const RunResult& r,
                           std::vector<double> PlayerLog::*field) {
  std::vector<double> all;
  for (const auto& p : r.players) {
    all.insert(all.end(), (p.*field).begin(), (p.*field).end());
  }
  return all;
}

std::vector<double> pooled(const RunResult& r,
                           std::vector<Sample> PlayerLog::*field) {
  std::vector<double> all;
  for (const auto& p : r.players) {
    for (const Sample& s : p.*field) all.push_back(s.value);
  }
  return all;
}

std::string spread(const std::vector<double>& v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "samples=%zu p25=%.4g p75=%.4g", v.size(),
                quantile(v, 0.25), quantile(v, 0.75));
  return buf;
}

// The p-quantile of every histogram named `name` (all label sets merged),
// read the way Histogram::percentile reads one: the upper bound of the
// bucket holding the rank-ceil(q * count) observation.
double hist_quantile(const dprbg::MetricsSnapshot& snap, const char* name,
                     double q) {
  std::map<unsigned, std::uint64_t> buckets;
  std::uint64_t count = 0;
  for (const auto& s : snap.samples) {
    if (s.name != name || s.type != dprbg::MetricType::kHistogram) continue;
    for (const auto& [idx, c] : s.buckets) buckets[idx] += c;
    count += s.count;
  }
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [idx, c] : buckets) {
    seen += c;
    if (seen >= rank) {
      return static_cast<double>(dprbg::Histogram::bucket_upper(idx));
    }
  }
  return 0;
}

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           const std::string& note = {}) {
    if (!std::isfinite(value)) value = 0;
    all_positive_ = all_positive_ && value > 0;
    std::printf("# metric %-34s %14.6g %-8s %s\n", name.c_str(), value, unit,
                note.c_str());
    metrics_.push_back({name, value, unit});
  }
  void gate(const std::string& what, bool ok) {
    std::printf("# gate %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    correct_ = correct_ && ok;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  // Every metric so far was finite and above 0.
  [[nodiscard]] bool all_positive() const { return all_positive_; }

  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  bool all_positive_ = true;
};

void print_host() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("# host nproc=%u cpu=\"%s\" clmul_hw=%d wire=v%d build=%s\n",
              std::thread::hardware_concurrency(), cpu.c_str(),
              dprbg::gf2_detail::clmul_hw ? 1 : 0,
              static_cast<int>(dprbg::wire_version()), COINBENCH_BUILD_TYPE);
}

// Gates every run must pass: players agree, nothing failed, and the
// transports rejected nothing.
void check_run(Report& rep, const RunResult& r, const std::string& label) {
  bool agree = true;
  std::uint64_t failures = 0;
  for (const auto& p : r.players) {
    agree = agree && p.pub == r.players[0].pub;
    failures += p.failed_batches + p.failed_draws;
  }
  rep.gate(label + ": all players agree on " +
               std::to_string(r.players[0].pub.size()) +
               " batch/draw outputs",
           agree);
  rep.gate(label + ": " + std::to_string(failures) +
               " failed batches or draws",
           failures == 0);
  rep.gate(label + ": rejections stale=" + std::to_string(r.stale) +
               " foreign=" + std::to_string(r.foreign) +
               " decode=" + std::to_string(r.decode) +
               " frame=" + std::to_string(r.frame_errors) +
               " lapsed=" + std::to_string(r.lapsed_peers),
           r.stale == 0 && r.foreign == 0 && r.decode == 0 &&
               r.frame_errors == 0 && r.lapsed_peers == 0);
}

// Same per-player outputs (shares included) over the ops both runs made.
bool same_prefix(const RunResult& a, const RunResult& b) {
  for (std::size_t i = 0; i < a.players.size(); ++i) {
    const auto& x = a.players[i];
    const auto& y = b.players[i];
    const std::size_t n = std::min(x.priv.size(), y.priv.size());
    if (!std::equal(x.pub.begin(), x.pub.begin() + n, y.pub.begin()) ||
        !std::equal(x.priv.begin(), x.priv.begin() + n, y.priv.begin())) {
      return false;
    }
  }
  return true;
}

// Same per-player outputs and comm ledgers, op for op.
bool same_outputs(const RunResult& a, const RunResult& b) {
  for (std::size_t i = 0; i < a.players.size(); ++i) {
    const dprbg::CommCounters& x = a.comm[i];
    const dprbg::CommCounters& y = b.comm[i];
    if (a.players[i].priv.size() != b.players[i].priv.size() ||
        x.messages != y.messages || x.bytes != y.bytes ||
        x.rounds != y.rounds) {
      return false;
    }
  }
  return same_prefix(a, b);
}

std::uint64_t failed_ops(const RunResult& r) {
  std::uint64_t worst = 0;
  for (const auto& p : r.players) {
    worst = std::max(worst, p.window_failed);
  }
  return worst + r.lapsed_peers;
}

std::uint64_t attempted_ops(const RunResult& r) {
  return std::max<std::uint64_t>(1, r.players[0].batches + r.players[0].draws);
}

// The end-to-end figures are read from the window in 500 ms slices. On a
// shared host, CPU steal comes in episodes of seconds, and while one lasts
// every lockstep round waits for the starved player. Each figure is taken
// from the best slice, the one no episode touched: the highest slice rate
// and the lowest slice median latency. A change to the code moves every
// slice, the best one included.
constexpr std::uint64_t kSliceNs = 500'000'000;

// Player 0's op rate in each whole slice of each segment, up to the
// segment's last op. Ops completed by time t count up linearly between op
// ends (from 0 at the segment start), so a slice's rate is not rounded to
// whole ops and two ops ending together cannot inflate it.
std::vector<double> slice_rates(const std::vector<Segment>& segs,
                                double per_op) {
  std::vector<double> rates;
  for (const Segment& seg : segs) {
    const auto& ends = seg.ends;
    if (ends.empty()) continue;
    const auto done_by = [&](Clock::time_point t) {
      const std::size_t i = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), t) - ends.begin());
      if (i == ends.size()) return static_cast<double>(i);
      const Clock::time_point from = i == 0 ? seg.begin : ends[i - 1];
      return static_cast<double>(i) +
             ratio(static_cast<double>(ns_between(from, t)),
                   static_cast<double>(ns_between(from, ends[i])));
    };
    const std::uint64_t whole = ns_between(seg.begin, ends.back()) / kSliceNs;
    for (std::uint64_t i = 0; i < whole; ++i) {
      const auto from = seg.begin + std::chrono::nanoseconds(i * kSliceNs);
      const auto to = from + std::chrono::nanoseconds(kSliceNs);
      rates.push_back((done_by(to) - done_by(from)) * per_op * 1e9 /
                      static_cast<double>(kSliceNs));
    }
  }
  return rates;
}

// The median of each slice's samples, all players pooled. A slice counts
// only if it holds at least half as many samples as the fullest one: a
// slice that catches the few ops at a segment's edge (the pipeline's last,
// unqueued batch, say) is not representative.
std::vector<double> slice_medians(const RunResult& r,
                                  std::vector<Sample> PlayerLog::*field) {
  std::vector<std::vector<double>> slices;
  std::size_t fullest = 0;
  for (const auto& p : r.players) {
    for (const Sample& s : p.*field) {
      const std::size_t i = ns_between(r.begin, s.end) / kSliceNs;
      if (i >= slices.size()) slices.resize(i + 1);
      slices[i].push_back(s.value);
      fullest = std::max(fullest, slices[i].size());
    }
  }
  std::vector<double> medians;
  for (const auto& v : slices) {
    if (!v.empty() && 2 * v.size() >= fullest) {
      medians.push_back(quantile(v, 0.5));
    }
  }
  return medians;
}

std::string slice_note(const std::vector<double>& v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%zu slices; min %.4g, median %.4g, "
                "max %.4g", v.size(), quantile(v, 0.0), quantile(v, 0.5),
                quantile(v, 1.0));
  return buf;
}

// VmHWM, the peak RSS of this process image. getrusage's ru_maxrss is not
// used: Linux carries it across execve, so it would count the launcher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// --trace 0: end-to-end metrics, tracing off.
void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    Report& rep, std::uint64_t& attempted,
                    std::uint64_t& failed) {
  // Set-up (dealing, transport start, warm-up) is measured five times, two
  // before the timed run, its own, and two after, and the fastest is
  // reported, as the rates are read from the best slice. Peak RSS is read
  // before any timed window, whose per-op sample logs belong to the
  // benchmark rather than to the system.
  std::vector<double> setups;
  const auto setup_only = [&] {
    Shape s;
    s.seed = seed;
    s.setup_only = true;
    setups.push_back(run_workload(w, s).setup_s);
  };
  setup_only();
  setup_only();
  const double rss = peak_rss_mb();
  Shape s;
  s.seed = seed;
  s.seconds = seconds;
  const RunResult run = run_workload(w, s);
  setups.push_back(run.setup_s);
  setup_only();
  setup_only();
  check_run(rep, run, "timed run");
  if (w.tcp) {
    Shape replay;
    replay.seed = seed;
    replay.replay = &run.verdicts;
    const RunResult sim = run_workload(w, replay, /*force_sim=*/true);
    rep.gate("TCP outputs and per-player comm ledgers equal a simulated run "
             "of the same ops (" + std::to_string(run.timed_ops) + ")",
             same_outputs(run, sim));
  }
  attempted = attempted_ops(run);
  failed = failed_ops(run);

  // Each rate from its own op ends: batches (on draw_stream, the draws
  // that carried a refill) and draws.
  const PlayerLog& p0 = run.players[0];
  const std::vector<double> coin_rates = slice_rates(p0.coin_segs, w.m);
  const std::vector<double> draw_rates = slice_rates(p0.draw_segs, 1);
  const std::vector<double> batch_ms = slice_medians(run, &PlayerLog::batch_ms);
  const std::vector<double> draw_us = slice_medians(run, &PlayerLog::draw_us);
  rep.add("coins_per_s", quantile(coin_rates, 1.0), "coins/s",
          std::to_string(p0.coins) + " coins; " + slice_note(coin_rates));
  rep.add("batch_ms_p50", quantile(batch_ms, 0.0), "ms",
          slice_note(batch_ms));
  rep.add("draws_per_s", quantile(draw_rates, 1.0), "draws/s",
          std::to_string(p0.draws) + " draws; " + slice_note(draw_rates));
  rep.add("draw_us_p50", quantile(draw_us, 0.0), "us", slice_note(draw_us));
  std::string all_setups = "fastest of";
  for (double v : setups) all_setups += " " + std::to_string(v);
  rep.add("setup_s", quantile(setups, 0.0), "s", all_setups);
  rep.add("peak_rss_mb", rss, "MB", "after set-up, before the timed window");
  rep.gate("every end-to-end metric is read from at least one slice and is "
           "positive",
           !coin_rates.empty() && !draw_rates.empty() && !batch_ms.empty() &&
               !draw_us.empty() && rep.all_positive());
  std::printf("# error_rate %.6g (%llu failed / %llu attempted)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
}

// --trace 1: a traced run split into per-layer metrics.
void run_layers(const Workload& w, std::uint64_t seed, double seconds,
                Report& rep, std::uint64_t& attempted,
                std::uint64_t& failed) {
  // Untraced window: the tail latencies, and the ops the traced run replays.
  Shape u;
  u.seed = seed;
  u.seconds = seconds;
  const RunResult un = run_workload(w, u);
  check_run(rep, un, "untraced run");

  // The traced run makes the untraced run's ops again, in the same
  // segments, cut after the first trace_cap (trace memory).
  std::vector<bool> schedule;
  for (std::uint64_t admitted = 0;
       schedule.size() < un.verdicts.size() && admitted < w.trace_cap;) {
    schedule.push_back(un.verdicts[schedule.size()]);
    if (schedule.back()) ++admitted;
  }
  dprbg::metrics().reset();
  dprbg::tracer().clear();
  dprbg::set_telemetry_enabled(true);
  dprbg::tracer().set_enabled(true);
  Shape s;
  s.seed = seed;
  s.replay = &schedule;
  s.traced = true;
  const RunResult tr = run_workload(w, s);
  dprbg::set_telemetry_enabled(false);
  dprbg::tracer().set_enabled(false);
  const dprbg::MetricsSnapshot snap = dprbg::metrics().snapshot();
  std::printf("# traced run: %llu timed ops, %zu trace events\n",
              static_cast<unsigned long long>(tr.timed_ops),
              dprbg::tracer().size());
  dprbg::tracer().clear();
  check_run(rep, tr, "traced run");
  rep.gate("traced run's outputs equal the untraced run's over their "
           "common ops",
           same_prefix(tr, un));

  // The traced run's ops again, bare: the wrapper's self-check.
  Shape bare_shape;
  bare_shape.seed = seed;
  bare_shape.replay = &tr.verdicts;
  const RunResult bare = run_workload(w, bare_shape);
  check_run(rep, bare, "bare replay");
  rep.gate("TimedIo-wrapped traced run and bare run: identical digests and "
           "comm ledgers",
           same_outputs(tr, bare));
  if (w.tcp) {
    const RunResult sim = run_workload(w, bare_shape, /*force_sim=*/true);
    rep.gate("TCP traced run equals a simulated run of the same shape",
             same_outputs(tr, sim));
  }
  attempted = attempted_ops(tr);
  failed = failed_ops(tr);

  // Tails, from the untraced window: too noisy run to run for end-to-end.
  const auto batch_ms = pooled(un, &PlayerLog::batch_ms);
  const auto draw_us = pooled(un, &PlayerLog::draw_us);
  rep.add("batch_ms_p90", quantile(batch_ms, 0.90), "ms", spread(batch_ms));
  rep.add("draw_us_p99", quantile(draw_us, 0.99), "us", spread(draw_us));
  rep.add("draw_us_p999", quantile(draw_us, 0.999), "us", spread(draw_us));

  const PlayerLog& p0 = tr.players[0];
  std::vector<RoundTiming> rounds;
  PhaseTable phases;
  std::vector<double> gen_ms;
  for (const auto& p : tr.players) {
    rounds.insert(rounds.end(), p.timed.rounds.begin(), p.timed.rounds.end());
    for (const auto& [key, ph] : p.timed.phases) phases[key] += ph;
    for (std::uint64_t ns : p.timed.coin_gen_ns) {
      gen_ms.push_back(static_cast<double>(ns) / 1e6);
    }
  }

  // net / tcp: the transport the workload runs on.
  std::vector<double> sync_us;
  double sync_ns = 0;
  double busy_ns = 0;
  for (const auto& r : rounds) {
    sync_us.push_back(static_cast<double>(r.sync_ns) / 1e3);
    sync_ns += static_cast<double>(r.sync_ns);
    busy_ns += static_cast<double>(r.compute_ns + r.send_ns + r.sync_ns);
  }
  for (const char* layer : {"net", "tcp"}) {
    const bool mine = (std::string(layer) == "tcp") == w.tcp;
    const std::string l = layer;
    rep.add(l + ".sync_us_p50", mine ? quantile(sync_us, 0.5) : 0, "us",
            mine ? spread(sync_us) : "layer not run");
    rep.add(l + ".sync_us_p99", mine ? quantile(sync_us, 0.99) : 0, "us");
    rep.add(l + ".wait_share", mine ? ratio(sync_ns, busy_ns) : 0, "ratio",
            "sync / (compute + send + sync) over every round");
  }
  rep.add("net.barrier_wait_us_p50",
          hist_quantile(snap, "net_barrier_wait_us", 0.5), "us");
  rep.add("tcp.barrier_wait_us_p50",
          hist_quantile(snap, "net_tcp_barrier_wait_us", 0.5), "us");

  const auto find = [&](const char* proto, const char* phase) {
    const auto it = phases.find({proto, phase});
    return it == phases.end() ? PhaseTiming{} : it->second;
  };
  PhaseTiming coin_gen;
  for (const auto& [key, ph] : phases) {
    if (key.first == "coin-gen") coin_gen += ph;
  }
  // Per player per batch: every player opens one coin-gen deal per batch.
  const double batches = static_cast<double>(find("coin-gen", "deal").spans);
  // Whole-run traffic, and the Coin-Gen share of it: all of it less the
  // exposures, each of which sends the same.
  double msgs = 0;
  double bytes = 0;
  double mint_msgs = 0;
  double mint_bytes = 0;
  for (std::size_t i = 0; i < tr.comm.size(); ++i) {
    const PlayerLog& p = tr.players[i];
    const double per_draw = ratio(static_cast<double>(p.run_draws),
                                  static_cast<double>(p.expose_draws));
    msgs += static_cast<double>(tr.comm[i].messages);
    bytes += static_cast<double>(tr.comm[i].bytes);
    mint_msgs += static_cast<double>(tr.comm[i].messages) -
                 per_draw * static_cast<double>(p.expose_comm.messages);
    mint_bytes += static_cast<double>(tr.comm[i].bytes) -
                  per_draw * static_cast<double>(p.expose_comm.bytes);
  }
  const double coins = static_cast<double>(p0.run_coins);
  rep.add("net.rounds_per_batch", ratio(static_cast<double>(coin_gen.rounds),
                                        batches),
          "count", "Lemma 8 predicts 10 at t=1");
  rep.add("net.rounds_per_draw",
          ratio(static_cast<double>(p0.draw_rounds),
                static_cast<double>(p0.draws)),
          "count");
  rep.add("net.msgs_per_coin", ratio(mint_msgs, coins), "count",
          "Coin-Gen traffic, all players, whole run");
  rep.add("net.bytes_per_coin", ratio(mint_bytes, coins), "B");

  const double frame_overhead = ratio(static_cast<double>(tr.tx_bytes), bytes);
  rep.add("tcp.frame_bytes_per_coin", frame_overhead * ratio(mint_bytes, coins),
          "B", "net.bytes_per_coin x tcp.frame_overhead");
  rep.add("tcp.frame_overhead", frame_overhead, "ratio",
          "frame bytes / logical bytes, whole run");
  rep.add("tcp.threads", static_cast<double>(p0.threads_max), "count",
          "process threads sampled mid-run");
  rep.add("tcp.start_ms", tr.start_ms, "ms");

  // coin: per player per Coin-Gen batch, from the span timings.
  const std::string per_batch = "per player per batch";
  rep.add("coin.compute_ms_per_batch",
          ratio(static_cast<double>(coin_gen.compute_ns) / 1e6, batches), "ms",
          per_batch + ", " + std::to_string(static_cast<long>(batches)) +
              " player-batches");
  for (const char* ph : {"deal", "graph", "clique", "gradecast", "leader",
                         "ba", "output"}) {
    rep.add(std::string("coin.gen.") + ph + ".compute_ms",
            ratio(static_cast<double>(find("coin-gen", ph).compute_ns) / 1e6,
                  batches),
            "ms");
  }
  for (const char* ph : {"deal", "challenge", "combine", "decode"}) {
    rep.add(std::string("coin.bitgen.") + ph + ".compute_ms",
            ratio(static_cast<double>(find("bitgen", ph).compute_ns) / 1e6,
                  batches),
            "ms");
  }
  const double coin_ops = batches * w.m;
  const double muls = ratio(static_cast<double>(coin_gen.ops.muls), coin_ops);
  const double adds = ratio(static_cast<double>(coin_gen.ops.adds), coin_ops);
  rep.add("coin.muls_per_coin", muls, "count", "per player, Coin-Gen only");
  rep.add("coin.adds_per_coin", adds, "count", "per player, Coin-Gen only");
  std::printf("# lemma 6: Bit-Gen costs M t k log k + 2 M k log k k-bit "
              "additions per player, (t+2) k log2 k = %d per coin at t=%d, "
              "k=64; measured %.4g adds + %.4g muls per coin\n",
              (kT + 2) * 64 * 6, kT, adds, muls);

  const auto expose_us = pooled(tr, &PlayerLog::expose_compute_us);
  rep.add("expose.compute_us_p50", quantile(expose_us, 0.5), "us",
          spread(expose_us));

  rep.add("dprbg.refill_ms_p50",
          hist_quantile(snap, "dprbg_refill_us", 0.5) / 1e3, "ms");
  rep.add("dprbg.refills_per_1k_draws",
          w.draw ? ratio(1e3 * static_cast<double>(p0.refills),
                         static_cast<double>(p0.draws))
                 : 0,
          "count");
  rep.add("dprbg.seed_coins_per_refill",
          ratio(static_cast<double>(p0.refill_seed_coins),
                static_cast<double>(p0.refills)),
          "count");

  double overlap = 0;
  for (const auto& p : tr.players) {
    double sum_ms = 0;
    for (const Sample& b : p.batch_ms) sum_ms += b.value;
    overlap += ratio(sum_ms, static_cast<double>(p.mint_ns) / 1e6);
  }
  rep.add("pipeline.overlap", overlap / static_cast<double>(tr.players.size()),
          "ratio", "sum of batch times / time in mint segments");
  const auto traced_batch_ms = pooled(tr, &PlayerLog::batch_ms);
  rep.add("pipeline.gen_ms_p50", quantile(gen_ms, 0.5), "ms",
          "Coin-Gen span time; " + spread(gen_ms));
  rep.add("pipeline.batch_ms_p50", quantile(traced_batch_ms, 0.5), "ms",
          "launch -> join; " + spread(traced_batch_ms));

  const KernelTimes k = replay_kernels(w.m, kN, kT, seed);
  rep.add("gf.mul_ns", k.mul_ns, "ns");
  rep.add("gf.add_ns", k.add_ns, "ns");
  rep.add("field_io.write_ns_per_elem", k.write_ns, "ns");
  rep.add("field_io.read_ns_per_elem", k.read_ns, "ns");
  rep.add("rng.ns_per_elem", k.rng_ns, "ns");
  rep.add("poly.combine_ns_per_elem", k.combine_ns, "ns");
  rep.add("poly.interp_ns_per_elem", k.interp_ns, "ns");
  rep.add("poly.bw_decode_us", k.bw_decode_us, "us");
  // Each kernel beside the work it does per coin per player: counted by
  // the field counters, telemetry or comm ledger where the library counts
  // it, otherwise derived from the protocol code (marked so).
  const double per_player_coin = kN * coins;
  const auto kernel_elems = [&](const char* op) {
    const dprbg::MetricSample* c =
        snap.find("field_kernel_elems_total", std::string("op=") + op);
    return ratio(c == nullptr ? 0 : static_cast<double>(c->value),
                 per_player_coin);
  };
  const double wire_elems = ratio(bytes / 8, per_player_coin);
  const double m = w.m;
  struct Row {
    const char* kernel;
    double ns;
    double units;
    const char* source;
  };
  const Row table[] = {
      {"gf.mul", k.mul_ns, muls, "field counters"},
      {"gf.add", k.add_ns, adds, "field counters"},
      {"field_io.write", k.write_ns, wire_elems, "comm bytes / 8"},
      {"field_io.read", k.read_ns, wire_elems, "comm bytes / 8"},
      {"rng", k.rng_ns, (kT + 1) * (m + 1) / m,
       "derived: t+1 coefficients x (M+1) dealt polynomials"},
      {"poly.combine", k.combine_ns, kernel_elems("combine_block"),
       "field_kernel_elems_total"},
      {"poly.interp", k.interp_ns, kernel_elems("interp_block"),
       "field_kernel_elems_total"},
      {"poly.bw_decode", k.bw_decode_us * 1e3, (kN + 2) / m,
       "derived: n combination decodes + challenge + leader per batch"},
  };
  std::printf("# kernel table at M=%u n=%d: ns per unit x units per coin "
              "per player = expected ns per coin\n", w.m, kN);
  for (const Row& r : table) {
    std::printf("#   %-15s %10.3f x %10.4f = %9.1f  (%s)\n", r.kernel, r.ns,
                r.units, r.ns * r.units, r.source);
  }

  rep.add("trace.overhead", ratio(tr.window_s, bare.window_s), "ratio",
          "untraced / traced ops per second, over the same ops");
  rep.add("error_rate",
          ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: coinbench --workload <mint_wide|draw_stream|tcp_mint> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace coinbench

int main(int argc, char** argv) {
  using namespace coinbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      argc % 2 != 1) {
    return usage();
  }
  // The deployed envelope format (tools/dprbg_node's default).
  dprbg::set_wire_version(dprbg::WireVersion::kV1);
  std::printf("# coinbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace);
  print_host();
  Report rep;
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
  try {
    if (trace == 0) {
      run_end_to_end(*w, seed, seconds, rep, attempted, failed);
    } else {
      run_layers(*w, seed, seconds, rep, attempted, failed);
    }
  } catch (const std::exception& e) {
    std::printf("# error: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  rep.print_json(attempted, failed);
  return rep.correct() ? 0 : 1;
}
