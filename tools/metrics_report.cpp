// metrics_report: render a telemetry snapshot (JSONL, common/telemetry.h
// schema) as operator-facing tables, diff two snapshots, and surface the
// per-peer communication "top talkers".
//
// Usage:
//   metrics_report report <snap.jsonl>
//       Two tables: scalar instruments (counters/gauges) and histograms
//       (count, sum, p50/p90/p99/p999).
//   metrics_report diff <old.jsonl> <new.jsonl>
//       Per-instrument deltas (new - old), matched by (name, labels).
//       Purely informational — metrics are rates, not budgets — so the
//       exit code only reflects parse failures.
//   metrics_report top-talkers <snap.jsonl>
//       Per-player communication ranked by bytes, from the
//       net_player_{messages,bytes}_total view of the lockstep core's
//       per-player comm ledger (one row per player of the cluster; a TCP
//       node's snapshot charges only its own player).
//   metrics_report prom <snap.jsonl>
//       Re-emit the snapshot in Prometheus text exposition format.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/telemetry.h"

namespace dprbg {
namespace {

using bench::fmt;

MetricsSnapshot load(const char* path, bool* ok) {
  std::ifstream is(path);
  *ok = static_cast<bool>(is);
  if (!*ok) {
    std::fprintf(stderr, "metrics_report: cannot open %s\n", path);
    return {};
  }
  std::size_t malformed = 0;
  auto snap = read_snapshot(is, &malformed);
  if (malformed != 0) {
    std::fprintf(stderr, "metrics_report: %zu malformed line(s) in %s\n",
                 malformed, path);
  }
  return snap;
}

void print_report(const MetricsSnapshot& snap) {
  bench::Table scalars({"name", "labels", "type", "value"});
  bench::Table hists(
      {"name", "labels", "count", "sum", "p50", "p90", "p99", "p999"});
  std::size_t nscalar = 0;
  std::size_t nhist = 0;
  for (const auto& s : snap.samples) {
    if (s.type == MetricType::kHistogram) {
      hists.row({s.name, s.labels, fmt(s.count), fmt(s.sum), fmt(s.p50),
                 fmt(s.p90), fmt(s.p99), fmt(s.p999)});
      ++nhist;
    } else {
      scalars.row({s.name, s.labels, to_string(s.type),
                   std::to_string(s.value)});
      ++nscalar;
    }
  }
  if (nscalar != 0) scalars.print();
  if (nhist != 0) {
    if (nscalar != 0) std::printf("\n");
    hists.print();
  }
  std::printf("\n%zu instrument(s): %zu scalar, %zu histogram\n",
              snap.samples.size(), nscalar, nhist);
}

// Signed delta as a printable cell ("+12", "-3", "0").
std::string sdelta(std::int64_t from, std::int64_t to) {
  const std::int64_t d = to - from;
  return d > 0 ? "+" + std::to_string(d) : std::to_string(d);
}

int print_diff(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  bench::Table table(
      {"name", "labels", "type", "d.value", "d.count", "d.sum"});
  for (const auto& sa : a.samples) {
    const MetricSample* sb = b.find(sa.name, sa.labels);
    if (sb == nullptr) {
      table.row({sa.name, sa.labels, to_string(sa.type), "(removed)"});
      continue;
    }
    if (sa.type == MetricType::kHistogram) {
      table.row({sa.name, sa.labels, "histogram", "",
                 sdelta(static_cast<std::int64_t>(sa.count),
                        static_cast<std::int64_t>(sb->count)),
                 sdelta(static_cast<std::int64_t>(sa.sum),
                        static_cast<std::int64_t>(sb->sum))});
    } else {
      table.row({sa.name, sa.labels, to_string(sa.type),
                 sdelta(sa.value, sb->value)});
    }
  }
  for (const auto& sb : b.samples) {
    if (a.find(sb.name, sb.labels) == nullptr) {
      table.row({sb.name, sb.labels, to_string(sb.type), "(new)"});
    }
  }
  table.print();
  return 0;
}

// The per-peer comm counters, ranked by bytes — who is loading the wire.
int print_top_talkers(const MetricsSnapshot& snap) {
  struct Talker {
    std::string player;
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
  };
  std::vector<Talker> talkers;
  auto slot = [&talkers](const std::string& labels) -> Talker& {
    for (auto& t : talkers) {
      if (t.player == labels) return t;
    }
    talkers.push_back(Talker{labels, 0, 0});
    return talkers.back();
  };
  for (const auto& s : snap.samples) {
    if (s.name == "net_player_messages_total") {
      slot(s.labels).messages = s.value;
    } else if (s.name == "net_player_bytes_total") {
      slot(s.labels).bytes = s.value;
    }
  }
  if (talkers.empty()) {
    std::printf(
        "no net_player_* counters in snapshot (no cluster was alive "
        "when it was taken)\n");
    return 0;
  }
  std::stable_sort(talkers.begin(), talkers.end(),
                   [](const Talker& x, const Talker& y) {
                     return x.bytes > y.bytes;
                   });
  std::int64_t total_bytes = 0;
  for (const auto& t : talkers) total_bytes += t.bytes;
  bench::Table table({"player", "msgs", "bytes", "share"});
  for (const auto& t : talkers) {
    const double share =
        total_bytes == 0
            ? 0.0
            : 100.0 * static_cast<double>(t.bytes) /
                  static_cast<double>(total_bytes);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%", share);
    table.row({t.player, std::to_string(t.messages), std::to_string(t.bytes),
               pct});
  }
  table.print();
  std::printf("\n%zu player(s), %lld bytes total\n", talkers.size(),
              static_cast<long long>(total_bytes));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  metrics_report report <snap.jsonl>\n"
               "  metrics_report diff <old.jsonl> <new.jsonl>\n"
               "  metrics_report top-talkers <snap.jsonl>\n"
               "  metrics_report prom <snap.jsonl>\n");
  return 2;
}

}  // namespace
}  // namespace dprbg

int main(int argc, char** argv) {
  using namespace dprbg;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if ((cmd == "report" || cmd == "top-talkers" || cmd == "prom") &&
      argc == 3) {
    bool ok = false;
    const auto snap = load(argv[2], &ok);
    if (!ok) return 1;
    if (cmd == "report") {
      print_report(snap);
      return 0;
    }
    if (cmd == "top-talkers") return print_top_talkers(snap);
    snap.write_prometheus(std::cout);
    return 0;
  }
  if (cmd == "diff" && argc == 4) {
    bool ok_a = false;
    bool ok_b = false;
    const auto a = load(argv[2], &ok_a);
    const auto b = load(argv[3], &ok_b);
    if (!ok_a || !ok_b) return 1;
    return print_diff(a, b);
  }
  return usage();
}
