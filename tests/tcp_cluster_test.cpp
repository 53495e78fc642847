// Tests for the real-socket transport (net/tcp_cluster.h): the
// determinism contract — protocols over loopback TcpClusters produce
// BIT-FOR-BIT the same outputs and comm ledgers as over the simulated
// Cluster at the same (n, t, seed) — plus the transport-only behaviors
// the simulator has no analog for: reconnect with backoff, mid-run peer
// kill (lapse latching), handshake rejection of misconfigured or
// hostile dialers, a peer that stops reading (bounded memory: the stalled
// write severs the link), and the one-thread-per-link thread budget.

#include "net/tcp_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coin/coin_pipeline.h"
#include "common/trace.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/cluster.h"
#include "net/misbehavior.h"
#include "net/peer.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

constexpr std::uint32_t kTag = make_tag(ProtoId::kApp, 0, 0);

bool wait_until(const std::function<bool()>& pred, unsigned timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

std::string render_inbox(const Inbox& inbox) {
  std::ostringstream os;
  for (const Msg& m : inbox.all()) {
    os << m.from << "/" << m.tag << ":";
    for (std::uint8_t b : m.body) os << static_cast<int>(b) << ".";
    os << " ";
  }
  return os.str();
}

// One run's observable surface, per player: everything a protocol could
// act on plus the comm ledger. Filled identically by both backends.
struct EchoRun {
  std::vector<std::vector<std::string>> transcript;  // [player][round]
  std::vector<CommCounters> sent;                    // [player]
};

EchoRun empty_echo_run(int n, const std::vector<int>& rounds_per_player) {
  EchoRun run;
  const int max_rounds =
      *std::max_element(rounds_per_player.begin(), rounds_per_player.end());
  run.transcript.assign(static_cast<std::size_t>(n),
                        std::vector<std::string>(
                            static_cast<std::size_t>(max_rounds)));
  run.sent.assign(static_cast<std::size_t>(n), {});
  return run;
}

// The echo program parameterized over the backend handle: every player
// broadcasts a distinct byte per round and one extra unicast to player
// (id+1) % n, so inboxes exercise both send paths and the canonical
// sort. `rounds` may differ per player (the drop test). With `framed`
// >= 0, every other player reports a decode failure against it after
// each round.
template <typename Io>
void echo_program(Io& io, int rounds, EchoRun& run, int framed = -1) {
  for (int r = 0; r < rounds; ++r) {
    io.send_all(kTag, {static_cast<std::uint8_t>(io.id() * 16 + r)});
    io.send((io.id() + 1) % io.n(), kTag + 1,
            {static_cast<std::uint8_t>(0xE0 + r)});
    run.transcript[static_cast<std::size_t>(io.id())]
                  [static_cast<std::size_t>(r)] = render_inbox(io.sync());
    if (framed >= 0 && io.id() != framed) io.note_decode_failure(framed);
  }
  run.sent[static_cast<std::size_t>(io.id())] = io.sent();
}

EchoRun run_sim_echo(int n, int t, std::uint64_t seed,
                     const std::vector<int>& rounds_per_player) {
  EchoRun run = empty_echo_run(n, rounds_per_player);
  Cluster cluster(n, t, seed);
  std::vector<Cluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&run, &rounds_per_player](PartyIo& io) {
      echo_program(io, rounds_per_player[static_cast<std::size_t>(io.id())],
                   run);
    });
  }
  cluster.run(programs);
  return run;
}

EchoRun run_tcp_echo(TcpLoopback& loop, int n,
                     const std::vector<int>& rounds_per_player) {
  EchoRun run = empty_echo_run(n, rounds_per_player);
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&run, &rounds_per_player](TcpPartyIo& io) {
      echo_program(io, rounds_per_player[static_cast<std::size_t>(io.id())],
                   run);
    });
  }
  loop.run(std::move(programs));
  return run;
}

void expect_echo_runs_equal(const EchoRun& sim, const EchoRun& tcp, int n) {
  for (int p = 0; p < n; ++p) {
    ASSERT_EQ(sim.transcript[static_cast<std::size_t>(p)].size(),
              tcp.transcript[static_cast<std::size_t>(p)].size());
    for (std::size_t r = 0; r < sim.transcript[static_cast<std::size_t>(p)].size();
         ++r) {
      EXPECT_EQ(sim.transcript[static_cast<std::size_t>(p)][r],
                tcp.transcript[static_cast<std::size_t>(p)][r])
          << "player " << p << " round " << r;
    }
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].messages,
              tcp.sent[static_cast<std::size_t>(p)].messages)
        << "player " << p;
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].bytes,
              tcp.sent[static_cast<std::size_t>(p)].bytes)
        << "player " << p;
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].rounds,
              tcp.sent[static_cast<std::size_t>(p)].rounds)
        << "player " << p;
  }
}

TEST(TcpClusterTest, EchoMatchesSimulatedClusterBitForBit) {
  const int n = 4, t = 1, rounds = 5;
  const std::uint64_t seed = 97;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);

  // Zero transport-level anomalies in a clean run.
  for (int i = 0; i < n; ++i) {
    const TcpStats st = loop.node(i).stats();
    EXPECT_EQ(st.frame_decode_failures, 0u);
    EXPECT_EQ(st.lapsed_frames, 0u);
    EXPECT_EQ(st.stale_rejections, 0u);
    EXPECT_EQ(st.foreign_rejections, 0u);
    EXPECT_EQ(st.recv_pending, 0u);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      EXPECT_TRUE(st.peers[static_cast<std::size_t>(j)].bye)
          << "node " << i << " peer " << j;
      EXPECT_FALSE(st.peers[static_cast<std::size_t>(j)].lapsed);
      EXPECT_EQ(st.peers[static_cast<std::size_t>(j)].reconnects, 0u);
    }
  }
}

// The same equivalence at a second seed and round count, over the v1
// envelope format both backends charge.
TEST(TcpClusterTest, EchoMatchesUnderV1Wire) {
  const int n = 4, t = 1, rounds = 3;
  const std::uint64_t seed = 31;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);
}

TEST(TcpClusterTest, EarlyReturnMatchesSimulatedDrop) {
  // Player 2's program finishes after 2 rounds while everyone else runs
  // 5: over TCP that is a kBye, in the simulator a drop — the remaining
  // rounds must look identical on both backends.
  const int n = 4, t = 1;
  const std::uint64_t seed = 55;
  std::vector<int> rounds(static_cast<std::size_t>(n), 5);
  rounds[2] = 2;
  const EchoRun sim = run_sim_echo(n, t, seed, rounds);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  const EchoRun tcp = run_tcp_echo(loop, n, rounds);
  expect_echo_runs_equal(sim, tcp, n);

  // The others saw player 2 finish cleanly (Bye), not lapse.
  const TcpStats st = loop.node(0).stats();
  EXPECT_TRUE(st.peers[2].bye);
  EXPECT_FALSE(st.peers[2].lapsed);
}

// The ledger half of the equivalence: one player is banned before the
// run and every receiver reports decode failures against another, so
// both transports exercise ban suppression and decode reports through
// the shared admit path. Inboxes, the verdict counts (the simulator's
// totals against the sum over the TCP nodes) and the
// `net/decode_reject` trace stamps must all agree.
TEST(TcpClusterTest, MisbehaviorLedgerMatchesSimulatedCluster) {
  const int n = 4, t = 1, rounds = 4;
  // Every receiver but `framed` reports it once per round; over `rounds`
  // rounds that stays below ban_enter even on the simulator's single
  // shared manager, so no ban lands mid-run on either transport.
  const int banned = 3, framed = 1;
  const std::uint64_t seed = 23;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const auto make_manager = [&] {
    MisbehaviorPolicy policy;
    policy.permanent_ban = true;
    auto mgr = std::make_shared<MisbehaviorManager>(n, policy);
    mgr->report(banned, MisbehaviorSignal::kForeignTraffic,
                policy.ban_enter / policy.foreign_weight);
    EXPECT_TRUE(mgr->banned(banned));
    return mgr;
  };
  const auto decode_stamps = [] {
    std::vector<std::string> out;
    for (const TraceEvent& ev : tracer().events()) {
      if (ev.protocol != "net" || ev.phase != "decode_reject") continue;
      out.push_back(std::to_string(ev.player) + "/" +
                    std::to_string(ev.round_begin) + "/" +
                    std::to_string(ev.batch) + "/" + ev.detail);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  tracer().clear();
  tracer().set_enabled(true);

  EchoRun sim = empty_echo_run(n, uniform);
  Cluster cluster(n, t, seed);
  cluster.set_misbehavior_manager(make_manager());
  cluster.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { echo_program(io, rounds, sim, framed); }));
  const std::vector<std::string> sim_stamps = decode_stamps();
  tracer().clear();

  EchoRun tcp = empty_echo_run(n, uniform);
  TcpLoopback loop(n, t, seed);
  for (int i = 0; i < n; ++i) {
    loop.node(i).set_misbehavior_manager(make_manager());
  }
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back(
        [&](TcpPartyIo& io) { echo_program(io, rounds, tcp, framed); });
  }
  loop.run(std::move(programs));
  const std::vector<std::string> tcp_stamps = decode_stamps();
  tracer().set_enabled(false);
  tracer().clear();

  expect_echo_runs_equal(sim, tcp, n);
  std::uint64_t tcp_banned = 0, tcp_decode = 0;
  for (int i = 0; i < n; ++i) {
    const TcpStats st = loop.node(i).stats();
    tcp_banned += st.banned_suppressions;
    tcp_decode += st.decode_rejections;
  }
  // Player 3 sends 4 non-self envelopes a round, all suppressed; three
  // receivers report `framed` once a round.
  EXPECT_EQ(cluster.banned_suppressions(), 4u * rounds);
  EXPECT_EQ(cluster.decode_rejections(), 3u * rounds);
  EXPECT_EQ(cluster.banned_suppressions(), tcp_banned);
  EXPECT_EQ(cluster.decode_rejections(), tcp_decode);
  EXPECT_EQ(sim_stamps.size(), 3u * rounds);
  EXPECT_EQ(sim_stamps, tcp_stamps);
}

TEST(TcpClusterTest, VssMatchesSimulatedCluster) {
  const int n = 7, t = 2;
  const std::uint64_t seed = 11;
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  Chacha dealer_rng(seed, 777);
  const auto poly = Polynomial<F>::random(/*degree=*/2, dealer_rng);

  auto program = [&](auto& io, std::vector<std::optional<VssOutcome<F>>>& out,
                     std::vector<CommCounters>& sent) {
    std::optional<Polynomial<F>> mine;
    if (io.id() == 0) mine = poly;
    out[static_cast<std::size_t>(io.id())] = vss_share_and_verify<F>(
        io, /*dealer=*/0, t, mine, coins[static_cast<std::size_t>(io.id())][0]);
    sent[static_cast<std::size_t>(io.id())] = io.sent();
  };

  std::vector<std::optional<VssOutcome<F>>> sim_out(n), tcp_out(n);
  std::vector<CommCounters> sim_sent(n), tcp_sent(n);

  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out, sim_sent); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back(
        [&](TcpPartyIo& io) { program(io, tcp_out, tcp_sent); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(sim_out[static_cast<std::size_t>(i)].has_value());
    ASSERT_TRUE(tcp_out[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->accepted,
              tcp_out[static_cast<std::size_t>(i)]->accepted)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->share,
              tcp_out[static_cast<std::size_t>(i)]->share)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->challenge,
              tcp_out[static_cast<std::size_t>(i)]->challenge)
        << "player " << i;
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].bytes,
              tcp_sent[static_cast<std::size_t>(i)].bytes)
        << "player " << i;
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].messages,
              tcp_sent[static_cast<std::size_t>(i)].messages);
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].rounds,
              tcp_sent[static_cast<std::size_t>(i)].rounds);
    EXPECT_TRUE(tcp_out[static_cast<std::size_t>(i)]->accepted);
  }
}

TEST(TcpClusterTest, GradeCastMatchesSimulatedCluster) {
  const int n = 7, t = 2;
  const std::uint64_t seed = 12;
  const std::vector<std::uint8_t> value = {0xAA, 0xBB};

  auto program = [&](auto& io, std::vector<GradeCastResult>& out) {
    out[static_cast<std::size_t>(io.id())] =
        grade_cast(io, /*sender=*/3, value);
  };

  std::vector<GradeCastResult> sim_out(n), tcp_out(n);
  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&](TcpPartyIo& io) { program(io, tcp_out); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)].confidence,
              tcp_out[static_cast<std::size_t>(i)].confidence)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)].value,
              tcp_out[static_cast<std::size_t>(i)].value)
        << "player " << i;
    EXPECT_EQ(tcp_out[static_cast<std::size_t>(i)].confidence, 2);
  }
}

TEST(TcpClusterTest, PipelinedCoinGenMatchesSimulatedCluster) {
  // The full tentpole workload: depth-2 pipelined Coin-Gen, which drives
  // several concurrent per-batch streams (instance() handles + worker
  // threads) through the TCP demux at once.
  const int n = 7, t = 1;
  const std::uint64_t seed = 4242;
  const unsigned m = 3, batches = 2;
  auto genesis = trusted_dealer_coins<F>(n, t, 4 * batches + 8, seed);

  auto program = [&](auto& io, std::vector<PipelineResult<F>>& out) {
    CoinPool<F> pool;
    for (const auto& c : genesis[static_cast<std::size_t>(io.id())]) {
      pool.add(c);
    }
    PipelineOptions opts;
    opts.depth = 2;
    out[static_cast<std::size_t>(io.id())] =
        pipelined_coin_gen<F>(io, m, pool, batches, opts);
  };

  std::vector<PipelineResult<F>> sim_out(n), tcp_out(n);
  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&](TcpPartyIo& io) { program(io, tcp_out); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    const auto& s = sim_out[static_cast<std::size_t>(i)];
    const auto& c = tcp_out[static_cast<std::size_t>(i)];
    ASSERT_EQ(s.batches.size(), c.batches.size()) << "player " << i;
    for (std::size_t b = 0; b < s.batches.size(); ++b) {
      const CoinGenResult<F>& sb = s.batches[b];
      const CoinGenResult<F>& cb = c.batches[b];
      EXPECT_EQ(sb.success, cb.success) << "player " << i << " batch " << b;
      EXPECT_EQ(sb.clique, cb.clique) << "player " << i << " batch " << b;
      EXPECT_EQ(sb.summed_dealers, cb.summed_dealers);
      EXPECT_EQ(sb.qualified, cb.qualified);
      EXPECT_EQ(sb.coin_shares, cb.coin_shares)
          << "player " << i << " batch " << b;
      EXPECT_EQ(sb.seed_coins_used, cb.seed_coins_used);
      EXPECT_EQ(sb.iterations, cb.iterations);
      EXPECT_TRUE(cb.success) << "player " << i << " batch " << b;
    }
  }
}

TEST(TcpClusterTest, SeverBeforeRunReconnectsTransparently) {
  const int n = 4, t = 1, rounds = 3;
  const std::uint64_t seed = 77;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());

  // Cut the (0, 1) link before the run starts (node 1 is the dialer).
  // No run is active, so nothing lapses — the dialer just reconnects.
  loop.node(1).sever_peer(0);
  ASSERT_TRUE(wait_until([&] {
    const TcpStats a = loop.node(1).stats();
    const TcpStats b = loop.node(0).stats();
    return a.peers[0].reconnects >= 1 && a.peers[0].up && b.peers[1].up;
  })) << "reconnect did not complete";

  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);
  EXPECT_GE(loop.node(1).stats().peers[0].reconnects, 1u);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      EXPECT_FALSE(loop.node(i).stats().peers[j].lapsed);
    }
  }
}

TEST(TcpClusterTest, PeerKillDuringRunLapsesAndOthersComplete) {
  // Node 0 cuts its link to node 3 mid-run: both ends latch the other as
  // lapsed for the rest of the run, barriers stop waiting across that
  // link, and every program still runs to completion — no hang, no
  // crash, even though the dialer reconnects the transport underneath.
  const int n = 4, t = 1, rounds = 6;
  TcpLoopback loop(n, t, /*seed=*/13);
  ASSERT_TRUE(loop.start());

  std::vector<int> completed(static_cast<std::size_t>(n), 0);
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&, i](TcpPartyIo& io) {
      for (int r = 0; r < rounds; ++r) {
        if (i == 0 && r == 2) loop.node(0).sever_peer(3);
        io.send_all(kTag, {static_cast<std::uint8_t>(r)});
        io.sync();
      }
      completed[static_cast<std::size_t>(i)] = 1;
    });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(completed[static_cast<std::size_t>(i)], 1) << "player " << i;
  }
  EXPECT_TRUE(loop.node(0).stats().peers[3].lapsed);
  EXPECT_TRUE(loop.node(3).stats().peers[0].lapsed);
  // The untouched links never lapsed.
  EXPECT_FALSE(loop.node(1).stats().peers[2].lapsed);
  EXPECT_FALSE(loop.node(2).stats().peers[1].lapsed);
}

// ---------------------------------------------------------------------
// Handshake rejection: raw-socket probes against a live node's listener.
// ---------------------------------------------------------------------

HelloFrame valid_hello_for(const TcpLoopback& loop, int n, int t) {
  HelloFrame h;
  h.proto_version = kTcpProtoVersion;
  h.wire_version = static_cast<std::uint8_t>(wire_version());
  h.roster_hash = roster_hash(n, t, loop.roster());
  h.node_id = 1;
  h.n = static_cast<std::uint32_t>(n);
  return h;
}

// Connects to `port` and writes `bytes`; the listener either rejects
// (closes) or acks. Returns true if the probe socket opened and wrote.
bool probe_bytes(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  const int fd = tcp_connect_socket("127.0.0.1", port, 2000);
  if (fd < 0) return false;
  const bool ok = tcp_write_all(fd, bytes);
  ::close(fd);
  return ok;
}

// Sends one well-formed frame around `payload`.
bool probe(std::uint16_t port, FrameType type,
           const std::vector<std::uint8_t>& payload) {
  return probe_bytes(port, frame_bytes(type, payload));
}

TEST(TcpClusterTest, ListenerRejectsBadHandshakesByReason) {
  const int n = 2, t = 0;
  TcpLoopback loop(n, t, /*seed=*/3);
  ASSERT_TRUE(loop.start());
  const std::uint16_t port = loop.node(0).listen_port();
  const HelloFrame good = valid_hello_for(loop, n, t);

  // Wrong framing-protocol version.
  HelloFrame h = good;
  h.proto_version = kTcpProtoVersion + 1;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Wrong envelope wire version: a peer built with another envelope
  // format is refused before it sends a round frame.
  h = good;
  h.wire_version ^= 1;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Wrong roster hash (a fleet configured with a different player list).
  h = good;
  h.roster_hash ^= 0x1234;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Bad ids: claiming the listener's own id (wrong dial direction),
  // an out-of-range id, and a mismatched n.
  h = good;
  h.node_id = 0;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));
  h = good;
  h.node_id = 9;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));
  h = good;
  h.n = 99;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Malformed: garbage payload, and a non-Hello first frame.
  ASSERT_TRUE(probe(port, FrameType::kHello, {0x01, 0x02, 0x03}));
  ASSERT_TRUE(probe(port, FrameType::kRound, encode_hello(good)));
  // Malformed: a length prefix past kTcpMaxFrameBytes, rejected from the
  // prefix alone (no payload follows it).
  {
    const std::uint32_t len = kTcpMaxFrameBytes + 2;
    ASSERT_TRUE(probe_bytes(
        port, {static_cast<std::uint8_t>(len & 0xFF),
               static_cast<std::uint8_t>((len >> 8) & 0xFF),
               static_cast<std::uint8_t>((len >> 16) & 0xFF),
               static_cast<std::uint8_t>((len >> 24) & 0xFF),
               static_cast<std::uint8_t>(FrameType::kHello)}));
  }

  ASSERT_TRUE(wait_until([&] {
    const TcpStats st = loop.node(0).stats();
    return st.accept_rejects[static_cast<int>(
               HandshakeReject::kProtoVersion)] >= 1 &&
           st.accept_rejects[static_cast<int>(
               HandshakeReject::kWireVersion)] >= 1 &&
           st.accept_rejects[static_cast<int>(
               HandshakeReject::kRosterHash)] >= 1 &&
           st.accept_rejects[static_cast<int>(HandshakeReject::kBadId)] >= 3 &&
           st.accept_rejects[static_cast<int>(HandshakeReject::kMalformed)] >=
               3;
  })) << "handshake rejects not all counted";

  // None of this disturbed the real mesh: the run still works.
  std::vector<int> done(static_cast<std::size_t>(n), 0);
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&done](TcpPartyIo& io) {
      io.send_all(kTag, {0x42});
      const Inbox& inbox = io.sync();
      EXPECT_EQ(inbox.all().size(), 2u);
      done[static_cast<std::size_t>(io.id())] = 1;
    });
  }
  loop.run(std::move(programs));
  EXPECT_EQ(done[0], 1);
  EXPECT_EQ(done[1], 1);
}

TEST(TcpClusterTest, StartFailsClosedAgainstMismatchedRoster) {
  // Two nodes configured with different rosters (same ports, different
  // claimed t): every handshake fails the hash check on both ends and
  // start() times out instead of building a half-trusted mesh.
  std::string err;
  const int fd0 = tcp_listen_socket("127.0.0.1", 0, &err);
  const int fd1 = tcp_listen_socket("127.0.0.1", 0, &err);
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);
  const std::vector<TcpNodeAddr> roster = {
      {"127.0.0.1", tcp_local_port(fd0)},
      {"127.0.0.1", tcp_local_port(fd1)},
  };
  TcpClusterOptions opts;
  opts.start_timeout_ms = 600;
  TcpClusterOptions opts0 = opts;
  opts0.listen_fd = fd0;
  TcpClusterOptions opts1 = opts;
  opts1.listen_fd = fd1;

  // Same roster bytes, but node 1 believes t=1 while node 0 says t=0:
  // the (n, t, roster) hash differs.
  TcpCluster a(0, 2, /*t=*/0, /*seed=*/1, roster, opts0);
  TcpCluster b(1, 2, /*t=*/1, /*seed=*/1, roster, opts1);
  bool a_ok = false, b_ok = false;
  std::thread ta([&] { a_ok = a.start(); });
  std::thread tb([&] { b_ok = b.start(); });
  ta.join();
  tb.join();
  EXPECT_FALSE(a_ok);
  EXPECT_FALSE(b_ok);
  // The listener side counted the reason; the dialer side counted its
  // rejected attempts.
  EXPECT_GE(a.stats().accept_rejects[static_cast<int>(
                HandshakeReject::kRosterHash)],
            1u);
  EXPECT_GE(b.stats().peers[0].handshake_rejects, 1u);
}

// ---------------------------------------------------------------------
// Resource bounds: a peer that stops reading, and the thread budget.
// ---------------------------------------------------------------------

// A handshaken peer that never reads: node 0's round writes fill the
// socket buffers and stall; after kTcpWriteStallMs the link is severed
// and the peer lapses like a crash, so node 0 holds only the frame in
// hand instead of queueing every round for a reader that never comes.
TEST(TcpClusterTest, NonReadingPeerLapsesInsteadOfQueueing) {
  constexpr int kRounds = 16;
  constexpr std::size_t kPayload = 1u << 20;  // 16 MiB over the run
  std::string err;
  const int fd0 = tcp_listen_socket("127.0.0.1", 0, &err);
  ASSERT_GE(fd0, 0) << err;
  // Node 1 dials node 0 and is never dialed, so its port is never used.
  const std::vector<TcpNodeAddr> roster = {
      {"127.0.0.1", tcp_local_port(fd0)}, {"127.0.0.1", 1}};
  TcpClusterOptions opts;
  opts.listen_fd = fd0;
  TcpCluster node(0, 2, /*t=*/0, /*seed=*/9, roster, opts);
  bool started = false;
  std::thread starter([&] { started = node.start(); });

  // The raw peer: a small receive buffer, set before connect() so the
  // advertised window stays small.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  const int rcvbuf = 4096;
  ::setsockopt(raw, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(roster[0].port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  HelloFrame hello;
  hello.wire_version = static_cast<std::uint8_t>(wire_version());
  hello.roster_hash = roster_hash(2, 0, roster);
  hello.node_id = 1;
  hello.n = 2;
  ASSERT_TRUE(
      tcp_write_all(raw, frame_bytes(FrameType::kHello, encode_hello(hello))));
  const std::atomic<bool> never{false};
  FrameType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(tcp_read_frame(raw, never, 50, kTcpMaxFrameBytes, &type,
                           &payload, 2000),
            TcpReadStatus::kOk);
  ASSERT_EQ(type, FrameType::kHelloAck);
  // Empty barrier bundles for every round, then silence: never read.
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(tcp_write_all(
        raw, frame_bytes(FrameType::kRound,
                         encode_round_frame(0, static_cast<std::uint64_t>(r),
                                            {}))));
  }
  starter.join();
  ASSERT_TRUE(started);

  node.run([&](TcpPartyIo& io) {
    for (int r = 0; r < kRounds; ++r) {
      io.send(1, kTag, std::vector<std::uint8_t>(kPayload,
                                                 static_cast<std::uint8_t>(r)));
      io.sync();
    }
  });
  const TcpStats st = node.stats();
  EXPECT_TRUE(st.peers[1].lapsed);
  EXPECT_FALSE(st.peers[1].bye);
  EXPECT_GE(st.peers[1].dropped_frames, 1u);
  ::close(raw);
}

unsigned count_threads() {
  unsigned count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

// Each node runs one thread per peer link plus its accept thread:
// (n-1) + 1 = n threads, so n nodes add at most n*n.
TEST(TcpClusterTest, OneThreadPerPeerLink) {
  const int n = 7;
  const unsigned before = count_threads();
  TcpLoopback loop(n, /*t=*/1, /*seed=*/21);
  ASSERT_TRUE(loop.start());
  EXPECT_LE(count_threads() - before, static_cast<unsigned>(n * n));
}

}  // namespace
}  // namespace dprbg
