#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "coin/coin_expose.h"
#include "coin/coin_pipeline.h"
#include "common/check.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/tcp_cluster.h"

namespace coinbench {
namespace {

using F = dprbg::GF2_64;
using dprbg::SealedCoin;

// Why each workload looks the way it does is in README.md. A segment of
// 1.1 s holds two whole 500 ms slices (main.cpp) with room to spare.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"mint_wide", /*tcp=*/false, /*draw=*/false, /*m=*/4096, /*depth=*/1,
       /*chunk=*/4, /*segment_s=*/1.1, /*warmup=*/64, /*warmup_draws=*/1000,
       /*trace_cap=*/2000},
      {"draw_stream", false, true, 256, 1, 1, 0, 1000, 0, 4000},
      {"tcp_mint", true, false, 1024, 2, 32, 1.1, 128, 1000, 2000},
  };
  return all;
}

// Seed coins a mint player keeps in its pool: one pipelined call charges
// a challenge plus leader draws per batch, and the pool is topped up from
// minted coins only between calls.
std::size_t seed_reserve(const Workload& w) { return 3 * w.chunk + 8; }

std::size_t genesis_size(const Workload& w) {
  return w.draw ? 16 : seed_reserve(w);
}

constexpr std::uint64_t kNoCoin = 0xFFFF'FFFF'FFFF'FFFFull;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E37'79B9'7F4A'7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBull;
  return z ^ (z >> 31);
}

std::uint64_t public_digest(const dprbg::CoinGenResult<F>& r) {
  std::uint64_t h = mix(0, r.success);
  h = mix(h, r.iterations);
  h = mix(h, r.seed_coins_used);
  for (int j : r.clique) h = mix(h, static_cast<std::uint64_t>(j));
  h = mix(h, 0xC1);
  for (int j : r.summed_dealers) h = mix(h, static_cast<std::uint64_t>(j));
  return h;
}

std::uint64_t private_digest(const dprbg::CoinGenResult<F>& r) {
  std::uint64_t h = mix(public_digest(r), r.qualified);
  for (const F& s : r.coin_shares) h = mix(h, s.to_uint());
  return h;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) / 1e6;
}

// Admits the window's ops. Players ask in the same order, one index per
// ask; the first player to ask for index i decides it and every other
// player reads that verdict, which keeps the players' launch decisions
// identical (the contract of PipelineOptions::may_launch). A refusal ends
// the current segment; a segment whose first op is refused ends the window.
class Latch {
 public:
  Latch(const Shape& s, const Workload& w)
      : replay_(s.replay),
        window_(s.seconds),
        segment_(w.segment_s) {}

  bool admit(std::uint64_t i) {
    std::lock_guard g(mu_);
    if (i < verdicts_.size()) return verdicts_[i];
    DPRBG_CHECK(i == verdicts_.size());
    verdicts_.push_back(decide());
    if (verdicts_.back()) ++admitted_;
    return verdicts_.back();
  }
  [[nodiscard]] std::uint64_t admitted() const {
    std::lock_guard g(mu_);
    return admitted_;
  }
  [[nodiscard]] std::vector<bool> verdicts() const {
    std::lock_guard g(mu_);
    return verdicts_;
  }

 private:
  bool decide() {
    const std::size_t i = verdicts_.size();
    if (replay_ != nullptr) return i < replay_->size() && (*replay_)[i];
    const auto now = Clock::now();
    if (i == 0) start_ = now;
    if (closed_ || now - start_ >= window_) {
      closed_ = true;
      return false;
    }
    const bool first = i == 0 || !verdicts_.back();
    if (first) {
      segment_start_ = now;
    } else if (segment_.count() > 0 && now - segment_start_ >= segment_) {
      return false;
    }
    return true;
  }

  const std::vector<bool>* const replay_;
  const std::chrono::duration<double> window_;
  const std::chrono::duration<double> segment_;
  mutable std::mutex mu_;
  std::vector<bool> verdicts_;
  std::uint64_t admitted_ = 0;
  bool closed_ = false;
  Clock::time_point start_, segment_start_;
};

unsigned count_threads() {
  std::error_code ec;
  unsigned count = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return count;
}

template <typename Io>
std::uint64_t transport_ns(Io& io) {
  if constexpr (requires { io.transport_ns(); }) {
    return io.transport_ns();
  } else {
    return 0;
  }
}

// One draw: `expose` runs the protocol and returns the coin value.
// Returns the draw's wall time in microseconds and the traffic this player
// sent on the root stream meanwhile.
struct DrawCost {
  double us = 0;
  dprbg::CommCounters comm;
};

template <typename Io, typename Expose>
DrawCost draw_once(Io& io, PlayerLog& log, bool timed, Expose&& expose) {
  rest(io);
  const dprbg::CommCounters sent0 = io.sent();
  const std::uint64_t transport0 = transport_ns(io);
  const auto t0 = Clock::now();
  const std::optional<F> v = expose();
  const auto t1 = Clock::now();
  const DrawCost cost{static_cast<double>(ns_between(t0, t1)) / 1e3,
                      io.sent() - sent0};
  log.pub.push_back(v ? v->to_uint() : kNoCoin);
  log.priv.push_back(log.pub.back());
  ++log.run_draws;
  if (!v) {
    ++log.failed_draws;
    if (timed) ++log.window_failed;
  }
  if (timed) {
    ++log.draws;
    log.draw_rounds += cost.comm.rounds;
    log.draw_us.push_back({t1, cost.us});
    if (io.id() == 0) log.draw_segs.back().ends.push_back(t1);
    if constexpr (requires { io.transport_ns(); }) {
      log.expose_compute_us.push_back(
          cost.us - static_cast<double>(transport_ns(io) - transport0) / 1e3);
    }
  }
  return cost;
}

void count_exposure(PlayerLog& log, const DrawCost& cost) {
  log.expose_comm += cost.comm;
  ++log.expose_draws;
}

template <typename Io>
void mint_player(Io& io, const Workload& w, const Shape& s, Latch& latch,
                 const std::vector<SealedCoin<F>>& genesis, PlayerLog& log) {
  const unsigned t = static_cast<unsigned>(io.t());
  dprbg::CoinPool<F> pool;
  for (const auto& c : genesis) pool.add(c);
  const std::size_t reserve = seed_reserve(w);
  // Shares of minted coins waiting to be exposed: a ring, oldest first,
  // allocated once so that its memory does not depend on thread timing.
  // Coins minted while it is full are dropped: which coin is exposed does
  // not change the cost.
  std::vector<std::optional<F>> minted(std::size_t{1} << 16);
  std::size_t minted_head = 0;
  std::size_t minted_size = 0;
  std::uint32_t next_stream = 1;
  unsigned expose_instance = 0;
  std::uint64_t ask = 0;  // the latch index of the window's next op

  // One pipelined call of up to `count` batches; false once the latch
  // refused a batch (or, untimed, never).
  auto chunk = [&](unsigned count, bool timed) {
    std::vector<Clock::time_point> launched(count);
    dprbg::PipelineOptions opts;
    opts.depth = w.depth;
    opts.first_batch_id = next_stream;
    opts.may_launch = [&](unsigned b) {
      if (timed && !latch.admit(ask++)) return false;
      launched[b] = Clock::now();
      return true;
    };
    opts.on_batch_joined = [&](unsigned b) {
      if (!timed) return;
      const auto now = Clock::now();
      log.batch_ms.push_back({now, ms_between(launched[b], now)});
      if (io.id() == 0) log.coin_segs.back().ends.push_back(now);
    };
    rest(io);
    dprbg::PipelineResult<F> res =
        dprbg::pipelined_coin_gen<F>(io, w.m, pool, count, opts);
    next_stream += count;
    for (unsigned b = 0; b < res.launched; ++b) {
      const dprbg::CoinGenResult<F>& r = res.batches[b];
      log.pub.push_back(public_digest(r));
      log.priv.push_back(private_digest(r));
      if (timed) ++log.batches;
      if (!r.success) {
        ++log.failed_batches;
        if (timed) ++log.window_failed;
        continue;
      }
      log.run_coins += w.m;
      if (timed) log.coins += w.m;
      // The head of each batch tops the seed pool up (the paper's
      // bootstrap: minted coins seed the next Coin-Gen); the rest wait to
      // be exposed.
      for (unsigned h = 0; h < w.m; ++h) {
        const std::optional<F> share =
            r.qualified ? std::optional<F>(r.coin_shares[h]) : std::nullopt;
        if (pool.remaining() < reserve) {
          pool.add(SealedCoin<F>{share, t});
        } else if (minted_size < minted.size()) {
          minted[(minted_head + minted_size++) % minted.size()] = share;
        }
      }
    }
    if (timed && w.tcp && io.id() == 0) {
      log.threads_max = std::max(log.threads_max, count_threads());
    }
    return !res.cancelled;
  };
  // Exposes the oldest minted coin, as tools/dprbg_node exposes every
  // coin in mint order. An empty queue is a failed draw.
  auto expose = [&](bool timed) {
    const bool queued = minted_size != 0;
    const SealedCoin<F> c{queued ? minted[minted_head] : std::nullopt, t};
    if (queued) {
      minted_head = (minted_head + 1) % minted.size();
      --minted_size;
    }
    count_exposure(log, draw_once(io, log, timed, [&]() -> std::optional<F> {
      if (!queued) return std::nullopt;
      return dprbg::coin_expose<F>(io, c, expose_instance++ % 4096);
    }));
  };

  for (unsigned done = 0; done < w.warmup; done += w.chunk) {
    chunk(std::min(w.chunk, w.warmup - done), false);
  }
  for (unsigned i = 0; i < w.warmup_draws; ++i) expose(false);
  log.ready = Clock::now();
  if (s.setup_only) return;
  log.begin = Clock::now();
  // Mint and expose segments alternate until a segment's first op is
  // refused.
  for (bool mint = true;; mint = !mint) {
    const std::uint64_t first = ask;
    const auto t0 = Clock::now();
    if (mint) {
      if (io.id() == 0) log.coin_segs.push_back({t0, {}});
      while (chunk(w.chunk, true)) {
      }
      log.mint_ns += ns_between(t0, Clock::now());
    } else {
      if (io.id() == 0) log.draw_segs.push_back({t0, {}});
      while (latch.admit(ask++)) expose(true);
    }
    if (ask == first + 1) break;
  }
  log.end = Clock::now();
}

template <typename Io>
void draw_player(Io& io, const Workload& w, const Shape& s, Latch& latch,
                 const std::vector<SealedCoin<F>>& genesis, PlayerLog& log) {
  dprbg::DPrbg<F>::Options opts;
  opts.batch_size = w.m;
  opts.pipeline_depth = w.depth;
  dprbg::DPrbg<F> prbg(opts, genesis);

  auto one = [&](bool timed) {
    const std::uint64_t refills0 = prbg.refills();
    const std::uint64_t seed0 = prbg.seed_coins_spent_refilling();
    const std::size_t compute0 = log.expose_compute_us.size();
    const DrawCost cost =
        draw_once(io, log, timed, [&] { return prbg.next_coin(io); });
    const std::uint64_t refills = prbg.refills() - refills0;
    const std::uint64_t seed = prbg.seed_coins_spent_refilling() - seed0;
    // A refill pass that spent seed coins but minted nothing failed.
    if (seed != 0 && refills == 0) {
      ++log.failed_batches;
      if (timed) ++log.window_failed;
    }
    log.run_coins += refills * w.m;
    if (refills == 0) count_exposure(log, cost);
    if (!timed) return;
    log.refills += refills;
    log.refill_seed_coins += seed;
    log.batches += refills;
    log.coins += refills * w.m;
    if (refills != 0) {
      // A refill draw is a Coin-Gen batch plus one exposure; it is not an
      // exposure sample.
      const auto now = Clock::now();
      log.batch_ms.push_back({now, cost.us / 1e3});
      if (io.id() == 0) {
        for (std::uint64_t i = 0; i < refills; ++i) {
          log.coin_segs.back().ends.push_back(now);
        }
      }
      log.expose_compute_us.resize(compute0);
    }
  };

  for (unsigned i = 0; i < w.warmup; ++i) one(false);
  log.ready = Clock::now();
  if (s.setup_only) return;
  log.begin = Clock::now();
  if (io.id() == 0) {
    log.coin_segs.push_back({log.begin, {}});
    log.draw_segs.push_back({log.begin, {}});
  }
  for (std::uint64_t i = 0; latch.admit(i); ++i) one(true);
  log.end = Clock::now();
  log.mint_ns = ns_between(log.begin, log.end);  // refills ride on draws
}

// Runs one player, wrapped in TimedIo when the run is traced.
template <typename Io>
void play(Io& io, const Workload& w, const Shape& s, Latch& latch,
          const std::vector<SealedCoin<F>>& genesis, PlayerLog& log) {
  auto body = [&](auto& pio) {
    if (w.draw) {
      draw_player(pio, w, s, latch, genesis, log);
    } else {
      mint_player(pio, w, s, latch, genesis, log);
    }
  };
  if (s.traced) {
    TimedIo<Io> tio(io);
    body(tio);
    tio.collect(log.timed);
  } else {
    body(io);
  }
}

void finish(RunResult& out, Clock::time_point t0, const Latch& latch,
            const Shape& s) {
  Clock::time_point ready = t0;
  for (const auto& p : out.players) ready = std::max(ready, p.ready);
  out.setup_s = static_cast<double>(ns_between(t0, ready)) / 1e9;
  out.timed_ops = latch.admitted();
  out.verdicts = latch.verdicts();
  if (s.setup_only) return;
  Clock::time_point begin = out.players[0].begin;
  Clock::time_point end = out.players[0].end;
  for (const auto& p : out.players) {
    begin = std::min(begin, p.begin);
    end = std::max(end, p.end);
  }
  out.window_s = static_cast<double>(ns_between(begin, end)) / 1e9;
  out.begin = begin;
}

RunResult run_sim(const Workload& w, const Shape& s) {
  RunResult out;
  out.players.resize(kN);
  const auto t0 = Clock::now();
  const auto genesis = dprbg::trusted_dealer_coins<F>(
      kN, kT, static_cast<int>(genesis_size(w)), s.seed);
  dprbg::Cluster cluster(kN, kT, s.seed);
  Latch latch(s, w);
  cluster.run(std::vector<dprbg::Cluster::Program>(
      kN, [&](dprbg::PartyIo& io) {
        play(io, w, s, latch, genesis[static_cast<std::size_t>(io.id())],
             out.players[static_cast<std::size_t>(io.id())]);
      }));
  finish(out, t0, latch, s);
  out.comm = cluster.per_player_comm();
  out.stale = cluster.stale_rejections();
  out.foreign = cluster.foreign_rejections();
  out.decode = cluster.decode_rejections();
  return out;
}

RunResult run_tcp(const Workload& w, const Shape& s) {
  RunResult out;
  out.players.resize(kN);
  const auto t0 = Clock::now();
  const auto genesis = dprbg::trusted_dealer_coins<F>(
      kN, kT, static_cast<int>(genesis_size(w)), s.seed);
  dprbg::TcpLoopback loop(kN, kT, s.seed);
  const auto start0 = Clock::now();
  if (!loop.start()) throw std::runtime_error("TCP mesh did not come up");
  out.start_ms = ms_between(start0, Clock::now());
  Latch latch(s, w);
  std::vector<dprbg::TcpCluster::Program> programs;
  for (int i = 0; i < kN; ++i) {
    programs.push_back([&](dprbg::TcpPartyIo& io) {
      play(io, w, s, latch, genesis[static_cast<std::size_t>(io.id())],
           out.players[static_cast<std::size_t>(io.id())]);
    });
  }
  loop.run(std::move(programs));
  finish(out, t0, latch, s);
  for (int i = 0; i < kN; ++i) {
    dprbg::TcpCluster& node = loop.node(i);
    out.comm.push_back(node.comm());
    const dprbg::TcpStats st = node.stats();
    out.stale += st.stale_rejections;
    out.foreign += st.foreign_rejections;
    out.decode += st.decode_rejections;
    out.frame_errors += st.frame_decode_failures + st.lapsed_frames;
    for (const auto& p : st.peers) {
      out.tx_bytes += p.tx_bytes;
      out.lapsed_peers += p.lapsed ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunResult run_workload(const Workload& w, const Shape& s, bool force_sim) {
  return (w.tcp && !force_sim) ? run_tcp(w, s) : run_sim(w, s);
}

}  // namespace coinbench
