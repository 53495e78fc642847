// Edge cases across the stack: degenerate parameters, failed challenge
// exposure, tiny fields where soundness errors actually fire, the
// umbrella header, and the DPrbg pool refresh integration.

#include <gtest/gtest.h>

#include <functional>

// The umbrella header must compile standalone and bring in everything
// used below.
#include "dprbg_all.h"

namespace dprbg {
namespace {

using F = GF2_64;

TEST(EdgeCaseTest, SinglePlayerClusterTrivias) {
  // n = 1, t = 0: everything degenerates gracefully.
  Cluster cluster(1, 0, 1);
  int delivered = -1;
  cluster.run({[&](PartyIo& io) {
    io.send_all(make_tag(ProtoId::kApp, 0, 0), {42});
    const Inbox& in = io.sync();
    delivered = static_cast<int>(in.with_tag(make_tag(ProtoId::kApp, 0, 0))
                                     .size());
  }});
  EXPECT_EQ(delivered, 1);  // self-delivery
}

TEST(EdgeCaseTest, CoinGenWithZeroFaultTolerance) {
  // t = 0: Coin-Gen still runs (clique = everyone, 1 summed dealer).
  const int n = 7, t = 0;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 2);
  std::vector<std::optional<F>> values(n);
  Cluster cluster(n, t, 2);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const auto result = coin_gen<F>(io, 2, pool);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.clique.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(result.summed_dealers.size(), 1u);
    const auto sealed = result.sealed_coins(0);
    values[io.id()] = coin_expose<F>(io, sealed[0], 50);
  }));
  for (int i = 1; i < n; ++i) EXPECT_EQ(*values[i], *values[0]);
}

TEST(EdgeCaseTest, VssWithDeadChallengeCoinRejects) {
  // Nobody holds a share of the challenge coin: the exposure fails, and
  // every caller of the dealing round (vss/dealing_round.h) must reject
  // uniformly, without deadlocking, in its usual 2 rounds.
  const int n = 7, t = 2;
  const auto degree = static_cast<unsigned>(t);
  const SealedCoin<F> dead{std::nullopt, degree};
  Chacha dealer_rng(3, 777);
  const auto poly = Polynomial<F>::random(t, dealer_rng);
  const auto polys = CoeffMatrix<F>::random(degree, 4, dealer_rng);
  const auto old_coins = trusted_dealer_coins<F>(n, degree, 2, 3);
  struct Caller {
    const char* name;
    int players;
    std::function<bool(PartyIo&)> accepts;
  };
  const std::vector<Caller> callers{
      {"vss", n,
       [&](PartyIo& io) {
         std::optional<Polynomial<F>> mine;
         if (io.id() == 0) mine = poly;
         return vss_share_and_verify<F>(io, 0, degree, mine, dead).accepted;
       }},
      {"batch_vss", n,
       [&](PartyIo& io) {
         const auto mine = io.id() == 0 ? polys : CoeffMatrix<F>{};
         return batch_vss<F>(io, 0, degree, 4, mine, dead).accepted;
       }},
      {"bit_gen_single", n,
       [&](PartyIo& io) {
         const auto mine = io.id() == 0 ? polys : CoeffMatrix<F>{};
         return bit_gen_single<F>(io, 0, 4, degree, mine, dead).accepted();
       }},
      {"bit_gen_all", n,
       [&](PartyIo& io) {
         const auto out = bit_gen_all<F>(io, polys, 4, degree, dead);
         bool any = out.challenge.has_value();
         for (const auto& view : out.views) any = any || view.accepted();
         return any;
       }},
      {"cross_roster_reshare", 2 * n,
       [&](PartyIo& io) {
         std::vector<SealedCoin<F>> coins(2, SealedCoin<F>{std::nullopt,
                                                           degree});
         if (io.id() < n) coins = old_coins[io.id()];
         const auto out =
             cross_roster_reshare<F>(io, n, degree, coins, dead);
         return out.success || !out.accepted_dealers.empty();
       }},
  };
  for (const Caller& caller : callers) {
    std::vector<char> accepted(caller.players, true);
    std::vector<std::uint64_t> rounds(caller.players, 0);
    Cluster cluster(caller.players, t, 3);
    cluster.run(std::vector<Cluster::Program>(
        caller.players, [&](PartyIo& io) {
          accepted[io.id()] = caller.accepts(io);
          rounds[io.id()] = io.rounds();
        }));
    for (int i = 0; i < caller.players; ++i) {
      EXPECT_FALSE(accepted[i]) << caller.name << " player " << i;
      EXPECT_EQ(rounds[i], 2u) << caller.name << " player " << i;
    }
  }
}

TEST(EdgeCaseTest, BatchVssWithM0IsVacuous) {
  // Zero secrets: combination is all-zero and trivially degree <= t.
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 4);
  std::vector<char> accepted(n, false);
  Cluster cluster(n, t, 4);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const CoeffMatrix<F> none;
    accepted[io.id()] =
        batch_vss<F>(io, 0, t, 0, none, coins[io.id()][0]).accepted;
  }));
  for (int i = 0; i < n; ++i) EXPECT_TRUE(accepted[i]);
}

TEST(EdgeCaseTest, SmallFieldCoinGenEndToEnd) {
  // GF(2^8): unanimity error ~ M n / 256 is non-negligible, so pick a
  // seed where the run succeeds and assert the machinery handles the tiny
  // field (the soundness benchmark quantifies the failure rate).
  using F8 = GF2_8;
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F8>(n, t, 8, 5);
  std::vector<std::optional<F8>> values(n);
  bool success = false;
  Cluster cluster(n, t, 5);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F8> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const auto result = coin_gen<F8>(io, 2, pool);
    if (io.id() == 0) success = result.success;
    if (!result.success) return;
    const auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
    values[io.id()] = coin_expose<F8>(io, sealed[0], 50);
  }));
  ASSERT_TRUE(success);
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(values[i].has_value());
    EXPECT_EQ(*values[i], *values[0]);
  }
  // Eval points must stay distinct: n = 7 < 2^8.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      EXPECT_NE(eval_point<F8>(i), eval_point<F8>(j));
    }
  }
}

TEST(EdgeCaseTest, DprbgPoolRefreshIntegration) {
  // Draw, refresh the pool (sharings rotate, values stay), draw more:
  // the stream is identical to a run without the refresh.
  const int n = 7, t = 2;  // refresh needs only n >= 3t+1
  auto run = [&](bool with_refresh) {
    auto genesis = trusted_dealer_coins<F>(n, t, 12, 6);
    std::vector<F> stream;
    Cluster cluster(n, t, 6);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      DPrbg<F>::Options opts;
      opts.batch_size = 8;
      opts.reserve = 3;
      DPrbg<F> prbg(opts, genesis[io.id()]);
      std::vector<F> local;
      for (int d = 0; d < 3; ++d) local.push_back(*prbg.next_coin(io));
      if (with_refresh) {
        ASSERT_TRUE(prbg.refresh_pool(io));
        EXPECT_EQ(prbg.refreshes(), 1u);
      } else {
        // Burn the same challenge coin so the pools stay aligned between
        // the two runs being compared.
        (void)prbg.next_coin(io);
      }
      for (int d = 0; d < 3; ++d) local.push_back(*prbg.next_coin(io));
      if (io.id() == 0) stream = std::move(local);
    }));
    return stream;
  };
  const auto with = run(true);
  const auto without = run(false);
  ASSERT_EQ(with.size(), 6u);
  // First three draws identical; the post-refresh draws expose coins
  // whose SHARINGS were rotated but whose values match the unrefreshed
  // pool's coins shifted by one (the refresh consumed the challenge; the
  // control run consumed the same coin by drawing it).
  for (int d = 0; d < 3; ++d) EXPECT_EQ(with[d], without[d]);
  for (int d = 3; d < 6; ++d) EXPECT_EQ(with[d], without[d]);
}

TEST(EdgeCaseTest, GradeCastWithEmptyValue) {
  const int n = 7, t = 2;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 7);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    results[io.id()] = grade_cast(io, 2, {});
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(results[i].confidence, 2);
    EXPECT_TRUE(results[i].value.empty());
  }
}

TEST(EdgeCaseTest, ExposeWithExactlyThresholdHolders) {
  // Only degree+1 holders and zero slack: decoding succeeds with zero
  // errors tolerated.
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 8);
  // Strip shares from all but 3 players (t+1 = 3 needed for degree t=2).
  for (int i = 3; i < n; ++i) coins[i][0].share.reset();
  std::vector<std::optional<F>> values(n);
  Cluster cluster(n, t, 8);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    values[io.id()] = coin_expose<F>(io, coins[io.id()][0]);
  }));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(values[i].has_value()) << i;
    EXPECT_EQ(*values[i], *values[0]);
  }
}

}  // namespace
}  // namespace dprbg
