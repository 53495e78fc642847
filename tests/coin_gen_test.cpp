// Integration tests for Coin-Gen (Fig. 5) + Coin-Expose (Fig. 6):
// Lemma 7 (agreed clique of size >= 4t+1 with an honest reconstruction
// core), Theorem 1 (the generated coins expose unanimously), fault
// tolerance, and statistical coin quality.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/endpoint.h"
#include "vss/batch_vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct GenRun {
  std::vector<CoinGenResult<F>> results;           // per player
  std::vector<std::vector<std::optional<F>>> coins;  // [player][coin]
};

// Runs Coin-Gen for m coins, then exposes all of them.
GenRun run_coin_gen(int n, int t, std::uint64_t seed, unsigned m,
                    const std::vector<int>& faulty = {},
                    const Cluster::Program& adversary = nullptr,
                    int seed_coins = 8) {
  auto genesis = trusted_dealer_coins<F>(n, t, seed_coins, seed);
  GenRun run;
  run.results.resize(n);
  run.coins.assign(n, {});
  Cluster cluster(n, t, seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        auto result = coin_gen<F>(io, m, pool);
        run.results[io.id()] = result;
        if (!result.success) return;
        const auto sealed =
            result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], /*instance=*/100 + h));
        }
      },
      faulty, adversary);
  return run;
}

void expect_unanimous_coins(const GenRun& run, int n, unsigned m,
                            const std::set<int>& faulty) {
  int reference = -1;
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i)) continue;
    ASSERT_TRUE(run.results[i].success) << "player " << i;
    ASSERT_EQ(run.coins[i].size(), m) << "player " << i;
    if (reference < 0) reference = i;
    EXPECT_EQ(run.results[i].clique, run.results[reference].clique);
    EXPECT_EQ(run.results[i].summed_dealers,
              run.results[reference].summed_dealers);
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(run.coins[i][h].has_value())
          << "player " << i << " coin " << h;
      EXPECT_EQ(*run.coins[i][h], *run.coins[reference][h])
          << "player " << i << " coin " << h;
    }
  }
}

TEST(CoinGenTest, AllHonestSmallSystem) {
  const int n = 7, t = 1;
  const unsigned m = 4;
  const auto run = run_coin_gen(n, t, 1, m);
  expect_unanimous_coins(run, n, m, {});
  // Lemma 7: clique size >= n - 2t; all players qualified when honest.
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(run.results[i].clique.size(),
              static_cast<std::size_t>(n - 2 * t));
    EXPECT_TRUE(run.results[i].qualified);
    EXPECT_EQ(run.results[i].summed_dealers.size(),
              static_cast<std::size_t>(3 * t + 1));
  }
}

TEST(CoinGenTest, ExpectedConstantIterationsAllHonest) {
  // With no faults the first leader is always honest: 1 iteration.
  const auto run = run_coin_gen(7, 1, 2, 2);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(run.results[i].iterations, 1u);
    EXPECT_EQ(run.results[i].seed_coins_used, 2u);  // challenge + leader
  }
}

TEST(CoinGenTest, CrashFaultsTolerated) {
  const int n = 13, t = 2;
  const unsigned m = 3;
  const auto run = run_coin_gen(n, t, 3, m, {0, 7}, nullptr);
  expect_unanimous_coins(run, n, m, {0, 7});
}

TEST(CoinGenTest, CrashedDealersExcludedFromClique) {
  const int n = 13, t = 2;
  const auto run = run_coin_gen(n, t, 4, 2, {0, 7}, nullptr);
  for (int i = 0; i < n; ++i) {
    if (i == 0 || i == 7) continue;
    for (int member : run.results[i].clique) {
      EXPECT_NE(member, 0);
      EXPECT_NE(member, 7);
    }
  }
}

TEST(CoinGenTest, OverDegreeByzantineDealerTolerated) {
  // A Byzantine player deals degree-(t+3) polynomials but otherwise
  // follows the protocol. Honest players must still agree and expose
  // identical coins; the cheater lands outside every honest clique.
  const int n = 13, t = 2;
  const unsigned m = 3;
  const int bad = 4;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 5);
  GenRun run;
  run.results.resize(n);
  run.coins.assign(n, {});
  Cluster cluster(n, t, 5);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        auto result = coin_gen<F>(io, m, pool);
        run.results[io.id()] = result;
        if (!result.success) return;
        const auto sealed =
            result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], 100 + h));
        }
      },
      {bad},
      [&](PartyIo& io) {
        // Same program as honest coin_gen, but the dealt polynomials have
        // too-high degree. We reuse coin_gen by monkey-patching degree:
        // simplest faithful attack: run the honest code after dealing bad
        // rows manually is complex, so emulate: deal junk rows, then
        // behave honestly for the rest of the rounds (combination values
        // are random junk too).
        const auto row_tag = make_tag(ProtoId::kBitGen, 0, 0);
        for (int i = 0; i < io.n(); ++i) {
          ByteWriter w;
          for (unsigned j = 0; j < m + 1; ++j) {
            write_elem(w, random_element<F>(io.rng()));
          }
          io.send(i, row_tag, std::move(w).take());
        }
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        (void)coin_expose<F>(io, pool.take(), 0);
        // Send junk combinations, then fall silent.
        ByteWriter w;
        for (int dealer = 0; dealer < io.n(); ++dealer) {
          w.u8(1);
          write_elem(w, random_element<F>(io.rng()));
        }
        io.send_all(make_tag(ProtoId::kBitGen, 0, 1), w.data());
        io.sync();
      });
  std::set<int> faulty = {bad};
  expect_unanimous_coins(run, n, m, faulty);
  for (int i = 0; i < n; ++i) {
    if (i == bad) continue;
    for (int member : run.results[i].clique) EXPECT_NE(member, bad);
  }
}

TEST(CoinGenTest, CoinsAreStatisticallyFair) {
  // Many independent Coin-Gen runs; the exposed binary coins should be
  // roughly balanced.
  const int n = 7, t = 1;
  int ones = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const unsigned m = 8;
    const auto run = run_coin_gen(n, t, 200 + seed, m);
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(run.coins[0][h].has_value());
      ones += coin_to_bit(*run.coins[0][h]);
      ++total;
    }
  }
  EXPECT_NEAR(double(ones) / total, 0.5, 0.17);
}

TEST(CoinGenTest, DistinctCoinsWithinBatch) {
  // k-ary coins from one batch are independent uniform values — over
  // GF(2^64) they virtually never collide.
  const unsigned m = 16;
  const auto run = run_coin_gen(7, 1, 6, m);
  std::set<std::uint64_t> values;
  for (unsigned h = 0; h < m; ++h) {
    values.insert(run.coins[0][h]->to_uint());
  }
  EXPECT_EQ(values.size(), m);
}

TEST(CoinGenTest, PoolExhaustionFailsUniformly) {
  // Only 1 seed coin: the challenge consumes it and the leader draw
  // cannot happen. Everyone must fail identically (no deadlock, no
  // crash).
  const auto run = run_coin_gen(7, 1, 7, 4, {}, nullptr, /*seed_coins=*/1);
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(run.results[i].success);
    EXPECT_EQ(run.results[i].seed_coins_used, 1u);
  }
}

TEST(CoinGenTest, LargerSystem19Players) {
  const int n = 19, t = 3;
  const unsigned m = 2;
  const auto run = run_coin_gen(n, t, 8, m, {2, 11, 17}, nullptr);
  expect_unanimous_coins(run, n, m, {2, 11, 17});
}

TEST(CoinGenTest, QualifiedSetLargeEnoughForReconstruction) {
  // Theorem 1 precondition: at least 2t+1 honest qualified players.
  const int n = 13, t = 2;
  const auto run = run_coin_gen(n, t, 9, 2, {1, 6}, nullptr);
  int qualified_honest = 0;
  for (int i = 0; i < n; ++i) {
    if (i == 1 || i == 6) continue;
    if (run.results[i].qualified) ++qualified_honest;
  }
  EXPECT_GE(qualified_honest, 2 * t + 1);
}

// A dealer's endpoint that runs the honest protocol but tampers with one
// element of the Bit-Gen row it sends to `victim` (element 2, a coin
// row, not the blinder). Everything else passes through untouched.
class RowTamperIo {
 public:
  RowTamperIo(PartyIo& io, int victim) : io_(io), victim_(victim) {}

  [[nodiscard]] int id() const { return io_.id(); }
  [[nodiscard]] int n() const { return io_.n(); }
  [[nodiscard]] int t() const { return io_.t(); }
  [[nodiscard]] Chacha& rng() { return io_.rng(); }
  [[nodiscard]] std::uint32_t stream() const { return io_.stream(); }
  [[nodiscard]] std::uint32_t committee() const { return io_.committee(); }
  RowTamperIo& instance(std::uint32_t batch) {
    DPRBG_CHECK(batch == 0);  // single-stream runs only
    return *this;
  }
  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body) {
    if (to == victim_ && tag == make_tag(ProtoId::kBitGen, 0, 0)) {
      body.at(2 * F::kBytes) ^= 0x01;
    }
    io_.send(to, tag, std::move(body));
  }
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body) {
    io_.send_all(tag, body);
  }
  const Inbox& sync() { return io_.sync(); }
  [[nodiscard]] const Inbox& inbox() const { return io_.inbox(); }
  void note_decode_failure(int from) { io_.note_decode_failure(from); }
  [[nodiscard]] const CommCounters& sent() const { return io_.sent(); }
  [[nodiscard]] std::uint64_t rounds() const { return io_.rounds(); }

 private:
  PartyIo& io_;
  int victim_;
};
static_assert(NetEndpoint<RowTamperIo>);

TEST(CoinGenTest, TamperedRowDisqualifiesItsVictim) {
  // The dealer deals consistent shares to everyone but the victim, whose
  // row carries one wrong element. The victim's beta for that dealer
  // then misses F_dealer, so the victim is unqualified exactly when the
  // dealer is in the agreed clique. A crashed player 0 gets matched with
  // the victim in the clique step's matching, which keeps the dealer in
  // the clique; without it the (victim, dealer) non-edge drops both.
  const int n = 13, t = 2;
  const unsigned m = 4;
  const int victim = 1, dealer = 2;
  int runs_with_dealer_in_clique = 0;
  for (const bool crash_zero : {true, false}) {
    for (std::uint64_t seed = 20; seed < 23; ++seed) {
      SCOPED_TRACE("crash_zero=" + std::to_string(crash_zero) +
                   " seed=" + std::to_string(seed));
      const std::vector<int> faulty =
          crash_zero ? std::vector<int>{0, dealer} : std::vector<int>{dealer};
      auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
      const auto run = run_coin_gen(
          n, t, seed, m, faulty, [&](PartyIo& io) {
            if (io.id() != dealer) return;  // player 0 crashes
            RowTamperIo tio(io, victim);
            CoinPool<F> pool;
            for (auto& c : genesis[io.id()]) pool.add(std::move(c));
            const auto result = coin_gen<F>(tio, m, pool);
            if (!result.success) return;
            const auto sealed = result.sealed_coins(t);
            for (unsigned h = 0; h < m; ++h) {
              (void)coin_expose<F>(tio, sealed[h], 100 + h);
            }
          });
      const std::set<int> faulty_set(faulty.begin(), faulty.end());
      expect_unanimous_coins(run, n, m, faulty_set);
      const auto& clique = run.results[victim].clique;
      const bool dealer_in_clique =
          std::find(clique.begin(), clique.end(), dealer) != clique.end();
      runs_with_dealer_in_clique += dealer_in_clique ? 1 : 0;
      EXPECT_EQ(dealer_in_clique, crash_zero);
      EXPECT_EQ(run.results[victim].qualified, !dealer_in_clique);
      for (int i = 0; i < n; ++i) {
        if (faulty_set.count(i) != 0 || i == victim) continue;
        EXPECT_TRUE(run.results[i].qualified) << "player " << i;
      }
    }
  }
  EXPECT_GT(runs_with_dealer_in_clique, 0);
}

TEST(CoinGenTest, StoredBetaIsTheCombinationOfMyRow) {
  // Qualification compares F_k(i) against the beta Bit-Gen kept, so that
  // beta must be exactly batch_combine(my_row, r) whenever a row arrived,
  // and absent when none did (crashed dealer 0) — including the
  // tampered row's victim.
  const int n = 13, t = 2;
  const unsigned m_total = 5;
  const int victim = 1, dealer = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 30);
  std::vector<BitGenAllOutcome<F>> outcomes(n);
  Cluster cluster(n, t, 30);
  cluster.run(
      [&](PartyIo& io) {
        outcomes[io.id()] = bit_gen_all<F>(
            io, CoeffMatrix<F>::random(t, m_total, io.rng()), m_total, t,
            coins[io.id()][0]);
      },
      {0, dealer},
      [&](PartyIo& io) {
        if (io.id() != dealer) return;
        RowTamperIo tio(io, victim);
        (void)bit_gen_all<F>(tio, CoeffMatrix<F>::random(t, m_total, io.rng()),
                             m_total, t, coins[io.id()][0]);
      });
  for (int i = 1; i < n; ++i) {
    if (i == dealer) continue;
    const auto& out = outcomes[i];
    ASSERT_TRUE(out.challenge.has_value()) << "player " << i;
    for (int k = 0; k < n; ++k) {
      const auto& view = out.views[k];
      if (view.my_row.empty()) {
        EXPECT_FALSE(view.my_beta.has_value()) << i << " <- " << k;
        continue;
      }
      ASSERT_TRUE(view.my_beta.has_value()) << i << " <- " << k;
      EXPECT_EQ(*view.my_beta, batch_combine<F>(view.my_row, *out.challenge))
          << i << " <- " << k;
    }
    EXPECT_TRUE(out.views[0].my_row.empty()) << "player " << i;
    // The tampered row's beta is off the decoded polynomial; every other
    // player's is on it.
    const auto& f_dealer = out.views[dealer].poly;
    ASSERT_TRUE(f_dealer.has_value()) << "player " << i;
    EXPECT_EQ((*f_dealer)(eval_point<F>(i)) == *out.views[dealer].my_beta,
              i != victim)
        << "player " << i;
  }
}

}  // namespace
}  // namespace dprbg
