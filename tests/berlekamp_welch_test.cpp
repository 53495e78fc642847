// Tests for the Berlekamp-Welch decoder [5], the error-tolerant
// interpolation at the heart of Bit-Gen and Coin-Expose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "gf/gf2.h"
#include "poly/berlekamp_welch.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

using F = GF2_32;
using P = Polynomial<F>;

F fe(std::uint64_t v) { return F::from_uint(v); }

std::vector<PointValue<F>> sample(const P& p, int n) {
  std::vector<PointValue<F>> pts;
  for (int i = 1; i <= n; ++i) pts.push_back({fe(i), p(fe(i))});
  return pts;
}

// Corrupts `count` distinct positions with fresh random wrong values.
void corrupt(std::vector<PointValue<F>>& pts, int count, Chacha& rng) {
  for (int c = 0; c < count; ++c) {
    auto& pv = pts[c * 2 % pts.size()];  // distinct for count <= size/2
    F bad = random_element<F>(rng);
    while (bad == pv.y) bad = random_element<F>(rng);
    pv.y = bad;
  }
}

TEST(BerlekampWelchTest, DecodesCleanPoints) {
  Chacha rng(1);
  const P p = P::random(3, rng);
  const auto pts = sample(p, 10);
  const auto decoded = berlekamp_welch<F>(pts, 3, 3);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

// Decoding succeeds for any error count e as long as n >= d + 2e + 1:
// the PODC'96 setting is n = 3t+1 points, degree t, up to t errors.
class BwSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BwSweep, DecodesWithErrors) {
  const auto [deg, errors] = GetParam();
  const int n = deg + 2 * errors + 1;
  Chacha rng(100 + deg * 17 + errors);
  for (int trial = 0; trial < 10; ++trial) {
    const P p = P::random(deg, rng);
    auto pts = sample(p, n);
    corrupt(pts, errors, rng);
    const auto decoded = berlekamp_welch<F>(pts, deg, errors);
    ASSERT_TRUE(decoded.has_value())
        << "deg=" << deg << " errors=" << errors << " trial=" << trial;
    EXPECT_EQ(*decoded, p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreeErrorGrid, BwSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(0, 1, 2, 4)));

TEST(BerlekampWelchTest, PodcParameters) {
  // The paper's reconstruction setting: |S| = 3t+1 points, polynomial of
  // degree t, up to t of the points corrupted by faulty players.
  for (int t = 1; t <= 5; ++t) {
    Chacha rng(200 + t);
    const P p = P::random(t, rng);
    auto pts = sample(p, 3 * t + 1);
    corrupt(pts, t, rng);
    const auto decoded = berlekamp_welch<F>(pts, t, t);
    ASSERT_TRUE(decoded.has_value()) << "t=" << t;
    EXPECT_EQ(*decoded, p);
  }
}

TEST(BerlekampWelchTest, RejectsOverDegreePolynomial) {
  // A cheating dealer's degree-(t+1) sharing must not decode as degree t
  // when enough honest points pin it down.
  Chacha rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    P p = P::random(5, rng);
    while (p.degree() < 5) p = P::random(5, rng);
    const auto pts = sample(p, 10);  // clean but over-degree
    const auto decoded = berlekamp_welch<F>(pts, 3, 1);
    // Either decoding fails, or the decoded polynomial would need > 1
    // disagreements — the implementation checks this, so it must fail.
    EXPECT_FALSE(decoded.has_value()) << "trial=" << trial;
  }
}

TEST(BerlekampWelchTest, TooManyErrorsFailsGracefully) {
  Chacha rng(4);
  const P p = P::random(2, rng);
  auto pts = sample(p, 7);  // supports e <= 2 for degree 2
  corrupt(pts, 3, rng);
  // With max_errors=2 the decoder must not hallucinate agreement.
  const auto decoded = berlekamp_welch<F>(pts, 2, 2);
  if (decoded.has_value()) {
    // If decoding "succeeded" the result must still disagree with at most
    // 2 points, i.e. it found some valid nearby codeword. Verify that
    // claim independently.
    int disagreements = 0;
    for (const auto& pv : pts) {
      if ((*decoded)(pv.x) != pv.y) ++disagreements;
    }
    EXPECT_LE(disagreements, 2);
  }
}

TEST(BerlekampWelchTest, FewerPointsThanDegreeFails) {
  Chacha rng(5);
  const P p = P::random(5, rng);
  const auto pts = sample(p, 4);
  EXPECT_FALSE(berlekamp_welch<F>(pts, 5, 0).has_value());
}

TEST(BerlekampWelchTest, ZeroPolynomialDecodes) {
  std::vector<PointValue<F>> pts;
  for (int i = 1; i <= 7; ++i) pts.push_back({fe(i), F::zero()});
  const auto decoded = berlekamp_welch<F>(pts, 2, 2);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_zero());
}

TEST(BerlekampWelchTest, ErrorPositionsDoNotMatter) {
  Chacha rng(6);
  const P p = P::random(2, rng);
  for (std::size_t pos = 0; pos < 7; ++pos) {
    auto pts = sample(p, 7);
    pts[pos].y = pts[pos].y + fe(1);
    const auto decoded = berlekamp_welch<F>(pts, 2, 2);
    ASSERT_TRUE(decoded.has_value()) << "pos=" << pos;
    EXPECT_EQ(*decoded, p);
  }
}

TEST(BerlekampWelchTest, SmallFieldDecoding) {
  // Everything still works over GF(2^8), the soundness-experiment field.
  using F8 = GF2_8;
  Chacha rng(7);
  const auto p = Polynomial<F8>::random(2, rng);
  std::vector<PointValue<F8>> pts;
  for (int i = 1; i <= 7; ++i) {
    pts.push_back({F8::from_uint(i), p(F8::from_uint(i))});
  }
  pts[1].y = pts[1].y + F8::one();
  pts[4].y = pts[4].y + F8::from_uint(17);
  const auto decoded = berlekamp_welch<F8>(pts, 2, 2);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

// ---------------------------------------------------------------------
// Differential check: the interpolate-first decoder against the
// elimination path it short-cuts (bw_detail::eliminate), over GF(2^64)
// and a small prime field. Z_251 has odd characteristic, so a sign slip
// that GF(2^k) hides (there a - b == a + b) shows up.

class Z251 {
 public:
  static constexpr std::uint32_t kQ = 251;
  static constexpr unsigned kBits = 8;
  static constexpr unsigned kBytes = 1;

  Z251() = default;
  static Z251 zero() { return Z251(0); }
  static Z251 one() { return Z251(1); }
  static Z251 from_uint(std::uint64_t v) {
    return Z251(static_cast<std::uint32_t>(v % kQ));
  }
  friend Z251 operator+(Z251 a, Z251 b) { return Z251((a.v_ + b.v_) % kQ); }
  friend Z251 operator-(Z251 a, Z251 b) {
    return Z251((a.v_ + kQ - b.v_) % kQ);
  }
  friend Z251 operator*(Z251 a, Z251 b) { return Z251(a.v_ * b.v_ % kQ); }
  friend Z251 operator/(Z251 a, Z251 b) { return a * b.inv(); }
  [[nodiscard]] Z251 inv() const {  // Fermat: a^(q-2)
    DPRBG_CHECK(v_ != 0);
    Z251 acc = one();
    Z251 base = *this;
    for (std::uint32_t e = kQ - 2; e != 0; e >>= 1) {
      if ((e & 1u) != 0) acc = acc * base;
      base = base * base;
    }
    return acc;
  }
  [[nodiscard]] std::uint64_t to_uint() const { return v_; }
  [[nodiscard]] bool is_zero() const { return v_ == 0; }
  friend bool operator==(Z251 a, Z251 b) = default;

 private:
  explicit Z251(std::uint32_t v) : v_(v) {}
  std::uint32_t v_ = 0;
};
static_assert(FiniteField<Z251>);

template <typename G>
class BwDifferentialTest : public ::testing::Test {};

using DiffFields = ::testing::Types<GF2_64, Z251>;
TYPED_TEST_SUITE(BwDifferentialTest, DiffFields);

// The acceptance rule as the dealing rounds wrote it out before
// decode_quorum: Berlekamp-Welch tolerating min(t, cap) errors, then a
// recount of the decoded polynomial's agreements against the quorum.
template <typename G>
std::optional<Polynomial<G>> recount_quorum(
    const std::vector<PointValue<G>>& pts, unsigned t, std::size_t need) {
  if (pts.size() < need) return std::nullopt;
  const unsigned max_errors =
      std::min(t, static_cast<unsigned>((pts.size() - t - 1) / 2));
  auto poly = berlekamp_welch<G>(pts, t, max_errors);
  if (!poly) return std::nullopt;
  std::size_t agreements = 0;
  for (const auto& pv : pts) {
    if ((*poly)(pv.x) == pv.y) ++agreements;
  }
  if (agreements < need) return std::nullopt;
  return poly;
}

// decode_quorum on one word against recount_quorum, with t = d: both
// return the same polynomial (or none) and charge the same single
// interpolation, or none when fewer than `need` points arrived.
template <typename G>
void expect_quorum_matches(const std::vector<PointValue<G>>& pts, unsigned d,
                           std::size_t need, const std::string& what) {
  const std::uint64_t charged = pts.size() >= need ? 1 : 0;
  const std::uint64_t before = field_counters().interpolations;
  const auto got = decode_quorum<G>(pts, d, need);
  const std::uint64_t mid = field_counters().interpolations;
  const auto want = recount_quorum<G>(pts, d, need);
  const std::uint64_t after = field_counters().interpolations;
  EXPECT_EQ(got, want) << what << " need=" << need;
  EXPECT_EQ(mid - before, charged) << what << ": quorum interpolations";
  EXPECT_EQ(after - mid, charged) << what << ": recount interpolations";
}

// Runs both decoders on one word; they must agree and each must count
// exactly one interpolation. The word, and the word without its last
// point (a silent player), then go through the quorum decode for the
// quorums P - e and n - t (n the word's size, t = d). Every caller has
// e <= d, so both quorums are at least P - t: the recount rule, whose
// one t is degree and fault bound alike, tolerates no more errors.
template <typename G>
std::optional<Polynomial<G>> decode_both(
    const std::vector<PointValue<G>>& pts, unsigned d, unsigned e,
    const char* what) {
  const std::uint64_t before = field_counters().interpolations;
  const auto fast = berlekamp_welch<G>(pts, d, e);
  const std::uint64_t mid = field_counters().interpolations;
  const auto slow = bw_detail::eliminate<G>(pts, d, e);
  const std::uint64_t after = field_counters().interpolations;
  EXPECT_EQ(fast, slow) << what;
  EXPECT_EQ(mid - before, 1u) << what << ": fast path interpolations";
  EXPECT_EQ(after - mid, 1u) << what << ": elimination interpolations";
  for (const std::size_t silent : {0u, 1u}) {
    const std::vector<PointValue<G>> heard(pts.begin(), pts.end() - silent);
    const std::string where =
        std::string(what) + " silent=" + std::to_string(silent);
    expect_quorum_matches<G>(heard, d, heard.size() - e, where);
    expect_quorum_matches<G>(heard, d, pts.size() - d, where);
  }
  return fast;
}

// Adds a nonzero offset to y at each listed position.
template <typename G>
void corrupt_at(std::vector<PointValue<G>>& pts,
                const std::vector<std::size_t>& positions, Chacha& rng) {
  for (const std::size_t pos : positions) {
    pts[pos].y = pts[pos].y + random_nonzero<G>(rng);
  }
}

// `count` distinct positions drawn from [0, limit).
std::vector<std::size_t> pick_positions(std::size_t count, std::size_t limit,
                                        Chacha& rng) {
  std::vector<std::size_t> all(limit);
  for (std::size_t i = 0; i < limit; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(count);
  return all;
}

TYPED_TEST(BwDifferentialTest, FastPathMatchesElimination) {
  using G = TypeParam;
  struct Shape {
    unsigned n, d, e;
  };
  for (const Shape sh : {Shape{7, 1, 1}, Shape{13, 2, 2}, Shape{25, 4, 4},
                         Shape{31, 5, 5}, Shape{61, 10, 10}}) {
    Chacha rng(1000 + sh.n);
    for (int trial = 0; trial < 4; ++trial) {
      // Even trials use the canonical grid 1..n (the cached-weights
      // path); odd ones a shuffled subset of distinct points off it.
      std::vector<G> xs;
      if (trial % 2 == 0) {
        for (unsigned i = 0; i < sh.n; ++i) {
          xs.push_back(eval_point<G>(static_cast<int>(i)));
        }
      } else {
        for (const std::size_t v : pick_positions(sh.n, 200, rng)) {
          xs.push_back(G::from_uint(v + 3));
        }
      }
      auto word = [&](const Polynomial<G>& p) {
        std::vector<PointValue<G>> pts;
        for (const G& x : xs) pts.push_back({x, p(x)});
        return pts;
      };
      const auto p = Polynomial<G>::random(sh.d, rng);
      const std::string where = "n=" + std::to_string(sh.n) +
                                " trial=" + std::to_string(trial);
      // 0..e errors anywhere: both decode p.
      for (unsigned k = 0; k <= sh.e; ++k) {
        auto pts = word(p);
        corrupt_at(pts, pick_positions(k, sh.n, rng), rng);
        const auto got =
            decode_both<G>(pts, sh.d, sh.e, (where + " errors").c_str());
        ASSERT_TRUE(got.has_value()) << where << " k=" << k;
        EXPECT_EQ(*got, p) << where << " k=" << k;
      }
      // Errors confined to the first d+1 points: the fast path's
      // candidate is wrong and it must fall back.
      for (unsigned k = 1; k <= std::min(sh.e, sh.d + 1); ++k) {
        auto pts = word(p);
        corrupt_at(pts, pick_positions(k, sh.d + 1, rng), rng);
        const auto got =
            decode_both<G>(pts, sh.d, sh.e, (where + " head").c_str());
        ASSERT_TRUE(got.has_value()) << where << " head k=" << k;
        EXPECT_EQ(*got, p) << where << " head k=" << k;
      }
      // e+1 errors: beyond the decoding radius; only agreement is owed.
      {
        auto pts = word(p);
        corrupt_at(pts, pick_positions(sh.e + 1, sh.n, rng), rng);
        (void)decode_both<G>(pts, sh.d, sh.e, (where + " e+1").c_str());
      }
      // Over-degree words, clean and with a few errors.
      for (unsigned extra = 1; extra <= 3; ++extra) {
        Polynomial<G> q = Polynomial<G>::random(sh.d + extra, rng);
        while (q.degree() < static_cast<int>(sh.d + extra)) {
          q = Polynomial<G>::random(sh.d + extra, rng);
        }
        auto pts = word(q);
        corrupt_at(pts, pick_positions(extra - 1, sh.n, rng), rng);
        (void)decode_both<G>(pts, sh.d, sh.e, (where + " over").c_str());
      }
      // Fewer allowed errors than present, and max_errors == 0.
      for (unsigned e : {0u, sh.e / 2}) {
        auto pts = word(p);
        corrupt_at(pts, pick_positions(e + 1, sh.n, rng), rng);
        (void)decode_both<G>(pts, sh.d, e, (where + " small e").c_str());
        (void)decode_both<G>(word(p), sh.d, e, (where + " clean").c_str());
      }
    }
  }
}

}  // namespace
}  // namespace dprbg
