// Field-axiom and implementation tests for GF(2^m).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

template <typename F>
class Gf2FieldTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2<4>, GF2_8, GF2_16, GF2<24>, GF2_32,
                                    GF2<40>, GF2<48>, GF2<56>, GF2_64>;
TYPED_TEST_SUITE(Gf2FieldTest, FieldTypes);

TYPED_TEST(Gf2FieldTest, AdditiveIdentityAndSelfInverse) {
  Chacha rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    EXPECT_EQ(a + TypeParam::zero(), a);
    EXPECT_TRUE((a + a).is_zero());  // char 2
    EXPECT_EQ(a - a, TypeParam::zero());
  }
}

TYPED_TEST(Gf2FieldTest, MultiplicativeIdentityAndZero) {
  Chacha rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    EXPECT_EQ(a * TypeParam::one(), a);
    EXPECT_TRUE((a * TypeParam::zero()).is_zero());
  }
}

TYPED_TEST(Gf2FieldTest, MultiplicationCommutesAndAssociates) {
  Chacha rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    const auto b = random_element<TypeParam>(rng);
    const auto c = random_element<TypeParam>(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TYPED_TEST(Gf2FieldTest, Distributivity) {
  Chacha rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    const auto b = random_element<TypeParam>(rng);
    const auto c = random_element<TypeParam>(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(Gf2FieldTest, InverseRoundTrip) {
  Chacha rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_nonzero<TypeParam>(rng);
    EXPECT_EQ(a * a.inv(), TypeParam::one());
    EXPECT_EQ((a / a), TypeParam::one());
  }
}

TYPED_TEST(Gf2FieldTest, FrobeniusFixedField) {
  // x^(2^m) == x for every field element — this holds iff the modulus is
  // irreducible (otherwise the ring has nilpotents/zero divisors breaking
  // it), so this test certifies the constants in gf2_detail::modulus.
  Chacha rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto a = random_element<TypeParam>(rng);
    auto x = a;
    for (unsigned s = 0; s < TypeParam::kBits; ++s) x = x * x;
    EXPECT_EQ(x, a);
  }
}

TYPED_TEST(Gf2FieldTest, NoZeroDivisors) {
  Chacha rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_nonzero<TypeParam>(rng);
    const auto b = random_nonzero<TypeParam>(rng);
    EXPECT_FALSE((a * b).is_zero());
  }
}

TYPED_TEST(Gf2FieldTest, PowMatchesRepeatedMultiplication) {
  Chacha rng(8);
  const auto a = random_nonzero<TypeParam>(rng);
  auto acc = TypeParam::one();
  for (unsigned e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(e), acc);
    acc = acc * a;
  }
}

TYPED_TEST(Gf2FieldTest, FromUintMasksHighBits) {
  const auto a = TypeParam::from_uint(~std::uint64_t{0});
  EXPECT_EQ(a.to_uint(), TypeParam::kMask);
}

TEST(Gf2SmallFieldTest, Gf16ExhaustiveInverse) {
  for (std::uint64_t v = 1; v < 16; ++v) {
    const auto a = GF2<4>::from_uint(v);
    EXPECT_EQ(a * a.inv(), GF2<4>::one()) << "v=" << v;
  }
}

TEST(Gf2SmallFieldTest, Gf16MultiplicativeGroupOrder) {
  // Every nonzero element's order divides 15.
  for (std::uint64_t v = 1; v < 16; ++v) {
    const auto a = GF2<4>::from_uint(v);
    EXPECT_EQ(a.pow(15), GF2<4>::one()) << "v=" << v;
  }
}

TEST(Gf2SmallFieldTest, Gf256KnownProducts) {
  // AES field (modulus 0x1B): well-known vector 0x57 * 0x83 = 0xC1.
  const auto a = GF2_8::from_uint(0x57);
  const auto b = GF2_8::from_uint(0x83);
  EXPECT_EQ((a * b).to_uint(), 0xC1u);
  // And 0x57 * 0x13 = 0xFE from the AES specification.
  EXPECT_EQ((a * GF2_8::from_uint(0x13)).to_uint(), 0xFEu);
}

TEST(Gf2SmallFieldTest, TableAndGenericAgree) {
  // GF2<16> uses log tables; recompute products with the generic clmul
  // path and compare.
  Chacha rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t b = rng.next_u64() & 0xFFFF;
    const std::uint64_t via_table =
        (GF2_16::from_uint(a) * GF2_16::from_uint(b)).to_uint();
    const std::uint64_t via_clmul = gf2_detail::clmul_reduce<16>(a, b);
    EXPECT_EQ(via_table, via_clmul);
  }
}

// Hardware PCLMUL vs the software shift-XOR loop: both must produce the
// same canonical remainder for every wide field (gf2_clmul.h contract).
// Skipped (vacuously green) on hosts without PCLMUL or when forced
// scalar, where mul_raw takes the software path anyway.
template <unsigned M>
void clmul_hw_differential(std::uint64_t seed) {
  if (!gf2_detail::clmul_hw) GTEST_SKIP() << "no hardware PCLMUL path";
  Chacha rng(seed);
  const std::uint64_t mask = GF2<M>::kBits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << M) - 1;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next_u64() & mask;
    const std::uint64_t b = rng.next_u64() & mask;
    const std::uint64_t hw =
        gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>());
    const std::uint64_t soft = gf2_detail::clmul_reduce<M>(a, b);
    ASSERT_EQ(hw, soft) << "M=" << M << " a=" << a << " b=" << b;
  }
  // Boundary values: all-ones, single top bit, zero, one.
  for (std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, mask,
                          std::uint64_t{1} << (M - 1)}) {
    for (std::uint64_t b : {std::uint64_t{0}, std::uint64_t{1}, mask,
                            std::uint64_t{1} << (M - 1)}) {
      ASSERT_EQ(gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>()),
                (gf2_detail::clmul_reduce<M>(a, b)));
    }
  }
}

TEST(Gf2ClmulHwTest, M24) { clmul_hw_differential<24>(24); }
TEST(Gf2ClmulHwTest, M32) { clmul_hw_differential<32>(32); }
TEST(Gf2ClmulHwTest, M40) { clmul_hw_differential<40>(40); }
TEST(Gf2ClmulHwTest, M48) { clmul_hw_differential<48>(48); }
TEST(Gf2ClmulHwTest, M56) { clmul_hw_differential<56>(56); }
TEST(Gf2ClmulHwTest, M64) { clmul_hw_differential<64>(64); }

// The operands that drive the two-fold reduction hardest: all-ones
// squared has the highest-degree overflow H (deg 2m-2), and x^(m-1)
// puts the single top bit through both folds. Checked through the field
// operator (whichever path clmul_hw selects) and, where PCLMUL runs,
// through the kernel directly; both must equal the software loop.
template <unsigned M>
void fold_boundaries() {
  const std::uint64_t ones = GF2<M>::kMask;
  const std::uint64_t top = std::uint64_t{1} << (M - 1);
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {ones, ones}, {top, top}, {top, ones}, {1, ones}};
  for (const auto& [a, b] : cases) {
    const std::uint64_t want = gf2_detail::clmul_reduce<M>(a, b);
    EXPECT_EQ((GF2<M>::from_uint(a) * GF2<M>::from_uint(b)).to_uint(), want)
        << "M=" << M << " a=" << a << " b=" << b;
    EXPECT_EQ((GF2<M>::from_uint(b) * GF2<M>::from_uint(a)).to_uint(), want)
        << "M=" << M << " a=" << a << " b=" << b;
    if (gf2_detail::clmul_hw) {
      EXPECT_EQ(gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>()),
                want)
          << "M=" << M << " a=" << a << " b=" << b;
    }
  }
  EXPECT_EQ(gf2_detail::clmul_reduce<M>(1, ones), ones);
}

TEST(Gf2FoldBoundaryTest, M24) { fold_boundaries<24>(); }
TEST(Gf2FoldBoundaryTest, M32) { fold_boundaries<32>(); }
TEST(Gf2FoldBoundaryTest, M40) { fold_boundaries<40>(); }
TEST(Gf2FoldBoundaryTest, M48) { fold_boundaries<48>(); }
TEST(Gf2FoldBoundaryTest, M56) { fold_boundaries<56>(); }
TEST(Gf2FoldBoundaryTest, M64) { fold_boundaries<64>(); }

TEST(Gf2MetricsTest, OperationsAreCounted) {
  const FieldCounters before = field_counters();
  const auto a = GF2_64::from_uint(123);
  const auto b = GF2_64::from_uint(456);
  auto c = a + b;
  c = c * a;
  (void)c.inv();
  const FieldCounters delta = field_counters() - before;
  EXPECT_EQ(delta.adds, 1u);
  EXPECT_EQ(delta.muls, 1u);
  EXPECT_EQ(delta.invs, 1u);
}

}  // namespace
}  // namespace dprbg
