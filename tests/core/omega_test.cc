#include "core/omega.h"

#include <gtest/gtest.h>

#include "testing/paper_fixtures.h"
#include "util/string_util.h"

namespace jinfer {
namespace core {
namespace {

Omega MakeExampleOmega() {
  auto r = rel::Schema::Make("R0", {"A1", "A2"});
  auto p = rel::Schema::Make("P0", {"B1", "B2", "B3"});
  auto omega = Omega::Make(*r, *p);
  return std::move(omega).ValueOrDie();
}

TEST(OmegaTest, Dimensions) {
  Omega omega = MakeExampleOmega();
  EXPECT_EQ(omega.num_r_attrs(), 2u);
  EXPECT_EQ(omega.num_p_attrs(), 3u);
  EXPECT_EQ(omega.size(), 6u);
}

TEST(OmegaTest, BitLayoutRoundTrips) {
  Omega omega = MakeExampleOmega();
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      size_t bit = omega.BitOf(i, j);
      EXPECT_LT(bit, omega.size());
      EXPECT_EQ(omega.PairOf(bit), (std::pair<size_t, size_t>{i, j}));
    }
  }
}

TEST(OmegaTest, BitsAreDistinct) {
  Omega omega = MakeExampleOmega();
  std::set<size_t> bits;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) bits.insert(omega.BitOf(i, j));
  }
  EXPECT_EQ(bits.size(), 6u);
}

TEST(OmegaTest, FullPredicate) {
  Omega omega = MakeExampleOmega();
  JoinPredicate full = omega.Full();
  EXPECT_EQ(full.Count(), 6u);
  EXPECT_TRUE(full.Test(5));
  EXPECT_FALSE(full.Test(6));
}

TEST(OmegaTest, PredicateFromPairsAndBack) {
  Omega omega = MakeExampleOmega();
  std::vector<std::pair<size_t, size_t>> pairs = {{0, 2}, {1, 0}};
  JoinPredicate theta = omega.PredicateFromPairs(pairs);
  EXPECT_EQ(theta.Count(), 2u);
  EXPECT_EQ(omega.PairsOf(theta), pairs);
}

TEST(OmegaTest, PredicateFromNames) {
  Omega omega = MakeExampleOmega();
  auto theta = omega.PredicateFromNames({{"A1", "B3"}, {"A2", "B1"}});
  ASSERT_TRUE(theta.ok());
  EXPECT_EQ(*theta, omega.PredicateFromPairs({{0, 2}, {1, 0}}));
}

TEST(OmegaTest, PredicateFromUnknownNameFails) {
  Omega omega = MakeExampleOmega();
  EXPECT_TRUE(omega.PredicateFromNames({{"A9", "B1"}}).status().IsNotFound());
  EXPECT_TRUE(omega.PredicateFromNames({{"A1", "B9"}}).status().IsNotFound());
}

TEST(OmegaTest, FormatUsesAttributeNames) {
  Omega omega = MakeExampleOmega();
  JoinPredicate theta = omega.PredicateFromPairs({{0, 2}, {1, 0}});
  EXPECT_EQ(omega.Format(theta), "{(A1,B3),(A2,B1)}");
  EXPECT_EQ(omega.Format(JoinPredicate()), "{}");
}

TEST(OmegaTest, ToAttrPairsMatchesJoinEvaluation) {
  Omega omega = MakeExampleOmega();
  JoinPredicate theta = omega.PredicateFromPairs({{1, 1}});
  std::vector<rel::AttrPair> attr_pairs = omega.ToAttrPairs(theta);
  ASSERT_EQ(attr_pairs.size(), 1u);
  EXPECT_EQ(attr_pairs[0], (rel::AttrPair{1, 1}));
}

TEST(OmegaTest, CapacityEnforced) {
  // 16 x 17 = 272 > 256 must be rejected.
  std::vector<std::string> r_names, p_names;
  for (int i = 0; i < 16; ++i) r_names.push_back(util::StrFormat("A%d", i));
  for (int i = 0; i < 17; ++i) p_names.push_back(util::StrFormat("B%d", i));
  auto r = rel::Schema::Make("R", r_names);
  auto p = rel::Schema::Make("P", p_names);
  auto omega = Omega::Make(*r, *p);
  ASSERT_FALSE(omega.ok());
  EXPECT_TRUE(omega.status().IsCapacityExceeded());
}

TEST(OmegaTest, MaxTpchShapeFits) {
  // Orders(9) x Lineitem(16) = 144 must fit.
  std::vector<std::string> r_names, p_names;
  for (int i = 0; i < 9; ++i) r_names.push_back(util::StrFormat("A%d", i));
  for (int i = 0; i < 16; ++i) p_names.push_back(util::StrFormat("B%d", i));
  auto omega = Omega::Make(*rel::Schema::Make("R", r_names),
                           *rel::Schema::Make("P", p_names));
  ASSERT_TRUE(omega.ok());
  EXPECT_EQ(omega->size(), 144u);
}

}  // namespace
}  // namespace core
}  // namespace jinfer
