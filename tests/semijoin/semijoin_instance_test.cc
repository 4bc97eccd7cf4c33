#include "semijoin/semijoin_instance.h"

#include <gtest/gtest.h>

#include "relational/join.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"

namespace jinfer {
namespace semi {
namespace {

SemijoinInstance Example21Instance() {
  auto inst = SemijoinInstance::Build(testing::Example21R(),
                                      testing::Example21P());
  JINFER_CHECK(inst.ok(), "fixture");
  return std::move(inst).ValueOrDie();
}

TEST(SemijoinInstanceTest, Example21SemijoinsFromSection2) {
  SemijoinInstance inst = Example21Instance();
  const core::Omega& omega = inst.omega();
  // R0 ⋉θ1 P0 = {t2, t4}; θ1 = {(A1,B1),(A2,B3)}.
  EXPECT_EQ(inst.Semijoin(testing::Pred(omega, {{0, 0}, {1, 2}})),
            (std::vector<size_t>{1, 3}));
  // R0 ⋉θ2 P0 = {t1, t4}; θ2 = {(A2,B2)}.
  EXPECT_EQ(inst.Semijoin(testing::Pred(omega, {{1, 1}})),
            (std::vector<size_t>{0, 3}));
  // R0 ⋉θ3 P0 = ∅; θ3 = {(A2,B1),(A2,B2),(A2,B3)}.
  EXPECT_TRUE(inst.Semijoin(testing::Pred(omega, {{1, 0}, {1, 1}, {1, 2}}))
                  .empty());
}

TEST(SemijoinInstanceTest, EmptyPredicateSelectsAllRows) {
  SemijoinInstance inst = Example21Instance();
  EXPECT_EQ(inst.Semijoin(core::JoinPredicate()).size(), 4u);
}

TEST(SemijoinInstanceTest, MaximalSignaturesAreMaximal) {
  SemijoinInstance inst = Example21Instance();
  for (size_t row = 0; row < inst.num_rows(); ++row) {
    const auto& sigs = inst.MaximalSignatures(row);
    EXPECT_FALSE(sigs.empty());
    for (size_t a = 0; a < sigs.size(); ++a) {
      for (size_t b = 0; b < sigs.size(); ++b) {
        if (a != b) {
          EXPECT_FALSE(sigs[a].IsStrictSubsetOf(sigs[b]));
        }
      }
    }
  }
}

TEST(SemijoinInstanceTest, SelectsAgreesWithRelationalEvaluation) {
  // Cross-validate against rel::SemijoinIndices on random predicates.
  rel::Relation r = testing::Example21R();
  rel::Relation p = testing::Example21P();
  SemijoinInstance inst = Example21Instance();
  const core::Omega& omega = inst.omega();
  util::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    core::JoinPredicate theta;
    for (size_t b = 0; b < omega.size(); ++b) {
      if (rng.NextBool(0.35)) theta.Set(b);
    }
    auto expected = rel::SemijoinIndices(r, p, omega.ToAttrPairs(theta));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(inst.Semijoin(theta), *expected) << omega.Format(theta);
  }
}

TEST(SemijoinInstanceTest, ConsistentWithSection6Sample) {
  // §6: S'+ = {t1, t2}, S'− = {t3}; θ' = {(A1,B2)} is consistent.
  SemijoinInstance inst = Example21Instance();
  RowSample sample = {{0, core::Label::kPositive},
                      {1, core::Label::kPositive},
                      {2, core::Label::kNegative}};
  EXPECT_TRUE(inst.ConsistentWith(testing::Pred(inst.omega(), {{0, 1}}),
                                  sample));
  // Sanity: the empty predicate selects t3 too, hence is inconsistent.
  EXPECT_FALSE(inst.ConsistentWith(core::JoinPredicate(), sample));
}

TEST(SemijoinInstanceTest, EquivalentOnInstance) {
  SemijoinInstance inst = Example21Instance();
  const core::Omega& omega = inst.omega();
  core::JoinPredicate theta3 = testing::Pred(omega, {{1, 0}, {1, 1}, {1, 2}});
  EXPECT_TRUE(inst.EquivalentOnInstance(theta3, omega.Full()));
  EXPECT_FALSE(inst.EquivalentOnInstance(theta3, core::JoinPredicate()));
}

TEST(SemijoinInstanceTest, EmptyRelationRejected) {
  auto r = rel::Relation::Make("R", {"A"}, {});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  EXPECT_FALSE(SemijoinInstance::Build(*r, *p).ok());
}

}  // namespace
}  // namespace semi
}  // namespace jinfer
