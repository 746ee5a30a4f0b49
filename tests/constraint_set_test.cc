#include "constraints/constraint_set.h"

#include <gtest/gtest.h>

namespace cvcp {
namespace {

TEST(ConstraintSetTest, AddAndCounts) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(0, 3).ok());
  EXPECT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.num_must_links(), 1u);
  EXPECT_EQ(cs.num_cannot_links(), 2u);
  EXPECT_FALSE(cs.empty());
}

TEST(ConstraintSetTest, NormalizesEndpointOrder) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(7, 2).ok());
  const Constraint& c = cs.all()[0];
  EXPECT_EQ(c.a, 2u);
  EXPECT_EQ(c.b, 7u);
  EXPECT_EQ(cs.Lookup(7, 2), ConstraintType::kMustLink);
  EXPECT_EQ(cs.Lookup(2, 7), ConstraintType::kMustLink);
}

TEST(ConstraintSetTest, DuplicateIsNoOp) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(1, 0).ok());
  EXPECT_EQ(cs.size(), 1u);
}

TEST(ConstraintSetTest, ConflictingTypeErrors) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  const Status s = cs.AddCannotLink(0, 1);
  EXPECT_EQ(s.code(), StatusCode::kInconsistentConstraints);
  EXPECT_EQ(cs.size(), 1u);  // unchanged
}

TEST(ConstraintSetTest, SelfPairRejected) {
  ConstraintSet cs;
  EXPECT_EQ(cs.AddMustLink(3, 3).code(), StatusCode::kInvalidArgument);
}

TEST(ConstraintSetTest, LookupMissing) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  EXPECT_FALSE(cs.Lookup(0, 2).has_value());
  EXPECT_FALSE(cs.Lookup(5, 5).has_value());
}

TEST(ConstraintSetTest, InvolvedObjectsSortedUnique) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(9, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(2, 5).ok());
  EXPECT_EQ(cs.InvolvedObjects(), (std::vector<size_t>{2, 5, 9}));
}

TEST(ConstraintSetTest, InvolvementMask) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddCannotLink(1, 3).ok());
  std::vector<bool> mask = cs.InvolvementMask(5);
  EXPECT_EQ(mask, (std::vector<bool>{false, true, false, true, false}));
}

// Regression: InvolvementMask must validate both endpoints before indexing.
// The seed only checked c.b, so an undersized mask was written out of
// bounds through c.a.
TEST(ConstraintSetDeathTest, InvolvementMaskRejectsLowEndpointBeyondN) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddCannotLink(6, 8).ok());  // both endpoints beyond n=2
  EXPECT_DEATH(cs.InvolvementMask(2), "c\\.a");
}

TEST(ConstraintSetDeathTest, InvolvementMaskRejectsHighEndpointBeyondN) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddCannotLink(1, 8).ok());  // only c.b beyond n=4
  EXPECT_DEATH(cs.InvolvementMask(4), "c\\.b");
}

TEST(ConstraintSetTest, RestrictedToKeepsFullyInternalPairs) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(3, 4).ok());
  std::vector<size_t> keep = {0, 1, 4};
  ConstraintSet r = cs.RestrictedTo(keep);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Lookup(0, 1), ConstraintType::kMustLink);
  EXPECT_FALSE(r.Lookup(1, 2).has_value());
  EXPECT_FALSE(r.Lookup(3, 4).has_value());
}

TEST(ConstraintSetTest, RestrictedToIgnoresObjectsBeyondAnyConstraint) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  // Object ids beyond every constrained id must be harmless, not an
  // out-of-bounds write into the keep array.
  std::vector<size_t> keep = {0, 1, 100};
  ConstraintSet r = cs.RestrictedTo(keep);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Lookup(0, 1), ConstraintType::kMustLink);
}

TEST(ConstraintSetTest, FromLabelsAllPairs) {
  // labels: 0->A, 1->A, 2->B.
  std::vector<int> labels = {0, 0, 1};
  std::vector<size_t> objects = {0, 1, 2};
  ConstraintSet cs = ConstraintSet::FromLabels(labels, objects);
  EXPECT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.Lookup(0, 1), ConstraintType::kMustLink);
  EXPECT_EQ(cs.Lookup(0, 2), ConstraintType::kCannotLink);
  EXPECT_EQ(cs.Lookup(1, 2), ConstraintType::kCannotLink);
}

TEST(ConstraintSetTest, FromLabelsSubsetOnly) {
  std::vector<int> labels = {0, 1, 0, 1};
  std::vector<size_t> objects = {0, 2};  // both class 0
  ConstraintSet cs = ConstraintSet::FromLabels(labels, objects);
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs.num_must_links(), 1u);
}

TEST(ConstraintSetTest, ToStringForms) {
  EXPECT_EQ(ConstraintToString({1, 2, ConstraintType::kMustLink}), "ML(1,2)");
  EXPECT_EQ(ConstraintToString({0, 9, ConstraintType::kCannotLink}),
            "CL(0,9)");
}

}  // namespace
}  // namespace cvcp
