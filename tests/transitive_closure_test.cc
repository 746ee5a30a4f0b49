#include "constraints/transitive_closure.h"

#include <gtest/gtest.h>

namespace cvcp {
namespace {

// The paper's Figure 2: ML(A,B), ML(C,D), CL(B,C) induce CL(A,C), CL(A,D),
// CL(B,D). Objects: A=0, B=1, C=2, D=3.
TEST(TransitiveClosureTest, PaperFigure2Example) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(2, 3).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());

  auto closure = TransitiveClosure(cs);
  ASSERT_TRUE(closure.ok());
  // 2 must-links + all 4 cross cannot-links.
  EXPECT_EQ(closure->num_must_links(), 2u);
  EXPECT_EQ(closure->num_cannot_links(), 4u);
  EXPECT_EQ(closure->Lookup(0, 2), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(0, 3), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(1, 3), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(1, 2), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(0, 1), ConstraintType::kMustLink);
  EXPECT_EQ(closure->Lookup(2, 3), ConstraintType::kMustLink);
}

// The paper's counter-example: CL(A,B), CL(C,D), ML(B,C) induce CL(A,C) and
// CL(B,D) but say nothing about (A,D).
TEST(TransitiveClosureTest, PaperFigure2OppositeExample) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddCannotLink(0, 1).ok());
  ASSERT_TRUE(cs.AddCannotLink(2, 3).ok());
  ASSERT_TRUE(cs.AddMustLink(1, 2).ok());

  auto closure = TransitiveClosure(cs);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->Lookup(0, 2), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(1, 3), ConstraintType::kCannotLink);
  EXPECT_EQ(closure->Lookup(1, 2), ConstraintType::kMustLink);
  // (A,D) must remain unknown.
  EXPECT_FALSE(closure->Lookup(0, 3).has_value());
}

TEST(TransitiveClosureTest, MustLinkChainCollapses) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(1, 2).ok());
  ASSERT_TRUE(cs.AddMustLink(2, 3).ok());
  auto closure = TransitiveClosure(cs);
  ASSERT_TRUE(closure.ok());
  // 4 objects in one component => C(4,2) = 6 must-links.
  EXPECT_EQ(closure->num_must_links(), 6u);
  EXPECT_EQ(closure->Lookup(0, 3), ConstraintType::kMustLink);
}

TEST(TransitiveClosureTest, InconsistencyDetected) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(1, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(0, 2).ok());  // contradicts the ML chain
  auto closure = TransitiveClosure(cs);
  EXPECT_FALSE(closure.ok());
  EXPECT_EQ(closure.status().code(), StatusCode::kInconsistentConstraints);
  EXPECT_FALSE(BuildConstraintComponents(cs).ok());
}

TEST(TransitiveClosureTest, ConsistentInputReported) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());
  EXPECT_TRUE(BuildConstraintComponents(cs).ok());
}

TEST(TransitiveClosureTest, EmptySetClosesToEmpty) {
  auto closure = TransitiveClosure(ConstraintSet{});
  ASSERT_TRUE(closure.ok());
  EXPECT_TRUE(closure->empty());
}

TEST(TransitiveClosureTest, ClosureContainsInput) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(4, 7).ok());
  ASSERT_TRUE(cs.AddCannotLink(7, 9).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 4).ok());
  auto closure = TransitiveClosure(cs);
  ASSERT_TRUE(closure.ok());
  for (const Constraint& c : cs.all()) {
    EXPECT_EQ(closure->Lookup(c.a, c.b), c.type)
        << ConstraintToString(c);
  }
}

TEST(TransitiveClosureTest, ClosureIsIdempotent) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(2, 3).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());
  ASSERT_TRUE(cs.AddMustLink(5, 6).ok());
  auto once = TransitiveClosure(cs);
  ASSERT_TRUE(once.ok());
  auto twice = TransitiveClosure(once.value());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->size(), twice->size());
  for (const Constraint& c : once->all()) {
    EXPECT_EQ(twice->Lookup(c.a, c.b), c.type);
  }
}

TEST(BuildConstraintComponentsTest, ComponentStructure) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(2, 3).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(0, 5).ok());  // 5 is a CL-only singleton

  auto comps = BuildConstraintComponents(cs);
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(comps->components.size(), 3u);  // {0,1}, {2,3}, {5}
  EXPECT_EQ(comps->involved_objects, (std::vector<size_t>{0, 1, 2, 3, 5}));
  EXPECT_EQ(comps->cannot_edges.size(), 2u);
}

TEST(BuildConstraintComponentsTest, DedupesComponentLevelCannotEdges) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 1).ok());
  ASSERT_TRUE(cs.AddMustLink(2, 3).ok());
  // Two CL edges between the same pair of components.
  ASSERT_TRUE(cs.AddCannotLink(0, 2).ok());
  ASSERT_TRUE(cs.AddCannotLink(1, 3).ok());
  auto comps = BuildConstraintComponents(cs);
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(comps->cannot_edges.size(), 1u);
}

}  // namespace
}  // namespace cvcp
