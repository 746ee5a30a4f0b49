#include "core/supervision.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "constraints/folds.h"
#include "constraints/oracle.h"
#include "data/generators.h"
#include "data/iris.h"

namespace cvcp {
namespace {

Dataset TinyData() {
  Matrix points = Matrix::FromRows({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}});
  return Dataset("tiny", std::move(points), {0, 0, 1, 1, 0});
}

TEST(SupervisionTest, FromLabelsDerivesAllPairs) {
  Dataset data = TinyData();
  Supervision s = Supervision::FromLabels(data, {0, 2, 4});
  EXPECT_EQ(s.kind(), SupervisionKind::kLabels);
  EXPECT_EQ(s.involved_objects(), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(s.constraints().size(), 3u);
  EXPECT_EQ(s.constraints().Lookup(0, 4), ConstraintType::kMustLink);
  EXPECT_EQ(s.constraints().Lookup(0, 2), ConstraintType::kCannotLink);
  EXPECT_EQ(s.constraints().Lookup(2, 4), ConstraintType::kCannotLink);
}

TEST(SupervisionTest, FromLabelsSparseArray) {
  Dataset data = TinyData();
  Supervision s = Supervision::FromLabels(data, {1, 3});
  ASSERT_EQ(s.sparse_labels().size(), 5u);
  EXPECT_EQ(s.sparse_labels()[1], 0);
  EXPECT_EQ(s.sparse_labels()[3], 1);
  EXPECT_EQ(s.sparse_labels()[0], -1);
  EXPECT_EQ(s.sparse_labels()[2], -1);
}

TEST(SupervisionTest, FromLabelArray) {
  Supervision s = Supervision::FromLabelArray({-1, 0, -1, 0, 1});
  EXPECT_EQ(s.kind(), SupervisionKind::kLabels);
  EXPECT_EQ(s.involved_objects(), (std::vector<size_t>{1, 3, 4}));
  EXPECT_EQ(s.constraints().Lookup(1, 3), ConstraintType::kMustLink);
  EXPECT_EQ(s.constraints().Lookup(1, 4), ConstraintType::kCannotLink);
}

TEST(SupervisionTest, FromConstraints) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(1, 4).ok());
  ASSERT_TRUE(cs.AddCannotLink(2, 4).ok());
  Supervision s = Supervision::FromConstraints(cs);
  EXPECT_EQ(s.kind(), SupervisionKind::kConstraints);
  EXPECT_EQ(s.involved_objects(), (std::vector<size_t>{1, 2, 4}));
  EXPECT_TRUE(s.sparse_labels().empty());
  EXPECT_EQ(s.constraints().size(), 2u);
}

TEST(SupervisionTest, InvolvementMask) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.AddMustLink(0, 3).ok());
  Supervision s = Supervision::FromConstraints(cs);
  EXPECT_EQ(s.InvolvementMask(5),
            (std::vector<bool>{true, false, false, true, false}));
}

TEST(SupervisionTest, UnsortedLabeledObjectsAreSorted) {
  Dataset data = TinyData();
  Supervision s = Supervision::FromLabels(data, {4, 0, 2});
  EXPECT_EQ(s.involved_objects(), (std::vector<size_t>{0, 2, 4}));
}

TEST(SupervisionTest, RepeatedLabeledObjectCountsOnce) {
  Supervision s = Supervision::FromLabels(MakeIris(), {4, 1, 4});
  EXPECT_EQ(s.involved_objects(), (std::vector<size_t>{1, 4}));
  ASSERT_EQ(s.constraints().size(), 1u);
  EXPECT_EQ(s.constraints().Lookup(1, 4), ConstraintType::kMustLink);
}

// Cross-validation builds each label fold's training supervision from the
// fold itself; it must equal the one derived from the fold's label array,
// constraint order included (FOSC and MPCK read constraints in order).
TEST(SupervisionTest, FromLabelFoldMatchesFromLabelArray) {
  const Dataset data = MakeIris();
  for (uint64_t seed : {1, 2, 3, 4}) {
    for (bool stratified : {false, true}) {
      Rng rng(seed);
      auto labeled = SampleLabeledObjects(data, 0.3, &rng);
      ASSERT_TRUE(labeled.ok());
      const Supervision full = Supervision::FromLabels(data, *labeled);
      FoldConfig config;
      config.n_folds = 5;
      config.stratified = stratified;
      auto folds = MakeLabelFolds(full.involved_objects(),
                                  full.sparse_labels(), data.size(), config,
                                  &rng);
      ASSERT_TRUE(folds.ok());
      for (const FoldSplit& fold : *folds) {
        const Supervision built = Supervision::FromLabelFold(fold);
        const Supervision derived =
            Supervision::FromLabelArray(fold.train_labels);
        EXPECT_EQ(built.kind(), derived.kind());
        EXPECT_TRUE(std::ranges::equal(built.constraints().all(),
                                       derived.constraints().all()))
            << "seed " << seed << ", stratified " << stratified;
        EXPECT_EQ(built.sparse_labels(), derived.sparse_labels());
        EXPECT_EQ(built.involved_objects(), derived.involved_objects());
      }
    }
  }
}

}  // namespace
}  // namespace cvcp
