// Integration test: the Section-1.1 matrix driver reproduces the paper's
// table end to end.
#include <gtest/gtest.h>

#include "core/locald.h"

namespace locald::core {
namespace {

TEST(Matrix, ReproducesPaperTable) {
  const auto results = evaluate_separation_matrix(/*seed=*/42);
  ASSERT_EQ(results.size(), 4u);
  // (B, C), (B, ¬C), (¬B, C): separated; (¬B, ¬C): equal.
  EXPECT_EQ(results[0].quadrant, "(B, C)");
  EXPECT_TRUE(results[0].separated);
  EXPECT_EQ(results[1].quadrant, "(B, ¬C)");
  EXPECT_TRUE(results[1].separated);
  EXPECT_EQ(results[2].quadrant, "(¬B, C)");
  EXPECT_TRUE(results[2].separated);
  EXPECT_EQ(results[3].quadrant, "(¬B, ¬C)");
  EXPECT_TRUE(results[3].equal);
  EXPECT_FALSE(results[3].separated);
}

TEST(Matrix, UmbrellaHeaderExposesAllModules) {
  // Spot-check a symbol from each module through the umbrella include.
  EXPECT_EQ(graph::make_cycle(5).node_count(), 5);
  EXPECT_EQ(tm::halt_after(2, 0).state_count(), 4);
  trees::TreeParams p;
  EXPECT_GT(p.capital_R(), 0);
  EXPECT_GT(halting::corollary1_failure_bound(100.0), 0.0);
}

}  // namespace
}  // namespace locald::core
