#include "core/cell_grouping.h"

#include <gtest/gtest.h>

#include "nn/tensor.h"

namespace otif::core {
namespace {

models::DetectorArch TestArch() {
  models::DetectorArch arch;
  arch.name = "test";
  arch.sec_per_pixel = 1e-8;
  arch.sec_per_invocation = 1e-4;
  return arch;
}

CellGrid MakeGrid(int w, int h, std::vector<std::pair<int, int>> positives) {
  CellGrid grid;
  grid.grid_w = w;
  grid.grid_h = h;
  grid.positive.assign(static_cast<size_t>(w) * h, 0);
  for (auto [x, y] : positives) grid.set(x, y, true);
  return grid;
}

// Frame 640x360, 8x8 cells of 80x45 px; sizes: small 160x90, full frame.
std::vector<WindowSize> TestSizes() {
  return {{160, 90}, {320, 180}, {640, 360}};
}

TEST(CellGridTest, FromScoresThresholds) {
  nn::Tensor scores({2, 3});
  scores[0] = 0.9f;
  scores[1] = 0.4f;
  scores[5] = 0.6f;
  CellGrid grid = CellGrid::FromScores(scores.data(), 3, 2, 0.5);
  EXPECT_EQ(grid.grid_w, 3);
  EXPECT_EQ(grid.grid_h, 2);
  EXPECT_TRUE(grid.at(0, 0));
  EXPECT_FALSE(grid.at(1, 0));
  EXPECT_TRUE(grid.at(2, 1));
  EXPECT_EQ(grid.CountPositive(), 2);
}

TEST(GroupCellsTest, EmptyGridNoWindows) {
  CellGrid grid = MakeGrid(8, 8, {});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  EXPECT_TRUE(r.windows.empty());
  EXPECT_DOUBLE_EQ(r.est_seconds, 0.0);
}

TEST(GroupCellsTest, SingleCellUsesSmallestWindow) {
  CellGrid grid = MakeGrid(8, 8, {{1, 1}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.windows[0].size.w, 160);
  EXPECT_EQ(r.windows[0].size.h, 90);
  EXPECT_FALSE(r.full_frame);
  EXPECT_LT(r.est_seconds,
            models::DetectorWindowSeconds(TestArch(), 640, 360));
}

TEST(GroupCellsTest, TwoDistantClustersStaySeparate) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}, {7, 7}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  EXPECT_EQ(r.windows.size(), 2u);
  // Two small windows are cheaper than one full frame here.
  EXPECT_FALSE(r.full_frame);
}

TEST(GroupCellsTest, AdjacentCellsMergeIntoOneComponent) {
  CellGrid grid = MakeGrid(8, 8, {{2, 2}, {3, 2}, {2, 3}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  ASSERT_EQ(r.windows.size(), 1u);
}

TEST(GroupCellsTest, NearbyClustersMergeWhenCheaper) {
  // Two clusters 2 cells apart: one 320x180 window (cost ~0.00068) beats
  // two 160x90 windows (2 * 0.000244 = 0.000488)? No: two smalls are
  // cheaper, so they stay separate. Put them diagonal-adjacent so a single
  // small window covers both -> must merge.
  CellGrid grid = MakeGrid(8, 8, {{2, 2}, {3, 3}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  EXPECT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.windows[0].size.w, 160);
}

TEST(GroupCellsTest, DenseGridFallsBackToFullFrame) {
  std::vector<std::pair<int, int>> all;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) all.push_back({x, y});
  }
  CellGrid grid = MakeGrid(8, 8, all);
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_TRUE(r.full_frame);
  EXPECT_DOUBLE_EQ(
      r.est_seconds,
      models::DetectorWindowSeconds(TestArch(), 640, 360));
}

TEST(GroupCellsTest, WindowsCoverAllPositiveCells) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}, {1, 0}, {5, 2}, {6, 6}, {7, 6}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  const auto rects = WindowsToNativeRects(r, 640, 360, 8, 8, 1.0);
  for (int gy = 0; gy < 8; ++gy) {
    for (int gx = 0; gx < 8; ++gx) {
      if (!grid.at(gx, gy)) continue;
      const geom::Point center{(gx + 0.5) * 80.0, (gy + 0.5) * 45.0};
      bool covered = false;
      for (const geom::BBox& rect : rects) {
        if (rect.Contains(center)) covered = true;
      }
      EXPECT_TRUE(covered) << "cell (" << gx << "," << gy << ") uncovered";
    }
  }
}

TEST(GroupCellsTest, ScaledCoordinatesMapBack) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}});
  // Scaled frame at half resolution.
  std::vector<WindowSize> sizes = {{80, 45}, {320, 180}};
  GroupingResult r = GroupCells(grid, sizes, TestArch(), 320, 180);
  const auto rects = WindowsToNativeRects(r, 320, 180, 8, 8, 0.5);
  ASSERT_EQ(rects.size(), 1u);
  // Native rect should be 160x90 at the top-left.
  EXPECT_NEAR(rects[0].w, 160.0, 1.0);
  EXPECT_NEAR(rects[0].Left(), 0.0, 1.0);
}

TEST(GroupCellsDeathTest, MissingFullFrameSizeAborts) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}});
  std::vector<WindowSize> sizes = {{160, 90}};
  EXPECT_DEATH(GroupCells(grid, sizes, TestArch(), 640, 360),
               "full frame");
}

TEST(GroupCellsTest, EstNeverExceedsFullFrame) {
  // Property: est(R) <= full-frame cost for any cell pattern.
  const double full = models::DetectorWindowSeconds(TestArch(), 640, 360);
  for (int pattern = 1; pattern < 64; pattern += 7) {
    std::vector<std::pair<int, int>> cells;
    for (int b = 0; b < 6; ++b) {
      if (pattern & (1 << b)) cells.push_back({b, (b * 3) % 8});
    }
    CellGrid grid = MakeGrid(8, 8, cells);
    GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
    EXPECT_LE(r.est_seconds, full + 1e-12) << "pattern " << pattern;
  }
}

}  // namespace
}  // namespace otif::core
