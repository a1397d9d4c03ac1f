#include "core/cell_grouping.h"

#include <gtest/gtest.h>

#include <algorithm>

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
std::vector<WindowSize> TestW() { return {{160, 90}, {320, 180}, {640, 360}}; }
OrderedWindowSizes TestSizes() { return OrderedWindowSizes(TestW()); }

// A row-major 8x8 score plane: 1 at `positives`, 0 elsewhere.
std::vector<float> MakeScores(std::vector<std::pair<int, int>> positives) {
  std::vector<float> scores(64, 0.0f);
  for (auto [x, y] : positives) scores[static_cast<size_t>(y) * 8 + x] = 1.0f;
  return scores;
}

// Whether the window is the full-frame fallback: the full-frame size over
// every cell.
bool IsFullFrame(const PlacedWindow& w) {
  return w.size == WindowSize{640, 360} && w.cell_x0 == 0 &&
         w.cell_y0 == 0 && w.cell_x1 == 8 && w.cell_y1 == 8;
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
  EXPECT_EQ(std::count(grid.positive.begin(), grid.positive.end(), 1), 2);
  // Re-thresholding in place reports whether any cell is positive.
  EXPECT_TRUE(grid.Threshold(scores.data(), 0.5));
  EXPECT_FALSE(grid.Threshold(scores.data(), 0.95));
  EXPECT_EQ(std::count(grid.positive.begin(), grid.positive.end(), 1), 0);
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
  EXPECT_EQ(r.windows[0].cell_x0, 1);
  EXPECT_EQ(r.windows[0].cell_y0, 1);
  EXPECT_EQ(r.windows[0].cell_x1, 2);
  EXPECT_EQ(r.windows[0].cell_y1, 2);
  EXPECT_LT(r.est_seconds,
            models::DetectorWindowSeconds(TestArch(), 640, 360));
}

TEST(GroupCellsTest, TwoDistantClustersStaySeparate) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}, {7, 7}});
  GroupingResult r = GroupCells(grid, TestSizes(), TestArch(), 640, 360);
  ASSERT_EQ(r.windows.size(), 2u);
  // Two small windows are cheaper than one full frame here.
  for (const PlacedWindow& w : r.windows) {
    EXPECT_EQ(w.size, (WindowSize{160, 90}));
    EXPECT_EQ(w.cell_x1 - w.cell_x0, 1);
    EXPECT_EQ(w.cell_y1 - w.cell_y0, 1);
  }
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
  EXPECT_TRUE(IsFullFrame(r.windows[0]));
  EXPECT_DOUBLE_EQ(
      r.est_seconds,
      models::DetectorWindowSeconds(TestArch(), 640, 360));
}

TEST(GroupCellsTest, WindowsCoverAllPositiveCells) {
  const std::vector<std::pair<int, int>> cells = {
      {0, 0}, {1, 0}, {5, 2}, {6, 6}, {7, 6}};
  WindowPlanner planner(TestW(), TestArch(), 640, 360, 1.0, 8, 8);
  WindowPlan plan;
  ASSERT_TRUE(planner.Plan(MakeScores(cells).data(), 0.5, &plan));
  ASSERT_EQ(plan.rects.size(), plan.sizes.size());
  // The plan prices the windows exactly as GroupCells groups them.
  const GroupingResult r =
      GroupCells(MakeGrid(8, 8, cells), TestSizes(), TestArch(), 640, 360);
  EXPECT_EQ(plan.est_seconds, r.est_seconds);
  ASSERT_EQ(plan.sizes.size(), r.windows.size());
  for (const auto& [gx, gy] : cells) {
    const geom::Point center{(gx + 0.5) * 80.0, (gy + 0.5) * 45.0};
    bool covered = false;
    for (const geom::BBox& rect : plan.rects) {
      if (rect.Contains(center)) covered = true;
    }
    EXPECT_TRUE(covered) << "cell (" << gx << "," << gy << ") uncovered";
  }
}

TEST(GroupCellsTest, ScaledCoordinatesMapBack) {
  // Detector at half resolution: W scales to {80x45, 320x180} over a
  // 320x180 frame, and the rects map back to native coordinates.
  WindowPlanner planner({{160, 90}, {640, 360}}, TestArch(), 640, 360, 0.5,
                        8, 8);
  WindowPlan plan;
  ASSERT_TRUE(planner.Plan(MakeScores({{0, 0}}).data(), 0.5, &plan));
  ASSERT_EQ(plan.rects.size(), 1u);
  EXPECT_EQ(plan.sizes[0], (WindowSize{80, 45}));
  // Native rect should be 160x90 at the top-left.
  EXPECT_NEAR(plan.rects[0].w, 160.0, 1.0);
  EXPECT_NEAR(plan.rects[0].Left(), 0.0, 1.0);
}

TEST(WindowPlannerTest, EmptyFrameAfterNonEmptyLeavesEmptyPlan) {
  // The planner reuses its grid and the caller reuses its plan; an empty
  // frame must clear both rather than keep the previous frame's windows.
  WindowPlanner planner(TestW(), TestArch(), 640, 360, 1.0, 8, 8);
  WindowPlan plan;
  ASSERT_TRUE(planner.Plan(MakeScores({{2, 2}, {6, 5}}).data(), 0.5, &plan));
  ASSERT_FALSE(plan.rects.empty());
  EXPECT_FALSE(planner.Plan(MakeScores({}).data(), 0.5, &plan));
  EXPECT_TRUE(plan.sizes.empty());
  EXPECT_TRUE(plan.rects.empty());
  EXPECT_EQ(plan.est_seconds, 0.0);
  // Below-threshold scores are empty too.
  std::vector<float> faint(64, 0.4f);
  EXPECT_FALSE(planner.Plan(faint.data(), 0.5, &plan));
  EXPECT_TRUE(plan.rects.empty());
}

TEST(WindowPlannerTest, OwnsItsArchitecture) {
  // One planner is built from a temporary arch, which dies before the first
  // Plan (ASan reports a planner that kept a reference). The other is built
  // from an arch that then changes so one invocation costs a second and
  // pixels are free: a planner that kept a reference would now find one
  // full-frame window cheapest.
  WindowPlanner from_temporary(TestW(), models::DetectorArch(TestArch()),
                               640, 360, 1.0, 8, 8);
  models::DetectorArch arch = TestArch();
  WindowPlanner from_changed(TestW(), arch, 640, 360, 1.0, 8, 8);
  arch.sec_per_invocation = 1.0;
  arch.sec_per_pixel = 0.0;
  for (WindowPlanner* planner : {&from_temporary, &from_changed}) {
    WindowPlan plan;
    ASSERT_TRUE(planner->Plan(MakeScores({{1, 1}}).data(), 0.5, &plan));
    ASSERT_EQ(plan.sizes.size(), 1u);
    EXPECT_EQ(plan.sizes[0], (WindowSize{160, 90}));
    EXPECT_DOUBLE_EQ(plan.est_seconds,
                     models::DetectorWindowSeconds(TestArch(), 160, 90));
  }
}

TEST(GroupCellsDeathTest, MissingFullFrameSizeAborts) {
  CellGrid grid = MakeGrid(8, 8, {{0, 0}});
  const OrderedWindowSizes sizes({{160, 90}});
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
