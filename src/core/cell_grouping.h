#ifndef OTIF_CORE_CELL_GROUPING_H_
#define OTIF_CORE_CELL_GROUPING_H_

#include <vector>

#include "geom/geometry.h"
#include "models/detector.h"

namespace otif::core {

/// A candidate detector window size (in detector-input pixels).
struct WindowSize {
  int w = 0;
  int h = 0;
  bool operator==(const WindowSize& o) const { return w == o.w && h == o.h; }
};

/// Binary grid of positive proxy cells (row-major, grid_h x grid_w).
struct CellGrid {
  int grid_w = 0;
  int grid_h = 0;
  std::vector<uint8_t> positive;

  /// Thresholds a row-major (grid_h, grid_w) plane of cell scores: a cell
  /// is positive when its score is >= `threshold`.
  static CellGrid FromScores(const float* scores, int grid_w, int grid_h,
                             double threshold);

  /// Re-thresholds this grid in place from a plane of its shape, by the
  /// same rule as FromScores, reusing `positive`. Returns whether any cell
  /// is positive.
  bool Threshold(const float* scores, double threshold);

  bool at(int gx, int gy) const {
    return positive[static_cast<size_t>(gy) * grid_w + gx] != 0;
  }
  void set(int gx, int gy, bool v) {
    positive[static_cast<size_t>(gy) * grid_w + gx] = v ? 1 : 0;
  }
};

/// A chosen rectangle: placement in cell coordinates plus the window size
/// (in scaled-frame pixels) that the detector will execute.
struct PlacedWindow {
  /// Covered cell range [cell_x0, cell_x1) x [cell_y0, cell_y1).
  int cell_x0 = 0, cell_y0 = 0, cell_x1 = 0, cell_y1 = 0;
  WindowSize size;
};

/// Result of grouping cells into windows for one frame.
struct GroupingResult {
  std::vector<PlacedWindow> windows;
  /// Estimated detector execution time est(R) over the windows, seconds.
  double est_seconds = 0.0;
};

/// The size set W in the order GroupCells needs: ascending area, so the
/// last entry is the largest (full-frame) size. Build it once per size set
/// and reuse it for every frame. Sizes of equal area keep the order
/// std::sort gives them, which depends only on the input order, so one set
/// always orders the same way.
class OrderedWindowSizes {
 public:
  explicit OrderedWindowSizes(std::vector<WindowSize> sizes);

  const std::vector<WindowSize>& sizes() const { return sizes_; }

 private:
  std::vector<WindowSize> sizes_;
};

/// Groups positive cells into rectangular windows drawn from the fixed size
/// set W (paper Sec 3.3 "Grouping Cells during Execution"): connected
/// components are clusters; clusters merge greedily while the merge lowers
/// est(R) = sum of window execution times; the result falls back to the
/// full frame when that is cheaper. `frame_w`/`frame_h` are the scaled
/// detector-input dimensions of the whole frame; each cell covers
/// (frame_w / grid_w) x (frame_h / grid_h) pixels.
///
/// `sizes` must contain the full-frame size (w >= frame_w, h >= frame_h) so
/// the full-frame fallback is always available.
GroupingResult GroupCells(const CellGrid& grid,
                          const OrderedWindowSizes& sizes,
                          const models::DetectorArch& arch, double frame_w,
                          double frame_h);

/// One frame's detector windows, as WindowPlanner::Plan places them.
struct WindowPlan {
  /// Detector-resolution window sizes, drawn from the scaled set W.
  std::vector<WindowSize> sizes;
  /// The same windows as native-coordinate rectangles, in the same order.
  std::vector<geom::BBox> rects;
  /// Estimated detector execution time est(R) over the windows, seconds.
  double est_seconds = 0.0;
};

/// The proxy module's window rule (paper Sec 3.3), shared by ProxyStage,
/// the tuner and the benches: threshold a frame's cell scores and cover the
/// positive cells with windows from W at the detector's resolution. W is
/// scaled (ceil(s * scale)) and ordered once per planner, and the cell grid
/// is reused across frames, so a planner serves one thread.
class WindowPlanner {
 public:
  /// `native_sizes` is W in native pixels, including the full-frame size;
  /// `frame_w` x `frame_h` is the native frame size. The arch is copied.
  WindowPlanner(const std::vector<WindowSize>& native_sizes,
                const models::DetectorArch& arch, int frame_w, int frame_h,
                double scale, int grid_w, int grid_h);

  /// Plans the windows of one frame from its row-major (grid_h, grid_w)
  /// plane of cell scores; a cell is positive when its score is >=
  /// `threshold`. Returns false, leaving `plan` empty, when no cell is
  /// positive: the detector can skip the frame.
  bool Plan(const float* scores, double threshold, WindowPlan* plan);

 private:
  models::DetectorArch arch_;
  OrderedWindowSizes sizes_;
  double frame_w_;  // Detector-resolution frame size.
  double frame_h_;
  double scale_;
  CellGrid grid_;
};

}  // namespace otif::core

#endif  // OTIF_CORE_CELL_GROUPING_H_
