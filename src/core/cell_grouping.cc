#include "core/cell_grouping.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace otif::core {
namespace {

struct Cluster {
  int x0, y0, x1, y1;  // Cell bounds, half-open.
  double cost = 0.0;
  WindowSize size;
  bool alive = true;
};

// Cheapest window size covering a (w_px x h_px) extent; falls back to the
// largest size (which must cover the full frame).
std::pair<double, WindowSize> CheapestCover(
    const std::vector<WindowSize>& sizes, const models::DetectorArch& arch,
    double w_px, double h_px) {
  double best_cost = std::numeric_limits<double>::infinity();
  WindowSize best = sizes.front();
  bool found = false;
  for (const WindowSize& s : sizes) {
    if (s.w + 1e-6 >= w_px && s.h + 1e-6 >= h_px) {
      const double cost = models::DetectorWindowSeconds(arch, s.w, s.h);
      if (cost < best_cost) {
        best_cost = cost;
        best = s;
        found = true;
      }
    }
  }
  if (!found) {
    // No single window covers this cluster; use the largest (full-frame)
    // size. Cost favors merging such clusters into one full-frame pass.
    const WindowSize& full = sizes.back();
    return {models::DetectorWindowSeconds(arch, full.w, full.h), full};
  }
  return {best_cost, best};
}

// W scaled to the detector resolution: windows shrink with the frame.
std::vector<WindowSize> ScaleSizes(std::vector<WindowSize> sizes,
                                   double scale) {
  for (WindowSize& s : sizes) {
    s = WindowSize{static_cast<int>(std::ceil(s.w * scale)),
                   static_cast<int>(std::ceil(s.h * scale))};
  }
  return sizes;
}

}  // namespace

CellGrid CellGrid::FromScores(const float* scores, int grid_w, int grid_h,
                              double threshold) {
  OTIF_CHECK(scores != nullptr);
  OTIF_CHECK_GT(grid_w, 0);
  OTIF_CHECK_GT(grid_h, 0);
  CellGrid grid;
  grid.grid_w = grid_w;
  grid.grid_h = grid_h;
  grid.positive.resize(static_cast<size_t>(grid_w) * grid_h);
  grid.Threshold(scores, threshold);
  return grid;
}

bool CellGrid::Threshold(const float* scores, double threshold) {
  uint8_t any = 0;
  for (size_t i = 0; i < positive.size(); ++i) {
    positive[i] = scores[i] >= threshold ? 1 : 0;
    any |= positive[i];
  }
  return any != 0;
}

OrderedWindowSizes::OrderedWindowSizes(std::vector<WindowSize> sizes)
    : sizes_(std::move(sizes)) {
  OTIF_CHECK(!sizes_.empty());
  std::sort(sizes_.begin(), sizes_.end(),
            [](const WindowSize& a, const WindowSize& b) {
              return static_cast<int64_t>(a.w) * a.h <
                     static_cast<int64_t>(b.w) * b.h;
            });
}

GroupingResult GroupCells(const CellGrid& grid,
                          const OrderedWindowSizes& sizes,
                          const models::DetectorArch& arch, double frame_w,
                          double frame_h) {
  OTIF_CHECK_GT(grid.grid_w, 0);
  OTIF_CHECK_GT(grid.grid_h, 0);
  // The last (largest) size must cover the whole frame.
  const std::vector<WindowSize>& ordered = sizes.sizes();
  OTIF_CHECK_GE(ordered.back().w + 1e-6, frame_w)
      << "window size set must include the full frame";
  OTIF_CHECK_GE(ordered.back().h + 1e-6, frame_h);

  GroupingResult result;
  const double cell_w = frame_w / grid.grid_w;
  const double cell_h = frame_h / grid.grid_h;
  const double full_cost = models::DetectorWindowSeconds(
      arch, ordered.back().w, ordered.back().h);

  // 1. Connected components (4-connectivity) as initial clusters.
  std::vector<int> label(
      static_cast<size_t>(grid.grid_w) * grid.grid_h, -1);
  std::vector<Cluster> clusters;
  std::vector<std::pair<int, int>> frontier;  // Reused by every component.
  for (int gy = 0; gy < grid.grid_h; ++gy) {
    for (int gx = 0; gx < grid.grid_w; ++gx) {
      if (!grid.at(gx, gy) ||
          label[static_cast<size_t>(gy) * grid.grid_w + gx] != -1) {
        continue;
      }
      const int id = static_cast<int>(clusters.size());
      Cluster c{gx, gy, gx + 1, gy + 1, 0.0, ordered.front(), true};
      frontier.assign(1, {gx, gy});
      label[static_cast<size_t>(gy) * grid.grid_w + gx] = id;
      while (!frontier.empty()) {
        auto [cx, cy] = frontier.back();
        frontier.pop_back();
        c.x0 = std::min(c.x0, cx);
        c.y0 = std::min(c.y0, cy);
        c.x1 = std::max(c.x1, cx + 1);
        c.y1 = std::max(c.y1, cy + 1);
        const int dx[4] = {1, -1, 0, 0};
        const int dy[4] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const int nx = cx + dx[k], ny = cy + dy[k];
          if (nx < 0 || ny < 0 || nx >= grid.grid_w || ny >= grid.grid_h) {
            continue;
          }
          if (!grid.at(nx, ny) ||
              label[static_cast<size_t>(ny) * grid.grid_w + nx] != -1) {
            continue;
          }
          label[static_cast<size_t>(ny) * grid.grid_w + nx] = id;
          frontier.push_back({nx, ny});
        }
      }
      auto [cost, size] = CheapestCover(ordered, arch, (c.x1 - c.x0) * cell_w,
                                        (c.y1 - c.y0) * cell_h);
      c.cost = cost;
      c.size = size;
      clusters.push_back(c);
    }
  }

  if (clusters.empty()) return result;

  // 2. Greedy agglomerative merging while est(R) decreases.
  bool improved = true;
  while (improved) {
    improved = false;
    double best_gain = 1e-12;
    int best_a = -1, best_b = -1;
    double merged_cost = 0.0;
    WindowSize merged_size;
    for (size_t a = 0; a < clusters.size(); ++a) {
      if (!clusters[a].alive) continue;
      for (size_t b = a + 1; b < clusters.size(); ++b) {
        if (!clusters[b].alive) continue;
        const int x0 = std::min(clusters[a].x0, clusters[b].x0);
        const int y0 = std::min(clusters[a].y0, clusters[b].y0);
        const int x1 = std::max(clusters[a].x1, clusters[b].x1);
        const int y1 = std::max(clusters[a].y1, clusters[b].y1);
        auto [cost, size] = CheapestCover(ordered, arch, (x1 - x0) * cell_w,
                                          (y1 - y0) * cell_h);
        const double gain = clusters[a].cost + clusters[b].cost - cost;
        if (gain > best_gain) {
          best_gain = gain;
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
          merged_cost = cost;
          merged_size = size;
        }
      }
    }
    if (best_a >= 0) {
      Cluster& a = clusters[static_cast<size_t>(best_a)];
      Cluster& b = clusters[static_cast<size_t>(best_b)];
      a.x0 = std::min(a.x0, b.x0);
      a.y0 = std::min(a.y0, b.y0);
      a.x1 = std::max(a.x1, b.x1);
      a.y1 = std::max(a.y1, b.y1);
      a.cost = merged_cost;
      a.size = merged_size;
      b.alive = false;
      improved = true;
    }
  }

  // 3. Emit windows; fall back to one full-frame window when cheaper.
  double est = 0.0;
  for (const Cluster& c : clusters) {
    if (c.alive) est += c.cost;
  }
  if (est >= full_cost) {
    result.windows.push_back(
        PlacedWindow{0, 0, grid.grid_w, grid.grid_h, ordered.back()});
    result.est_seconds = full_cost;
    return result;
  }
  for (const Cluster& c : clusters) {
    if (c.alive) {
      result.windows.push_back(PlacedWindow{c.x0, c.y0, c.x1, c.y1, c.size});
    }
  }
  result.est_seconds = est;
  return result;
}

WindowPlanner::WindowPlanner(const std::vector<WindowSize>& native_sizes,
                             const models::DetectorArch& arch, int frame_w,
                             int frame_h, double scale, int grid_w,
                             int grid_h)
    : arch_(arch),
      sizes_(ScaleSizes(native_sizes, scale)),
      frame_w_(frame_w * scale),
      frame_h_(frame_h * scale),
      scale_(scale) {
  OTIF_CHECK_GT(scale, 0.0);
  OTIF_CHECK(grid_w > 0 && grid_h > 0);
  grid_.grid_w = grid_w;
  grid_.grid_h = grid_h;
  grid_.positive.resize(static_cast<size_t>(grid_w) * grid_h);
}

bool WindowPlanner::Plan(const float* scores, double threshold,
                         WindowPlan* plan) {
  plan->sizes.clear();
  plan->rects.clear();
  plan->est_seconds = 0.0;
  if (!grid_.Threshold(scores, threshold)) return false;

  OTIF_SPAN("proxy/group_cells");
  const GroupingResult grouping =
      GroupCells(grid_, sizes_, arch_, frame_w_, frame_h_);
  plan->est_seconds = grouping.est_seconds;
  const double cell_w = frame_w_ / grid_.grid_w;
  const double cell_h = frame_h_ / grid_.grid_h;
  for (const PlacedWindow& w : grouping.windows) {
    plan->sizes.push_back(w.size);
    // Anchor the window at the covered cells' top-left, clamped inside the
    // frame, then map the scaled-frame rect to native coordinates.
    const double ww = std::min<double>(w.size.w, frame_w_);
    const double wh = std::min<double>(w.size.h, frame_h_);
    const double x0 = std::clamp(w.cell_x0 * cell_w, 0.0, frame_w_ - ww);
    const double y0 = std::clamp(w.cell_y0 * cell_h, 0.0, frame_h_ - wh);
    plan->rects.push_back(geom::BBox::FromCorners(
        x0 / scale_, y0 / scale_, (x0 + ww) / scale_, (y0 + wh) / scale_));
  }
  return true;
}

}  // namespace otif::core
