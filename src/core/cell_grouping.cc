#include "core/cell_grouping.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

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

}  // namespace

CellGrid CellGrid::FromScores(const float* scores, int grid_w, int grid_h,
                              double threshold) {
  OTIF_CHECK(scores != nullptr);
  OTIF_CHECK_GT(grid_w, 0);
  OTIF_CHECK_GT(grid_h, 0);
  CellGrid grid;
  grid.grid_w = grid_w;
  grid.grid_h = grid_h;
  const size_t cells = static_cast<size_t>(grid_w) * grid_h;
  grid.positive.resize(cells);
  for (size_t i = 0; i < cells; ++i) {
    grid.positive[i] = scores[i] >= threshold ? 1 : 0;
  }
  return grid;
}

int CellGrid::CountPositive() const {
  int count = 0;
  for (uint8_t v : positive) count += v;
  return count;
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
                          const std::vector<WindowSize>& sizes,
                          const models::DetectorArch& arch, double frame_w,
                          double frame_h) {
  return GroupCells(grid, OrderedWindowSizes(sizes), arch, frame_w, frame_h);
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

  if (clusters.empty()) {
    result.est_seconds = 0.0;
    return result;
  }

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
    PlacedWindow w;
    w.cell_x0 = 0;
    w.cell_y0 = 0;
    w.cell_x1 = grid.grid_w;
    w.cell_y1 = grid.grid_h;
    w.size = ordered.back();
    result.windows.push_back(w);
    result.est_seconds = full_cost;
    result.full_frame = true;
    return result;
  }
  for (const Cluster& c : clusters) {
    if (!c.alive) continue;
    PlacedWindow w;
    w.cell_x0 = c.x0;
    w.cell_y0 = c.y0;
    w.cell_x1 = c.x1;
    w.cell_y1 = c.y1;
    w.size = c.size;
    result.windows.push_back(w);
  }
  result.est_seconds = est;
  return result;
}

std::vector<geom::BBox> WindowsToNativeRects(
    const GroupingResult& grouping, double frame_w, double frame_h,
    int grid_w, int grid_h, double scale) {
  OTIF_CHECK_GT(scale, 0.0);
  std::vector<geom::BBox> rects;
  const double cell_w = frame_w / grid_w;
  const double cell_h = frame_h / grid_h;
  for (const PlacedWindow& w : grouping.windows) {
    // Anchor the window at the covered cells' top-left, clamped so it stays
    // inside the frame.
    double x0 = w.cell_x0 * cell_w;
    double y0 = w.cell_y0 * cell_h;
    const double ww = std::min<double>(w.size.w, frame_w);
    const double wh = std::min<double>(w.size.h, frame_h);
    x0 = std::clamp(x0, 0.0, frame_w - ww);
    y0 = std::clamp(y0, 0.0, frame_h - wh);
    // Scaled-frame rect -> native coordinates.
    rects.push_back(geom::BBox::FromCorners(x0 / scale, y0 / scale,
                                            (x0 + ww) / scale,
                                            (y0 + wh) / scale));
  }
  return rects;
}

}  // namespace otif::core
