#include "sim/raster.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace otif::sim {
namespace {

// Deterministic per-pixel hash noise in [0, 1).
double HashNoise(uint64_t seed, int x, int y) {
  uint64_t h = seed;
  h ^= static_cast<uint64_t>(x + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(y + 1) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Object intensity: deterministic per object id, biased away from the
// mid-gray background so objects are learnable.
float ObjectIntensity(int64_t id) {
  const double u = HashNoise(0x51edULL, static_cast<int>(id), 17);
  // Half the objects dark (0.02..0.17), half bright (0.75..0.95).
  if (u < 0.5) return static_cast<float>(0.02 + 0.3 * u);
  return static_cast<float>(0.75 + 0.4 * (u - 0.5));
}

}  // namespace

Rasterizer::Rasterizer(const Clip* clip) : clip_(clip) {
  OTIF_CHECK(clip != nullptr);
}

video::Image Rasterizer::BuildBackground(int width, int height) const {
  const DatasetSpec& spec = clip_->spec();
  video::Image bg(width, height);
  const double amp = 0.08 * spec.background_complexity;
  const double kx = 2.0 * M_PI * 3.0 / width;
  const double ky = 2.0 * M_PI * 2.0 / height;
  for (int y = 0; y < height; ++y) {
    float* row = bg.row(y);
    for (int x = 0; x < width; ++x) {
      double v = 0.42 + amp * std::sin(kx * x + 0.7) * std::cos(ky * y) +
                 0.06 * spec.background_complexity *
                     (HashNoise(spec.seed, x, y) - 0.5);
      row[x] = static_cast<float>(v);
    }
  }
  // Darker road bands along each spawn path: union of discs along the path
  // forms a mask, darkened once (overlapping discs must not compound).
  const double sx = static_cast<double>(width) / spec.width;
  const double sy = static_cast<double>(height) / spec.height;
  std::vector<uint8_t> road_mask(static_cast<size_t>(width) * height, 0);
  for (const SpawnPath& path : spec.paths) {
    const double length = geom::PolylineLength(path.waypoints);
    if (length <= 0) continue;
    const int steps = std::max(8, static_cast<int>(length * sx / 2));
    for (int s = 0; s <= steps; ++s) {
      const double u = static_cast<double>(s) / steps;
      const geom::Point p = geom::PointAlong(path.waypoints, u);
      const double scale = path.scale_at_start +
                           u * (path.scale_at_end - path.scale_at_start);
      const double radius_out =
          std::max(1.0, path.size_mean_px * scale * 0.9 * sx);
      const int cx = static_cast<int>(p.x * sx);
      const int cy = static_cast<int>(p.y * sy);
      const int r = static_cast<int>(radius_out);
      for (int y = cy - r; y <= cy + r; ++y) {
        for (int x = cx - r; x <= cx + r; ++x) {
          if (!bg.InBounds(x, y)) continue;
          road_mask[static_cast<size_t>(y) * width + x] = 1;
        }
      }
    }
  }
  for (int y = 0; y < height; ++y) {
    float* row = bg.row(y);
    for (int x = 0; x < width; ++x) {
      if (road_mask[static_cast<size_t>(y) * width + x]) row[x] *= 0.78f;
    }
  }
  bg.Clamp();
  return bg;
}

const video::Image& Rasterizer::Background(int width, int height) {
  OTIF_CHECK_GT(width, 0);
  OTIF_CHECK_GT(height, 0);
  // Map entries are never erased, so the returned reference stays valid
  // after the lock drops even while other threads insert new resolutions.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = background_cache_.find({width, height});
  if (it == background_cache_.end()) {
    it = background_cache_
             .emplace(std::make_pair(width, height),
                      BuildBackground(width, height))
             .first;
  }
  return it->second;
}

video::Image Rasterizer::Render(int frame, int width, int height) {
  video::Image img;
  RenderInto(frame, width, height, &img);
  return img;
}

void Rasterizer::RenderInto(int frame, int width, int height,
                            video::Image* out) {
  const DatasetSpec& spec = clip_->spec();
  const video::Image& bg = Background(width, height);
  video::Image& img = *out;
  const double sx = static_cast<double>(width) / spec.width;
  const double sy = static_cast<double>(height) / spec.height;

  if (!spec.moving_camera) {
    // Copy-assignment reuses out's pixel buffer when the capacity fits.
    img = bg;
  } else {
    // Moving camera: shift the background sample position by the offset,
    // writing every pixel of `out` straight from the shifted samples.
    img.ResizeUninitialized(width, height);
    const geom::Point cam = clip_->CameraOffset(frame);
    const int dx = static_cast<int>(std::lround(cam.x * sx));
    const int dy = static_cast<int>(std::lround(cam.y * sy));
    for (int y = 0; y < height; ++y) {
      float* row = img.row(y);
      const int syy = std::clamp(y + dy, 0, height - 1);
      const float* brow = bg.row(syy);
      for (int x = 0; x < width; ++x) {
        row[x] = brow[std::clamp(x + dx, 0, width - 1)];
      }
    }
  }

  // Draw objects back-to-front by apparent size (small/far first).
  std::vector<VisibleObject> draw = clip_->VisibleAt(frame);
  std::sort(draw.begin(), draw.end(), [&](const VisibleObject& a,
                                          const VisibleObject& b) {
    const auto& sa =
        clip_->objects()[static_cast<size_t>(a.object_index)]
            .states[static_cast<size_t>(a.state_index)];
    const auto& sb =
        clip_->objects()[static_cast<size_t>(b.object_index)]
            .states[static_cast<size_t>(b.state_index)];
    return sa.box.Area() < sb.box.Area();
  });
  for (const VisibleObject& vis : draw) {
    const GtObject& obj =
        clip_->objects()[static_cast<size_t>(vis.object_index)];
    const ObjectFrameState& st =
        obj.states[static_cast<size_t>(vis.state_index)];
    const float base = ObjectIntensity(obj.id);
    const int x0 = std::max(0, static_cast<int>(st.box.Left() * sx));
    const int x1 =
        std::min(width - 1, static_cast<int>(st.box.Right() * sx));
    const int y0 = std::max(0, static_cast<int>(st.box.Top() * sy));
    const int y1 =
        std::min(height - 1, static_cast<int>(st.box.Bottom() * sy));
    for (int y = y0; y <= y1; ++y) {
      float* row = img.row(y);
      for (int x = x0; x <= x1; ++x) {
        // Simple shading: brighter toward the top of the box.
        const double fy = (y1 > y0)
                              ? static_cast<double>(y - y0) / (y1 - y0)
                              : 0.0;
        row[x] = base * static_cast<float>(1.0 - 0.25 * fy) +
                 0.02f * static_cast<float>(
                             HashNoise(obj.id + 77, x, y) - 0.5);
      }
    }
  }

  // Per-frame sensor noise, deterministic in (clip seed, frame).
  Rng noise_rng(clip_->clip_seed() * 1315423911ULL +
                static_cast<uint64_t>(frame));
  for (int y = 0; y < height; ++y) {
    float* row = img.row(y);
    for (int x = 0; x < width; ++x) {
      row[x] += static_cast<float>(noise_rng.Gaussian(0.0, 0.015));
    }
  }
  img.Clamp();
}

}  // namespace otif::sim
