#include "sim/raster.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "sim/dataset.h"
#include "sim/world.h"

namespace otif::sim {
namespace {

Clip MakeTestClip() {
  return SimulateClip(MakeDataset(DatasetId::kSynthetic), 7, 200);
}

TEST(RasterizerTest, RendersRequestedResolution) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  video::Image img = raster.Render(0, 80, 60);
  EXPECT_EQ(img.width(), 80);
  EXPECT_EQ(img.height(), 60);
  // Pixels clamped to [0, 1].
  for (int y = 0; y < 60; ++y) {
    for (int x = 0; x < 80; ++x) {
      EXPECT_GE(img.at(x, y), 0.0f);
      EXPECT_LE(img.at(x, y), 1.0f);
    }
  }
}

TEST(RasterizerTest, RenderIsDeterministic) {
  Clip clip = MakeTestClip();
  Rasterizer r1(&clip), r2(&clip);
  video::Image a = r1.Render(5, 80, 60);
  video::Image b = r2.Render(5, 80, 60);
  EXPECT_FLOAT_EQ(a.MeanAbsDiff(b), 0.0f);
}

TEST(RasterizerTest, ObjectsContrastWithBackground) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  // Find a frame with a reasonably large visible object.
  for (int f = 0; f < clip.num_frames(); ++f) {
    const auto& visible = clip.VisibleAt(f);
    if (visible.empty()) continue;
    const GtObject& obj = clip.objects()[visible[0].object_index];
    const ObjectFrameState& st = obj.states[visible[0].state_index];
    if (st.box.w < 15) continue;
    const int w = 160, h = 120;
    video::Image img = raster.Render(f, w, h);
    const video::Image& bg = raster.Background(w, h);
    const double sx = static_cast<double>(w) / clip.spec().width;
    const double sy = static_cast<double>(h) / clip.spec().height;
    // Mean absolute contrast over the object's box must be clear of the
    // sensor-noise floor so the proxy model has signal to learn from.
    const int x0 = std::max(0, static_cast<int>(st.box.Left() * sx));
    const int x1 = std::min(w - 1, static_cast<int>(st.box.Right() * sx));
    const int y0 = std::max(0, static_cast<int>(st.box.Top() * sy));
    const int y1 = std::min(h - 1, static_cast<int>(st.box.Bottom() * sy));
    if (x1 <= x0 || y1 <= y0) continue;
    double contrast = 0.0;
    int count = 0;
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        contrast += std::abs(img.at(x, y) - bg.at(x, y));
        ++count;
      }
    }
    EXPECT_GT(contrast / count, 0.06)
        << "object at frame " << f << " blends into the background";
    return;  // One good frame suffices.
  }
  FAIL() << "no frame with a large visible object";
}

TEST(RasterizerTest, FramesChangeOverTime) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  video::Image a = raster.Render(0, 80, 60);
  video::Image b = raster.Render(50, 80, 60);
  EXPECT_GT(a.MeanAbsDiff(b), 0.001f);
}

TEST(RasterizerTest, BackgroundIsCachedAndStable) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  const video::Image& bg1 = raster.Background(64, 48);
  const video::Image& bg2 = raster.Background(64, 48);
  EXPECT_EQ(&bg1, &bg2);
}

TEST(RasterizerTest, MovingCameraShiftsBackground) {
  DatasetSpec spec = MakeDataset(DatasetId::kUav);
  Clip clip = SimulateClip(spec, 43, 100);
  Rasterizer raster(&clip);
  // Two frames with different camera offsets should differ even without
  // objects accounting for most pixels.
  video::Image a = raster.Render(0, 96, 54);
  video::Image b = raster.Render(80, 96, 54);
  EXPECT_GT(a.MeanAbsDiff(b), 0.003f);
}

// FNV-1a64 over the dimensions and pixel bytes of an image.
uint64_t ImageDigest(const video::Image& img, uint64_t h) {
  const int dims[2] = {img.width(), img.height()};
  const auto hash = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  hash(dims, sizeof(dims));
  hash(img.data(), img.size() * sizeof(float));
  return h;
}

TEST(RasterizerTest, MovingCameraRenderMatchesGoldenDigest) {
  // A fixed reference across commits for the moving-camera path: frames
  // with different camera offsets (including a clamped edge shift), at two
  // resolutions, rendered into one reused buffer. Change the constant only
  // in a change meant to alter rendered pixels, and say why in CHANGES.md.
  constexpr uint64_t kGolden = 0x94689df5cab4bf2full;
  DatasetSpec spec = MakeDataset(DatasetId::kUav);
  Clip clip = SimulateClip(spec, 43, 100);
  Rasterizer raster(&clip);
  video::Image img;
  uint64_t h = 14695981039346656037ull;
  for (const int f : {0, 17, 50, 99}) {
    for (const auto& [w, hgt] : {std::pair{96, 54}, std::pair{40, 24}}) {
      raster.RenderInto(f, w, hgt, &img);
      h = ImageDigest(img, h);
    }
  }
  EXPECT_EQ(h, kGolden) << std::hex << h;
}

}  // namespace
}  // namespace otif::sim
