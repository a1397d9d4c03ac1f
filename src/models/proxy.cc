#include "models/proxy.h"

#include <algorithm>
#include <memory>

#include "mem/view.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::models {

std::vector<ProxyResolution> StandardProxyResolutions() {
  return {{416, 256}, {352, 224}, {288, 160}, {224, 128}, {160, 96}};
}

ProxyModel::ProxyModel(ProxyResolution resolution, uint64_t seed)
    : resolution_(resolution) {
  OTIF_CHECK_EQ(resolution_.world_w % 32, 0);
  OTIF_CHECK_EQ(resolution_.world_h % 32, 0);
  Rng rng(seed);
  net_.Add(std::make_unique<nn::Conv2d>(1, 8, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(8, 16, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(16, 16, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(16, 1, 3, 1, &rng));
  net_.CollectParameters(&params_);
  nn::Adam::Options opts;
  opts.learning_rate = 2e-3;
  optimizer_ = std::make_unique<nn::Adam>(params_, opts);
}

std::vector<const nn::Tensor*> ProxyModel::ParameterValues() const {
  std::vector<const nn::Tensor*> values;
  for (const nn::Parameter* p : params_) values.push_back(&p->value);
  return values;
}

void ProxyModel::FillInputSlice(const video::Image& frame, nn::Tensor* batch,
                                int b) const {
  OTIF_CHECK(batch != nullptr);
  const int rh = resolution_.raster_h(), rw = resolution_.raster_w();
  const int nd = batch->ndim();
  OTIF_CHECK(nd == 3 || nd == 4) << "batch must be (1,H,W) or (N,1,H,W)";
  OTIF_CHECK_EQ(batch->dim(nd - 2), rh);
  OTIF_CHECK_EQ(batch->dim(nd - 1), rw);
  OTIF_CHECK(b >= 0 && b < (nd == 4 ? batch->dim(0) : 1)) << b;
  OTIF_CHECK(!frame.empty());
  const size_t plane = static_cast<size_t>(rh) * rw;
  float* dst = batch->data() + static_cast<size_t>(b) * plane;
  if (frame.width() == rw && frame.height() == rh) {
    // Already at raster size: stream pixels straight into the slice,
    // centering around zero for conditioning. No copy, no temporary.
    const float* src = frame.data();
    for (size_t i = 0; i < plane; ++i) dst[i] = src[i] - 0.5f;
  } else {
    // Resize directly into the slice, then center in place. Same float op
    // order as resize-then-subtract through a temporary image.
    frame.ResizedInto(mem::ImageView{dst, rw, rh, rw});
    for (size_t i = 0; i < plane; ++i) dst[i] -= 0.5f;
  }
}

nn::Tensor ProxyModel::ImageToTensor(const video::Image& frame) const {
  nn::Tensor t = nn::Tensor::Uninitialized(
      {1, resolution_.raster_h(), resolution_.raster_w()});
  FillInputSlice(frame, &t, 0);
  return t;
}

nn::Tensor ProxyModel::ForwardLogits(const video::Image& frame) {
  nn::Tensor logits = net_.Forward(ImageToTensor(frame));
  OTIF_CHECK_EQ(logits.dim(0), 1);
  OTIF_CHECK_EQ(logits.dim(1), resolution_.grid_h());
  OTIF_CHECK_EQ(logits.dim(2), resolution_.grid_w());
  return logits;
}

nn::Tensor ProxyModel::Score(const video::Image& frame) const {
  nn::Tensor logits = net_.Infer(ImageToTensor(frame));
  OTIF_CHECK_EQ(logits.dim(0), 1);
  OTIF_CHECK_EQ(logits.dim(1), resolution_.grid_h());
  OTIF_CHECK_EQ(logits.dim(2), resolution_.grid_w());
  nn::Tensor probs({resolution_.grid_h(), resolution_.grid_w()});
  for (int64_t i = 0; i < probs.size(); ++i) {
    probs[i] = nn::StableSigmoid(logits[i]);
  }
  return probs;
}

std::vector<nn::Tensor> ProxyModel::ScoreBatch(
    const std::vector<const video::Image*>& frames) const {
  std::vector<nn::Tensor> out;
  out.reserve(frames.size());
  if (frames.empty()) return out;
  const int rh = resolution_.raster_h(), rw = resolution_.raster_w();
  const int nb = static_cast<int>(frames.size());
  // Each frame stages directly into its batch slice — no per-frame tensor,
  // no copy; the batch buffer itself comes from the shared pool.
  nn::Tensor batch = nn::Tensor::Uninitialized({nb, 1, rh, rw});
  for (int b = 0; b < nb; ++b) {
    OTIF_CHECK(frames[b] != nullptr);
    FillInputSlice(*frames[b], &batch, b);
  }
  nn::Tensor logits = net_.Infer(batch);
  OTIF_CHECK_EQ(logits.ndim(), 4);
  OTIF_CHECK_EQ(logits.dim(0), nb);
  OTIF_CHECK_EQ(logits.dim(1), 1);
  OTIF_CHECK_EQ(logits.dim(2), resolution_.grid_h());
  OTIF_CHECK_EQ(logits.dim(3), resolution_.grid_w());
  const size_t cells = static_cast<size_t>(resolution_.grid_h()) *
                       resolution_.grid_w();
  for (int b = 0; b < nb; ++b) {
    nn::Tensor probs({resolution_.grid_h(), resolution_.grid_w()});
    const float* src = logits.data() + b * cells;
    for (size_t i = 0; i < cells; ++i) {
      probs[static_cast<int64_t>(i)] = nn::StableSigmoid(src[i]);
    }
    out.push_back(std::move(probs));
  }
  return out;
}

double ProxyModel::TrainStep(const video::Image& frame,
                             const nn::Tensor& labels) {
  OTIF_CHECK_EQ(labels.dim(0), resolution_.grid_h());
  OTIF_CHECK_EQ(labels.dim(1), resolution_.grid_w());
  nn::Tensor logits = ForwardLogits(frame);
  // Reshape labels to the logits' (1, H, W) shape for the loss.
  nn::Tensor target({1, resolution_.grid_h(), resolution_.grid_w()});
  for (int64_t i = 0; i < labels.size(); ++i) target[i] = labels[i];
  nn::Tensor grad;
  const double loss = nn::BceWithLogits(logits, target, nullptr, &grad);
  net_.Backward(grad);
  optimizer_->Step();
  return loss;
}

geom::BBox ProxyModel::CellRect(int gx, int gy, double frame_w,
                                double frame_h) const {
  const double cell_w = frame_w / resolution_.grid_w();
  const double cell_h = frame_h / resolution_.grid_h();
  return geom::BBox::FromCorners(gx * cell_w, gy * cell_h, (gx + 1) * cell_w,
                                 (gy + 1) * cell_h);
}

nn::Tensor ProxyModel::MakeLabels(const track::FrameDetections& detections,
                                  double frame_w, double frame_h) const {
  nn::Tensor labels({resolution_.grid_h(), resolution_.grid_w()});
  for (int gy = 0; gy < resolution_.grid_h(); ++gy) {
    for (int gx = 0; gx < resolution_.grid_w(); ++gx) {
      const geom::BBox cell = CellRect(gx, gy, frame_w, frame_h);
      for (const track::Detection& d : detections) {
        if (cell.Intersects(d.box)) {
          labels[static_cast<int64_t>(gy) * resolution_.grid_w() + gx] = 1.0f;
          break;
        }
      }
    }
  }
  return labels;
}

double TrainProxyModel(ProxyModel* model,
                       const std::function<ProxySample()>& sampler,
                       int steps) {
  OTIF_CHECK_GT(steps, 0);
  double tail_loss = 0.0;
  int tail_count = 0;
  const int tail_start = steps - steps / 4;
  for (int step = 0; step < steps; ++step) {
    const ProxySample sample = sampler();
    const double loss = model->TrainStep(sample.frame, sample.labels);
    if (step >= tail_start) {
      tail_loss += loss;
      ++tail_count;
    }
  }
  return tail_count > 0 ? tail_loss / tail_count : 0.0;
}

}  // namespace otif::models
