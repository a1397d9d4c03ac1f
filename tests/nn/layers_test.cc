#include "nn/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace otif::nn {
namespace {

// Numerical gradient of a scalar function with respect to one tensor entry.
double NumericalGrad(const std::function<double()>& f, float* x,
                     double eps = 1e-3) {
  const float orig = *x;
  *x = orig + static_cast<float>(eps);
  const double hi = f();
  *x = orig - static_cast<float>(eps);
  const double lo = f();
  *x = orig;
  return (hi - lo) / (2 * eps);
}

// Scalar loss used for gradient checking: 0.5 * sum(out^2); dL/dout = out.
double HalfSumSquares(const Tensor& t) {
  double s = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) s += 0.5 * t[i] * t[i];
  return s;
}

Tensor RandomTensor(std::vector<int> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

// Checks the input gradient of a layer against finite differences.
void CheckInputGradient(Layer* layer, Tensor input, double tol = 2e-2) {
  Tensor out = layer->Forward(input);
  Tensor grad = layer->Backward(out);  // dL/dout = out for HalfSumSquares.
  auto loss = [&]() {
    Tensor o = layer->Forward(input);
    layer->ClearCache();
    return HalfSumSquares(o);
  };
  // Check a sample of entries.
  const int64_t step = std::max<int64_t>(1, input.size() / 24);
  for (int64_t i = 0; i < input.size(); i += step) {
    const double num = NumericalGrad(loss, &input[i]);
    EXPECT_NEAR(grad[i], num, tol) << "input grad mismatch at " << i;
  }
}

// Checks the parameter gradients of a layer against finite differences.
void CheckParameterGradients(Layer* layer, const Tensor& input,
                             double tol = 2e-2) {
  std::vector<Parameter*> params;
  layer->CollectParameters(&params);
  ASSERT_FALSE(params.empty());
  for (Parameter* p : params) p->ZeroGrad();
  Tensor out = layer->Forward(input);
  layer->Backward(out);
  auto loss = [&]() {
    Tensor o = layer->Forward(input);
    layer->ClearCache();
    return HalfSumSquares(o);
  };
  for (Parameter* p : params) {
    const int64_t step = std::max<int64_t>(1, p->value.size() / 16);
    for (int64_t i = 0; i < p->value.size(); i += step) {
      const double num = NumericalGrad(loss, &p->value[i]);
      EXPECT_NEAR(p->grad[i], num, tol)
          << "param grad mismatch at " << i;
    }
  }
}

TEST(StableSigmoidTest, MatchesDefinitionAndIsStable) {
  EXPECT_NEAR(StableSigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(StableSigmoid(2.0f), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  EXPECT_NEAR(StableSigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(StableSigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(StableSigmoid(-1000.0f)));
}

TEST(TensorTest, ShapeAndAccess) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.ndim(), 3);
  t.at3(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(t.at3(1, 2, 3), 7.0f);
  EXPECT_FLOAT_EQ(t[23], 7.0f);
}

TEST(TensorTest, AddAndScale) {
  Tensor a({3});
  Tensor b({3});
  a[0] = 1;
  b[0] = 2;
  a.Add(b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
}

TEST(TensorTest, RandomHeStatistics) {
  Rng rng(1);
  Tensor t = Tensor::RandomHe({64, 64}, 64, &rng);
  double mean = 0, sq = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    mean += t[i];
    sq += t[i] * t[i];
  }
  mean /= t.size();
  sq /= t.size();
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sq), std::sqrt(2.0 / 64), 0.02);
}

TEST(LinearTest, ForwardComputesAffine) {
  Rng rng(2);
  Linear lin(2, 1, &rng);
  std::vector<Parameter*> params;
  lin.CollectParameters(&params);
  params[0]->value[0] = 2.0f;  // w00
  params[0]->value[1] = 3.0f;  // w01
  params[1]->value[0] = 1.0f;  // b0
  Tensor x({2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  Tensor y = lin.Forward(x);
  lin.ClearCache();
  EXPECT_FLOAT_EQ(y[0], 2.0f - 3.0f + 1.0f);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(3);
  Linear lin(5, 4, &rng);
  CheckInputGradient(&lin, RandomTensor({5}, &rng));
  CheckParameterGradients(&lin, RandomTensor({5}, &rng));
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 2, &rng);
  Tensor in({2, 9, 11});
  Tensor out = conv.Forward(in);
  conv.ClearCache();
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_EQ(out.dim(1), 5);   // ceil(9/2)
  EXPECT_EQ(out.dim(2), 6);   // ceil(11/2)
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, &rng);
  std::vector<Parameter*> params;
  conv.CollectParameters(&params);
  params[0]->value.Fill(0.0f);
  params[0]->value[4] = 1.0f;  // Center tap of the 3x3 kernel.
  params[1]->value.Fill(0.0f);
  Tensor in = RandomTensor({1, 6, 7}, &rng);
  Tensor out = conv.Forward(in);
  conv.ClearCache();
  for (int64_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-6f);
  }
}

TEST(Conv2dTest, GradientCheckStride1) {
  Rng rng(6);
  Conv2d conv(2, 2, 3, 1, &rng);
  CheckInputGradient(&conv, RandomTensor({2, 5, 6}, &rng));
  CheckParameterGradients(&conv, RandomTensor({2, 5, 6}, &rng));
}

TEST(Conv2dTest, GradientCheckStride2) {
  Rng rng(7);
  Conv2d conv(1, 2, 3, 2, &rng);
  CheckInputGradient(&conv, RandomTensor({1, 7, 7}, &rng));
  CheckParameterGradients(&conv, RandomTensor({1, 7, 7}, &rng));
}

TEST(ActivationTest, ReluForwardBackward) {
  Relu relu;
  Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -3;
  Tensor y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  Tensor g({4});
  g.Fill(1.0f);
  Tensor gx = relu.Backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0);
  EXPECT_FLOAT_EQ(gx[2], 1);
}

TEST(ActivationTest, SigmoidGradientCheck) {
  Rng rng(8);
  Sigmoid sig;
  CheckInputGradient(&sig, RandomTensor({6}, &rng), 1e-2);
}

TEST(ActivationTest, TanhGradientCheck) {
  Rng rng(9);
  Tanh tanh_layer;
  CheckInputGradient(&tanh_layer, RandomTensor({6}, &rng), 1e-2);
}

TEST(SequentialTest, ComposesLayersAndGradients) {
  Rng rng(10);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 8, &rng));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<Linear>(8, 3, &rng));
  EXPECT_EQ(seq.num_layers(), 3u);
  CheckInputGradient(&seq, RandomTensor({4}, &rng));
  CheckParameterGradients(&seq, RandomTensor({4}, &rng));
}

TEST(LayerCacheTest, RepeatedForwardBackwardLifo) {
  // Weight sharing: two forwards, then two backwards in reverse order must
  // produce per-call input gradients.
  Rng rng(11);
  Linear lin(3, 3, &rng);
  Tensor a = RandomTensor({3}, &rng);
  Tensor b = RandomTensor({3}, &rng);
  Tensor out_a = lin.Forward(a);
  Tensor out_b = lin.Forward(b);
  Tensor gb = lin.Backward(out_b);  // Pops b's cache.
  Tensor ga = lin.Backward(out_a);  // Pops a's cache.
  // With symmetric loss, grads should differ because inputs differ.
  bool differ = false;
  for (int i = 0; i < 3; ++i) {
    if (std::abs(ga[i] - gb[i]) > 1e-7) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(GruCellTest, StepShapesAndRange) {
  Rng rng(12);
  GruCell gru(3, 5, &rng);
  Tensor x = RandomTensor({3}, &rng);
  Tensor h = Tensor::Zeros({5});
  Tensor h1 = gru.Step(x, h);
  gru.ClearCache();
  EXPECT_EQ(h1.size(), 5);
  for (int64_t i = 0; i < h1.size(); ++i) {
    EXPECT_GE(h1[i], -1.0f);
    EXPECT_LE(h1[i], 1.0f);
  }
}

TEST(GruCellTest, GradientCheckSingleStep) {
  Rng rng(13);
  GruCell gru(3, 4, &rng);
  Tensor x = RandomTensor({3}, &rng);
  Tensor h = RandomTensor({4}, &rng);
  h.Scale(0.5f);

  std::vector<Parameter*> params;
  gru.CollectParameters(&params);
  EXPECT_EQ(params.size(), 9u);
  for (Parameter* p : params) p->ZeroGrad();

  Tensor h_new = gru.Step(x, h);
  auto [gx, gh] = gru.StepBackward(h_new);  // dL/dh_new = h_new.

  auto loss = [&]() {
    Tensor out = gru.Step(x, h);
    gru.ClearCache();
    return HalfSumSquares(out);
  };
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(gx[i], NumericalGrad(loss, &x[i]), 2e-2) << "x[" << i << "]";
  }
  for (int64_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(gh[i], NumericalGrad(loss, &h[i]), 2e-2) << "h[" << i << "]";
  }
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    const int64_t step = std::max<int64_t>(1, p->value.size() / 8);
    for (int64_t i = 0; i < p->value.size(); i += step) {
      EXPECT_NEAR(p->grad[i], NumericalGrad(loss, &p->value[i]), 2e-2)
          << "param " << pi << "[" << i << "]";
    }
  }
}

TEST(GruCellTest, GradientCheckThroughTime) {
  // Two chained steps: backprop through time must route gradients through
  // the hidden state.
  Rng rng(14);
  GruCell gru(2, 3, &rng);
  Tensor x1 = RandomTensor({2}, &rng);
  Tensor x2 = RandomTensor({2}, &rng);
  Tensor h0 = Tensor::Zeros({3});

  Tensor h1 = gru.Step(x1, h0);
  Tensor h2 = gru.Step(x2, h1);
  auto [gx2, gh1] = gru.StepBackward(h2);
  // Add nothing else to gh1: the loss depends on h2 only.
  auto [gx1, gh0] = gru.StepBackward(gh1);

  auto loss = [&]() {
    Tensor a = gru.Step(x1, h0);
    Tensor b = gru.Step(x2, a);
    gru.ClearCache();
    return HalfSumSquares(b);
  };
  for (int64_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(gx1[i], NumericalGrad(loss, &x1[i]), 2e-2) << "x1[" << i << "]";
  }
  for (int64_t i = 0; i < x2.size(); ++i) {
    EXPECT_NEAR(gx2[i], NumericalGrad(loss, &x2[i]), 2e-2) << "x2[" << i << "]";
  }
}

TEST(BceWithLogitsTest, LossAndGradient) {
  Tensor logits({2});
  logits[0] = 0.0f;
  logits[1] = 2.0f;
  Tensor targets({2});
  targets[0] = 1.0f;
  targets[1] = 0.0f;
  Tensor grad;
  const double loss = BceWithLogits(logits, targets, nullptr, &grad);
  // Element 0: -log(sigmoid(0)) = log 2. Element 1: -log(1-sigmoid(2)).
  const double expect0 = std::log(2.0);
  const double expect1 = -std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(loss, (expect0 + expect1) / 2, 1e-6);
  EXPECT_NEAR(grad[0], (0.5 - 1.0) / 2, 1e-6);
  EXPECT_NEAR(grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2, 1e-6);
}

TEST(BceWithLogitsTest, MaskRestrictsElements) {
  Tensor logits({2});
  logits[0] = 5.0f;
  logits[1] = 0.0f;
  Tensor targets({2});
  targets[0] = 0.0f;
  targets[1] = 1.0f;
  Tensor mask({2});
  mask[0] = 0.0f;
  mask[1] = 1.0f;
  Tensor grad;
  const double loss = BceWithLogits(logits, targets, &mask, &grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(BceWithLogitsTest, EmptyMaskGivesZeroLoss) {
  Tensor logits({2});
  Tensor targets({2});
  Tensor mask({2});  // All zero.
  Tensor grad;
  EXPECT_DOUBLE_EQ(BceWithLogits(logits, targets, &mask, &grad), 0.0);
}

TEST(Conv2dTest, GemmInferMatchesReferenceBitForBit) {
  // The im2col+GEMM engine must reproduce the naive reference loops exactly
  // (one ascending-k accumulator chain per output; see gemm.h), across
  // strides, channel counts, kernel sizes, and odd spatial dims that
  // exercise every tile-edge case.
  Rng rng(11);
  struct Case {
    int in_c, out_c, kernel, stride, h, w;
  };
  const Case cases[] = {
      {1, 8, 3, 2, 64, 104}, {8, 16, 3, 2, 32, 52}, {16, 16, 3, 2, 16, 26},
      {16, 1, 3, 1, 8, 13},  {3, 5, 5, 1, 9, 7},    {2, 4, 3, 3, 10, 11},
      {1, 1, 1, 1, 4, 4},    {4, 3, 3, 2, 5, 5},
  };
  for (const Case& c : cases) {
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &rng);
    const Tensor input = RandomTensor({c.in_c, c.h, c.w}, &rng);
    const Tensor want = conv.InferReference(input);
    const Tensor got = conv.Infer(input);
    ASSERT_EQ(want.shape(), got.shape());
    for (int64_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i])
          << "ic=" << c.in_c << " oc=" << c.out_c << " k=" << c.kernel
          << " s=" << c.stride << " at " << i;
    }
  }
}

TEST(Conv2dTest, BatchedInferMatchesPerSampleExactly) {
  Rng rng(12);
  Conv2d conv(3, 6, 3, 2, &rng);
  const int nb = 4, h = 11, w = 13;
  Tensor batch({nb, 3, h, w});
  std::vector<Tensor> singles;
  for (int b = 0; b < nb; ++b) {
    Tensor one = RandomTensor({3, h, w}, &rng);
    std::copy(one.data(), one.data() + one.size(),
              batch.data() + static_cast<int64_t>(b) * one.size());
    singles.push_back(std::move(one));
  }
  const Tensor out = conv.Infer(batch);
  ASSERT_EQ(out.ndim(), 4);
  ASSERT_EQ(out.dim(0), nb);
  for (int b = 0; b < nb; ++b) {
    const Tensor want = conv.Infer(singles[static_cast<size_t>(b)]);
    const float* got = out.data() + static_cast<int64_t>(b) * want.size();
    for (int64_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "sample " << b << " at " << i;
    }
  }
}

TEST(Conv2dTest, ForwardMatchesReferenceBitForBit) {
  // Training's Forward runs the GEMM engine; it must equal the naive
  // reference loops exactly for every stride, kernel size and channel
  // count, including odd frames and frames smaller than the kernel.
  Rng rng(13);
  const int channel_pairs[][2] = {{1, 8}, {3, 5}, {8, 16}, {16, 1}};
  const int frames[][2] = {{7, 9}, {13, 11}, {2, 3}, {5, 1}, {3, 2}};
  for (const int stride : {1, 2}) {
    for (const int kernel : {1, 3, 5}) {
      for (const auto& ch : channel_pairs) {
        for (const auto& hw : frames) {
          Conv2d conv(ch[0], ch[1], kernel, stride, &rng);
          const Tensor input = RandomTensor({ch[0], hw[0], hw[1]}, &rng);
          const Tensor want = conv.InferReference(input);
          const Tensor got = conv.Forward(input);
          conv.ClearCache();
          ASSERT_EQ(want.shape(), got.shape());
          for (int64_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(want[i], got[i])
                << "ic=" << ch[0] << " oc=" << ch[1] << " k=" << kernel
                << " s=" << stride << " h=" << hw[0] << " w=" << hw[1]
                << " at " << i;
          }
        }
      }
    }
  }
}

// The naive conv backward loops: the oracle Conv2d::Backward must reproduce
// bit for bit. Accumulates into `grad_w` / `grad_b`; returns dL/dinput.
Tensor ReferenceConvBackward(const Tensor& input, const Tensor& weight,
                             int kernel, int stride, const Tensor& grad_output,
                             Tensor* grad_w, Tensor* grad_b) {
  const int in_c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const int out_c = grad_output.dim(0);
  const int oh = grad_output.dim(1), ow = grad_output.dim(2);
  const int pad = kernel / 2;
  Tensor grad_in({in_c, h, w});
  float* gw = grad_w->data();
  const float* wdata = weight.data();
  for (int oc = 0; oc < out_c; ++oc) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float go = grad_output.at3(oc, oy, ox);
        if (go == 0.0f) continue;
        (*grad_b)[oc] += go;
        const int iy0 = oy * stride - pad;
        const int ix0 = ox * stride - pad;
        for (int ic = 0; ic < in_c; ++ic) {
          const size_t wbase =
              (static_cast<size_t>(oc) * in_c + ic) * kernel * kernel;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            const int kx_lo = std::max(0, -ix0);
            const int kx_hi = std::min(kernel, w - ix0);
            const float* in_row =
                input.data() + (static_cast<size_t>(ic) * h + iy) * w + ix0;
            float* gin_row =
                grad_in.data() + (static_cast<size_t>(ic) * h + iy) * w + ix0;
            const size_t wrow = wbase + static_cast<size_t>(ky) * kernel;
            for (int kx = kx_lo; kx < kx_hi; ++kx) {
              gw[wrow + kx] += go * in_row[kx];
              gin_row[kx] += go * wdata[wrow + kx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

// An upstream gradient as a ReLU would pass it back: random where the
// unit was active, exactly zero elsewhere.
Tensor PostReluGrad(std::vector<int> shape, Rng* rng) {
  Tensor g = RandomTensor(std::move(shape), rng);
  for (int64_t i = 0; i < g.size(); ++i) {
    if (rng->Uniform(0.0, 1.0) < 0.4) g[i] = 0.0f;
  }
  return g;
}

void ExpectBitIdentical(const Tensor& want, const Tensor& got,
                        const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " at " << i;
  }
}

TEST(Conv2dTest, BackwardMatchesReferenceLoopsBitForBit) {
  // Two Forward/Backward pairs (LIFO) per layer, so the second backward
  // accumulates onto nonzero weight and bias gradients, with upstream
  // gradients that hold exact zeros.
  Rng rng(15);
  struct Case {
    int in_c, out_c, kernel, stride, h, w;
  };
  const Case cases[] = {
      {1, 8, 3, 2, 64, 104}, {8, 16, 3, 2, 32, 52}, {16, 16, 3, 2, 16, 26},
      {16, 1, 3, 1, 8, 13},  {3, 5, 5, 1, 9, 7},    {2, 4, 5, 2, 11, 13},
      {4, 3, 1, 2, 7, 9},    {2, 3, 3, 3, 10, 11},  {3, 2, 5, 2, 2, 3},
      {5, 17, 3, 1, 7, 21},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "ic=" << c.in_c << " oc=" << c.out_c << " k=" << c.kernel
                 << " s=" << c.stride << " h=" << c.h << " w=" << c.w);
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &rng);
    std::vector<Parameter*> params;
    conv.CollectParameters(&params);
    for (int64_t i = 0; i < params[1]->value.size(); ++i) {
      params[1]->value[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    Tensor want_gw(params[0]->value.shape());
    Tensor want_gb(params[1]->value.shape());
    const Tensor a = RandomTensor({c.in_c, c.h, c.w}, &rng);
    const Tensor b = RandomTensor({c.in_c, c.h, c.w}, &rng);
    const Tensor out_a = conv.Forward(a);
    const Tensor out_b = conv.Forward(b);
    const Tensor grad_b = PostReluGrad(out_b.shape(), &rng);
    const Tensor grad_a = PostReluGrad(out_a.shape(), &rng);

    const Tensor got_b = conv.Backward(grad_b);
    const Tensor want_b =
        ReferenceConvBackward(b, params[0]->value, c.kernel, c.stride, grad_b,
                              &want_gw, &want_gb);
    ExpectBitIdentical(want_b, got_b, "grad_in (first backward)");
    ExpectBitIdentical(want_gw, params[0]->grad, "weight grad (first)");
    ExpectBitIdentical(want_gb, params[1]->grad, "bias grad (first)");

    const Tensor got_a = conv.Backward(grad_a);
    const Tensor want_a =
        ReferenceConvBackward(a, params[0]->value, c.kernel, c.stride, grad_a,
                              &want_gw, &want_gb);
    ExpectBitIdentical(want_a, got_a, "grad_in (second backward)");
    ExpectBitIdentical(want_gw, params[0]->grad, "weight grad (second)");
    ExpectBitIdentical(want_gb, params[1]->grad, "bias grad (second)");
  }
}

TEST(LinearTest, BatchedInferMatchesPerRowExactly) {
  Rng rng(14);
  const int in = 37, out = 19, nb = 5;
  Linear linear(in, out, &rng);
  Tensor batch({nb, in});
  std::vector<Tensor> rows;
  for (int b = 0; b < nb; ++b) {
    Tensor row = RandomTensor({in}, &rng);
    std::copy(row.data(), row.data() + in,
              batch.data() + static_cast<int64_t>(b) * in);
    rows.push_back(std::move(row));
  }
  const Tensor got = linear.Infer(batch);
  ASSERT_EQ(got.ndim(), 2);
  ASSERT_EQ(got.dim(0), nb);
  ASSERT_EQ(got.dim(1), out);
  for (int b = 0; b < nb; ++b) {
    const Tensor want = linear.Infer(rows[static_cast<size_t>(b)]);
    for (int o = 0; o < out; ++o) {
      ASSERT_EQ(want[o], got[static_cast<int64_t>(b) * out + o])
          << "row " << b << " out " << o;
    }
  }
}

TEST(MseLossTest, LossAndGradient) {
  Tensor pred({2});
  pred[0] = 1.0f;
  pred[1] = 3.0f;
  Tensor target({2});
  target[0] = 0.0f;
  target[1] = 3.0f;
  Tensor grad;
  const double loss = MseLoss(pred, target, &grad);
  EXPECT_NEAR(loss, 0.25, 1e-6);  // (0.5*1 + 0) / 2.
  EXPECT_NEAR(grad[0], 0.5f, 1e-6);
  EXPECT_NEAR(grad[1], 0.0f, 1e-6);
}

}  // namespace
}  // namespace otif::nn
