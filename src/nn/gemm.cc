#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

#include "nn/arena.h"

namespace otif::nn {
namespace {

// Register-blocking factors. kMr rows of A are streamed against kNr-wide
// column strips of B; the kMr x kNr accumulator block lives in registers
// and the kNr-wide inner loops auto-vectorize (no reduction across lanes,
// so vectorization cannot reorder the per-output k chain).
constexpr int kMr = 4;
constexpr int kNr = 16;

// Column blocking: B strips of this many columns stay resident in L1/L2
// while every row of A streams over them.
constexpr int kNc = 512;

// Full kMr x kNr register tile over the complete k range.
inline void MicroKernel(int k, int n, const float* a0, const float* a1,
                        const float* a2, const float* a3, const float* b,
                        float init0, float init1, float init2, float init3,
                        float* c0, float* c1, float* c2, float* c3) {
  float acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
  for (int j = 0; j < kNr; ++j) {
    acc0[j] = init0;
    acc1[j] = init1;
    acc2[j] = init2;
    acc3[j] = init3;
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n;
    const float va0 = a0[p], va1 = a1[p], va2 = a2[p], va3 = a3[p];
    for (int j = 0; j < kNr; ++j) {
      acc0[j] += va0 * brow[j];
      acc1[j] += va1 * brow[j];
      acc2[j] += va2 * brow[j];
      acc3[j] += va3 * brow[j];
    }
  }
  for (int j = 0; j < kNr; ++j) {
    c0[j] = acc0[j];
    c1[j] = acc1[j];
    c2[j] = acc2[j];
    c3[j] = acc3[j];
  }
}

// Edge tile: any mb x nb block (mb <= kMr, nb <= kNr). Same per-output
// ascending-k accumulator chain as the full tile.
inline void EdgeKernel(int k, int n, int mb, int nb, const float* a,
                       const float* b, const float* bias_row,
                       const float* bias_col, int i0, int j0, float* c) {
  float acc[kMr][kNr];
  for (int i = 0; i < mb; ++i) {
    const float init = bias_row != nullptr ? bias_row[i0 + i] : 0.0f;
    for (int j = 0; j < nb; ++j) {
      acc[i][j] = bias_col != nullptr ? bias_col[j0 + j] : init;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n + j0;
    for (int i = 0; i < mb; ++i) {
      const float va = a[static_cast<size_t>(i0 + i) * k + p];
      for (int j = 0; j < nb; ++j) acc[i][j] += va * brow[j];
    }
  }
  for (int i = 0; i < mb; ++i) {
    float* crow = c + static_cast<size_t>(i0 + i) * n + j0;
    for (int j = 0; j < nb; ++j) crow[j] = acc[i][j];
  }
}

// Output indices o in [0, out) whose input index o * stride + off lies in
// [0, in), as the half-open range [*lo, *hi).
inline void InFrameRange(int in, int out, int stride, int off, int* lo,
                         int* hi) {
  const int first = off >= 0 ? 0 : (-off + stride - 1) / stride;
  const int last = in - 1 - off;  // Largest in-frame o * stride.
  *lo = std::min(first, out);
  *hi = std::clamp(last < 0 ? 0 : last / stride + 1, *lo, out);
}

// Weight-gradient register block: taps per accumulator tile (the tap rows
// are padded to a multiple of it) and output positions per compaction chunk.
constexpr int kTapBlock = 16;
constexpr int kGradChunk = 256;

// kTapBlock taps of one weight-gradient row over the `count` output
// positions in `idx` (ascending); the first `nr` lanes are real taps. The
// accumulators stay in registers while the positions stream past.
inline void WeightGradBlock(int count, const int* idx, const float* g,
                            const float* rows, int ldr, int nr, float* gw) {
  float acc[kTapBlock];
  for (int j = 0; j < kTapBlock; ++j) acc[j] = j < nr ? gw[j] : 0.0f;
  for (int t = 0; t < count; ++t) {
    const int p = idx[t];
    const float v = g[p];
    const float* row = rows + static_cast<size_t>(p) * ldr;
    for (int j = 0; j < kTapBlock; ++j) acc[j] += v * row[j];
  }
  for (int j = 0; j < nr; ++j) gw[j] = acc[j];
}

}  // namespace

void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_row, const float* bias_col, float* c) {
  // Column panels: for each strip of B, stream all rows of A over it.
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      const float init0 = bias_row != nullptr ? bias_row[i] : 0.0f;
      const float init1 = bias_row != nullptr ? bias_row[i + 1] : 0.0f;
      const float init2 = bias_row != nullptr ? bias_row[i + 2] : 0.0f;
      const float init3 = bias_row != nullptr ? bias_row[i + 3] : 0.0f;
      int j = 0;
      if (bias_col == nullptr) {
        // Fast path: per-row scalar inits let the full register tile run.
        for (; j + kNr <= nc; j += kNr) {
          float* crow = c + static_cast<size_t>(i) * n + jc + j;
          MicroKernel(k, n, a0, a1, a2, a3, b + jc + j, init0, init1, init2,
                      init3, crow, crow + n, crow + 2 * n, crow + 3 * n);
        }
      }
      for (; j < nc; j += kNr) {
        EdgeKernel(k, n, kMr, std::min(kNr, nc - j), a, b, bias_row,
                   bias_col, i, jc + j, c);
      }
    }
    if (i < m) {
      for (int j = 0; j < nc; j += kNr) {
        EdgeKernel(k, n, m - i, std::min(kNr, nc - j), a, b, bias_row,
                   bias_col, i, jc + j, c);
      }
    }
  }
}

void Im2Col(const float* input, int channels, int h, int w, int kernel,
            int stride, int oh, int ow, float* out) {
  const int pad = kernel / 2;
  const size_t row_len = static_cast<size_t>(oh) * ow;
  float* dst = out;
  for (int ic = 0; ic < channels; ++ic) {
    const float* plane = input + static_cast<size_t>(ic) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        // Row for tap (ic, ky, kx): sample (oy*stride - pad + ky,
        // ox*stride - pad + kx) for every output position.
        float* row = dst;
        dst += row_len;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          float* out_row = row + static_cast<size_t>(oy) * ow;
          if (iy < 0 || iy >= h) {
            std::memset(out_row, 0, sizeof(float) * static_cast<size_t>(ow));
            continue;
          }
          const int x_off = kx - pad;  // ix = ox*stride + x_off.
          const float* in_row = plane + static_cast<size_t>(iy) * w;
          int ox_lo, ox_hi;
          InFrameRange(w, ow, stride, x_off, &ox_lo, &ox_hi);
          for (int ox = 0; ox < ox_lo; ++ox) out_row[ox] = 0.0f;
          if (stride == 1) {
            std::memcpy(out_row + ox_lo, in_row + ox_lo + x_off,
                        sizeof(float) * static_cast<size_t>(ox_hi - ox_lo));
          } else {
            for (int ox = ox_lo; ox < ox_hi; ++ox) {
              out_row[ox] = in_row[ox * stride + x_off];
            }
          }
          for (int ox = ox_hi; ox < ow; ++ox) out_row[ox] = 0.0f;
        }
      }
    }
  }
}

void ConvWeightGrad(int m, int n, int k, const float* grad_out,
                    const float* panel, float* grad_w) {
  // Transpose the panel so each output position's taps are contiguous,
  // padding every row to whole tap blocks with zeros.
  const int ldr = (k + kTapBlock - 1) / kTapBlock * kTapBlock;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchScope scope(arena);
  float* rows = arena.Alloc(static_cast<size_t>(n) * ldr);
  for (int p = 0; p < n; ++p) {
    float* row = rows + static_cast<size_t>(p) * ldr;
    for (int r = 0; r < k; ++r) row[r] = panel[static_cast<size_t>(r) * n + p];
    for (int r = k; r < ldr; ++r) row[r] = 0.0f;
  }
  int idx[kGradChunk];
  for (int i = 0; i < m; ++i) {
    const float* g = grad_out + static_cast<size_t>(i) * n;
    float* gw = grad_w + static_cast<size_t>(i) * k;
    for (int p0 = 0; p0 < n; p0 += kGradChunk) {
      // Compact the chunk's nonzero positions (branch-free), so the zero
      // skip costs nothing in the tap loop.
      const int p1 = std::min(n, p0 + kGradChunk);
      int count = 0;
      for (int p = p0; p < p1; ++p) {
        idx[count] = p;
        count += g[p] != 0.0f ? 1 : 0;
      }
      for (int r = 0; r < k; r += kTapBlock) {
        WeightGradBlock(count, idx, g, rows + r, ldr,
                        std::min(kTapBlock, k - r), gw + r);
      }
    }
  }
}

void ConvInputGrad(const float* grad_out, const float* weight,
                   int in_channels, int out_channels, int h, int w,
                   int kernel, int stride, int oh, int ow, float* grad_in) {
  const int pad = kernel / 2;
  // Accumulate in a phase-split layout: input pixel (jy*stride + qy,
  // jx*stride + qx) lives at split[ic][qy][qx][jy][jx]. Each phase plane
  // has the output's oh x ow shape, so a tap maps consecutive output
  // positions to consecutive buffer elements: every update is a contiguous
  // axpy, and one over the whole plane when the tap covers full rows. Each
  // element still gets its own chain, starting at +0.
  const size_t plane = static_cast<size_t>(oh) * ow;
  const size_t split_size =
      static_cast<size_t>(in_channels) * stride * stride * plane;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchScope scope(arena);
  float* split = arena.Alloc(split_size);
  std::fill(split, split + split_size, 0.0f);
  const auto phase = [stride](int off) {
    return (off % stride + stride) % stride;
  };
  for (int oc = 0; oc < out_channels; ++oc) {
    const float* go = grad_out + static_cast<size_t>(oc) * plane;
    const float* w_oc =
        weight + static_cast<size_t>(oc) * in_channels * kernel * kernel;
    // Descending taps visit each input element's contributions in the
    // reference's ascending (oy, ox) order.
    for (int ky = kernel - 1; ky >= 0; --ky) {
      const int y_off = ky - pad;  // iy = oy*stride + y_off.
      const int qy = phase(y_off);
      const int jy_off = (y_off - qy) / stride;  // jy = oy + jy_off.
      int oy_lo, oy_hi;
      InFrameRange(h, oh, stride, y_off, &oy_lo, &oy_hi);
      if (oy_lo == oy_hi) continue;  // Tap row entirely out of frame.
      for (int kx = kernel - 1; kx >= 0; --kx) {
        const int x_off = kx - pad;
        const int qx = phase(x_off);
        const int jx_off = (x_off - qx) / stride;
        int ox_lo, ox_hi;
        InFrameRange(w, ow, stride, x_off, &ox_lo, &ox_hi);
        const bool full_rows = ox_lo == 0 && ox_hi == ow && jx_off == 0;
        for (int ic = 0; ic < in_channels; ++ic) {
          const float wv =
              w_oc[(static_cast<size_t>(ic) * kernel + ky) * kernel + kx];
          float* dst = split +
                       ((static_cast<size_t>(ic) * stride + qy) * stride + qx) *
                           plane +
                       static_cast<size_t>(oy_lo + jy_off) * ow;
          const float* src = go + static_cast<size_t>(oy_lo) * ow;
          if (full_rows) {
            const int len = (oy_hi - oy_lo) * ow;
            for (int t = 0; t < len; ++t) dst[t] += src[t] * wv;
            continue;
          }
          for (int oy = oy_lo; oy < oy_hi; ++oy, dst += ow, src += ow) {
            for (int ox = ox_lo; ox < ox_hi; ++ox) {
              dst[ox + jx_off] += src[ox] * wv;
            }
          }
        }
      }
    }
  }
  const float* src = split;
  for (int ic = 0; ic < in_channels; ++ic) {
    float* out = grad_in + static_cast<size_t>(ic) * h * w;
    for (int qy = 0; qy < stride; ++qy) {
      for (int qx = 0; qx < stride; ++qx, src += plane) {
        for (int jy = 0; jy * stride + qy < h; ++jy) {
          float* out_row = out + static_cast<size_t>(jy * stride + qy) * w;
          const float* src_row = src + static_cast<size_t>(jy) * ow;
          for (int jx = 0; jx * stride + qx < w; ++jx) {
            out_row[jx * stride + qx] = src_row[jx];
          }
        }
      }
    }
  }
}

}  // namespace otif::nn
