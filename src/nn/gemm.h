#ifndef OTIF_NN_GEMM_H_
#define OTIF_NN_GEMM_H_

#include <cstddef>

namespace otif::nn {

/// C = A * B with an optional bias folded into the accumulator start.
///
///   A: m x k, row-major, leading dimension k
///   B: k x n, row-major, leading dimension n
///   C: m x n, row-major, leading dimension n (fully overwritten)
///   bias_row: length m, added per row of C (pass nullptr for none)
///   bias_col: length n, added per column of C (pass nullptr for none)
///
/// At most one of bias_row / bias_col may be non-null; the bias is the
/// accumulator's *initial* value, matching a scalar loop that starts at the
/// bias and accumulates products in ascending-k order.
///
/// Determinism contract: every C[i][j] is produced by one accumulator chain
///   bias + A[i][0]*B[0][j] + A[i][1]*B[1][j] + ... (k ascending)
/// with no reassociation across k, so the result is bit-identical to the
/// naive triple loop regardless of the register-blocking used internally.
/// The conv forward pass (inference and training alike) relies on this to
/// reproduce the naive reference loops exactly.
void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_row, const float* bias_col, float* c);

/// Unrolls conv input patches into the im2col panel consumed by GemmBias.
///
///   input: (channels, h, w) row-major
///   out:   (channels * kernel * kernel) x (oh * ow) row-major
///
/// Row r = (ic * kernel + ky) * kernel + kx holds, for each output position
/// (oy, ox), the input sample at (ic, oy*stride - pad + ky,
/// ox*stride - pad + kx), or 0 where that falls outside the frame ('same'
/// padding, pad = kernel / 2). The row ordering matches the weight layout
/// (out_ch, in_ch, ky, kx), so conv output = weights (M x K) times this
/// panel (K x N) with K accumulated in the same order as the naive loops.
void Im2Col(const float* input, int channels, int h, int w, int kernel,
            int stride, int oh, int ow, float* out);

// --- Conv backward ---------------------------------------------------------
//
// The two kernels below reproduce the naive conv backward loops bit-for-bit:
// that reference visits output positions (oc, oy, ox) in ascending order,
// skips those whose upstream gradient is zero, and for each in-frame tap
// adds one product to the weight gradient and one to the input gradient.
// Each kernel keeps, for every gradient element, exactly that sequence of
// additions and only vectorizes across independent elements. Terms the
// reference does not add (out-of-frame taps, zero upstream gradients in the
// input gradient) are either skipped or add +-0 to a partial sum; with
// finite inputs that is a no-op, because a sum that starts at +0 never
// becomes -0 (and gradients start at +0 after every ZeroGrad).

/// Weight gradient: grad_w (m x k) += grad_out (m x n) * panel^T.
///
///   grad_out: m x n row-major (output channel x output position)
///   panel:    k x n, the Im2Col panel of the layer's input
///   grad_w:   m x k row-major, accumulated in place
///
/// Every grad_w[i][r] is one chain starting from its current value,
///   grad_w[i][r] + g[i][0]*panel[r][0] + g[i][1]*panel[r][1] + ...
/// over p ascending, with the terms where g[i][p] == 0 skipped.
void ConvWeightGrad(int m, int n, int k, const float* grad_out,
                    const float* panel, float* grad_w);

/// Input gradient of a 'same'-padded conv (pad = kernel / 2):
///
///   grad_out: (out_channels, oh, ow) row-major
///   weight:   (out_channels, in_channels, kernel, kernel) row-major
///   grad_in:  (in_channels, h, w) row-major, fully overwritten
///
/// Every grad_in element is one chain, starting at +0, of the products
/// grad_out[oc][oy][ox] * weight[oc][ic][ky][kx] for each (oc, oy, ox) whose
/// tap (ky, kx) lands on it, in the order the reference loops reach it: oc
/// ascending, then (oy, ox) ascending, which for a fixed oc is (ky, kx)
/// descending. Zero grad_out terms are not skipped (they add +-0).
void ConvInputGrad(const float* grad_out, const float* weight,
                   int in_channels, int out_channels, int h, int w,
                   int kernel, int stride, int oh, int ow, float* grad_in);

}  // namespace otif::nn

#endif  // OTIF_NN_GEMM_H_
