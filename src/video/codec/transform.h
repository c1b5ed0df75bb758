/**
 * @file
 * 8x8 integer DCT, quantization, and zigzag scan.
 *
 * The transform is an integer-matrix DCT-II (13-bit fixed-point
 * basis) so results are bit-exact across platforms; the encoder's
 * reconstruction path and the decoder use the identical inverse.
 * Quantization uses a dead-zone uniform quantizer with a 64-step
 * exponential step-size table (qp in [0, 63]).
 *
 * Both directions run as two separable 8-point passes (columns, a
 * >> 6 headroom shift, then rows with a rounded >> 20), each pass a
 * partial butterfly: even basis rows are symmetric and odd rows
 * antisymmetric about the block centre (the rounded table keeps this
 * exactly, since lround is odd-symmetric; asserted when the tables
 * are built), so each 8-point sum folds onto x[k] +- x[7-k] and the
 * even half folds once more. That forms the same integer sums as the
 * plain matrix product with 24 multiplies per 8 outputs instead of
 * 64, so the output is identical, not approximated.
 *
 * Accumulator bounds (|basis| sums to <= 23170 along any row or
 * column):
 *  - forward pass 1: |residual| <= 32768 gives |sum| <= 7.6e8, so it
 *    runs in int32;
 *  - forward pass 2 takes |tmp| <= 1.2e7 to sums of ~2.8e11, and the
 *    inverse takes coefficients up to 32768 x dequant(63) = 6.9e6 to
 *    ~1.6e11 in pass 1, so both run in int64. Pass 1 of the inverse
 *    stores (sum >> 6) as int32, which wraps for the most extreme
 *    coefficient blocks exactly as the matrix form does.
 *
 * reconstructResidual() writes zeros without dequantizing or
 * inverting when every level is zero, which is exact: an all-zero
 * block inverts to zero. Encoder and decoder share that path.
 */

#ifndef WSVA_VIDEO_CODEC_TRANSFORM_H
#define WSVA_VIDEO_CODEC_TRANSFORM_H

#include <array>
#include <cstdint>

namespace wsva::video::codec {

constexpr int kTxSize = 8;                      //!< Transform is 8x8.
constexpr int kTxCoeffs = kTxSize * kTxSize;    //!< 64 coefficients.
constexpr int kMaxQp = 63;                      //!< Quantizer range.

/** Residual / coefficient block storage. */
using ResidualBlock = std::array<int16_t, kTxCoeffs>;
using CoeffBlock = std::array<int16_t, kTxCoeffs>;

/** Forward 8x8 DCT of a residual block (row-major). */
void forwardDct(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out);

/** Inverse 8x8 DCT back to the (approximate) residual. */
void inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out);

/** Quantizer step size for @p qp (exponential, ~0.9 to ~190). */
double qstep(int qp);

/**
 * Dead-zone quantization of DCT coefficients.
 * @param deadzone Rounding offset in [0, 0.5); smaller = more zeros.
 */
void quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
              double deadzone, CoeffBlock &out);

/** Dequantize levels back to coefficient magnitudes. */
void dequantize(const CoeffBlock &levels, int qp,
                std::array<int32_t, kTxCoeffs> &out);

/** Zigzag scan order: scan index -> raster coefficient index. */
const std::array<int, kTxCoeffs> &zigzagOrder();

/**
 * Forward half of residual coding: transform and quantize.
 * @return Number of nonzero levels.
 */
int quantizeResidual(const ResidualBlock &residual, int qp, double deadzone,
                     CoeffBlock &levels);

/**
 * Full residual coding round trip: quantizeResidual() followed by
 * reconstructResidual(). (The encoder runs the two halves itself so
 * that coefficient optimization can sit between them.)
 * @return Number of nonzero levels.
 */
int transformQuantize(const ResidualBlock &residual, int qp, double deadzone,
                      CoeffBlock &levels, ResidualBlock &recon_residual);

/**
 * Reconstruction of a residual from levels (decoder, and the
 * encoder's reconstruction loop). All-zero blocks skip straight to
 * zeros.
 */
void reconstructResidual(const CoeffBlock &levels, int qp,
                         ResidualBlock &recon_residual);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_TRANSFORM_H
