/**
 * @file
 * The codec's kernel variants by name, so tests and microbenchmarks
 * can hold each SIMD kernel against its scalar reference.
 *
 * Callers use the entry points in transform.h and mc.h, which pick the
 * variant:
 *  - SSE2 is part of the x86-64 baseline, so the SAD and half-pel MC
 *    entry points use it unconditionally there;
 *  - the AVX2 residual kernels carry __attribute__((target("avx2")))
 *    and are chosen once, by __builtin_cpu_supports, at first use;
 *  - the scalar kernels run on every other CPU and architecture.
 * Every variant computes the same integers, so the output is the same
 * byte for byte whichever one runs. No option or environment variable
 * selects among them.
 */

#ifndef WSVA_VIDEO_CODEC_SIMD_H
#define WSVA_VIDEO_CODEC_SIMD_H

#include <cstdint>

#include "video/codec/mc.h"
#include "video/codec/transform.h"

#if defined(__x86_64__) && defined(__SSE2__)
#define WSVA_CODEC_X86 1
#else
#define WSVA_CODEC_X86 0
#endif

namespace wsva::video::codec {

constexpr int kBasisBits = 13;  //!< Fixed-point scale of the DCT basis.
constexpr int kStage1Shift = 6; //!< Headroom shift after the first pass.
constexpr int kStage2Shift = 2 * kBasisBits - kStage1Shift;
constexpr int64_t kStage2Round = int64_t{1} << (kStage2Shift - 1);

/** The tables every residual kernel reads (built once). */
struct ResidualTables
{
    int32_t basis[kTxSize][kTxSize]; //!< DCT-II basis x 2^kBasisBits.
    int32_t dequant[kMaxQp + 1];
    int64_t quant_scale[kMaxQp + 1]; //!< round(2^20 / dequant).
};

const ResidualTables &residualTables();

/** Scalar kernels: the fallback off x86-64 and the reference in tests. */
namespace scalar {

int quantizeResidual(const ResidualBlock &residual, int qp, double deadzone,
                     CoeffBlock &levels);
void reconstructResidual(const CoeffBlock &levels, int qp,
                         ResidualBlock &recon_residual);

uint32_t blockSad(const uint8_t *a, const uint8_t *b, int n);
uint32_t blockSadBounded(const uint8_t *a, const uint8_t *b, int n,
                         uint32_t bound);
uint32_t sadAgainstBlock(const uint8_t *cur, const RefView &ref, int rx,
                         int ry, int n, uint32_t bound);
uint32_t sadAt(const Plane &src, const RefView &ref, int x, int y, int n,
               int dx, int dy);

/** Fetches an (n+1) x (n+1) patch for every half-pel phase. */
void motionCompensate(const RefView &ref, int x, int y, int n, Mv mv,
                      uint8_t *out);

} // namespace scalar

#if WSVA_CODEC_X86
namespace x86 {

/** True if the CPU (and OS) run AVX2; fixed for the process. */
bool hasAvx2();

/** AVX2 kernels; call only when hasAvx2(). */
int quantizeResidualAvx2(const ResidualBlock &residual, int qp,
                         double deadzone, CoeffBlock &levels);
void reconstructResidualAvx2(const CoeffBlock &levels, int qp,
                             ResidualBlock &recon_residual);

} // namespace x86
#endif

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_SIMD_H
