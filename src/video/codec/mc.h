/**
 * @file
 * Motion vectors, reference planes, block sampling, motion
 * compensation (with half-pel bilinear interpolation), and block
 * distortion primitives.
 *
 * Motion vectors are stored in half-pel units throughout the codec.
 *
 * Reference planes and their border. Every fetch behaves as if the
 * plane extended forever by edge replication (Plane::clampedAt).
 * The encoder and decoder keep their references as RefFrames, whose
 * planes carry a replicated border (kRefBorder luma samples, half
 * that for chroma) built once per reference update. A fetch whose
 * whole footprint lies inside plane + border reads rows directly; only
 * a vector past the border takes the per-sample clampedAt path. A
 * plain Plane is a RefView with no border, so every entry point also
 * takes one (the row path then needs the block inside the plane).
 *
 * Kernels. On x86-64, blockSad, blockSadBounded, sadAgainstBlock,
 * sadAt and the motionCompensate filter use SSE2 (psadbw, pavgb and
 * 16-bit adds), which is part of the x86-64 baseline and needs no run-
 * time dispatch. Elsewhere the scalar kernels in simd.h run; they are
 * also the reference the SSE2 ones are tested against. All of them
 * are integer-only and return the same values bit for bit.
 */

#ifndef WSVA_VIDEO_CODEC_MC_H
#define WSVA_VIDEO_CODEC_MC_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "video/frame.h"

namespace wsva::video::codec {

/** Motion vector in half-pel units. */
struct Mv
{
    int16_t x = 0;
    int16_t y = 0;

    bool operator==(const Mv &other) const = default;
};

/** Luma border of a reference plane, in samples (chroma: half). */
constexpr int kRefBorder = 32;

/**
 * Read-only view of a plane whose rows may extend border() samples
 * past every edge by replication, so row(y)[x] for x, y inside the
 * border reads what clampedAt(x, y) reads. Converts implicitly from a
 * Plane (no border), like a string_view from a string.
 */
class RefView
{
  public:
    RefView(const Plane &p) // NOLINT(google-explicit-constructor)
        : origin_(p.row(0)), stride_(p.width()), width_(p.width()),
          height_(p.height()), border_(0)
    {
    }

    RefView(const uint8_t *origin, ptrdiff_t stride, int width, int height,
            int border)
        : origin_(origin), stride_(stride), width_(width), height_(height),
          border_(border)
    {
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int border() const { return border_; }
    ptrdiff_t stride() const { return stride_; }

    /** Row @p y, valid for y in [-border, height + border). */
    const uint8_t *row(int y) const { return origin_ + y * stride_; }

    /** True if the w x h block at (x, y) lies inside plane + border. */
    bool covers(int x, int y, int w, int h) const
    {
        return x >= -border_ && y >= -border_ &&
               x + w <= width_ + border_ && y + h <= height_ + border_;
    }

    /** Sample with coordinates clamped to the plane edges. */
    uint8_t clampedAt(int x, int y) const
    {
        return row(std::clamp(y, 0, height_ - 1))[std::clamp(x, 0,
                                                             width_ - 1)];
    }

  private:
    const uint8_t *origin_;
    ptrdiff_t stride_;
    int width_;
    int height_;
    int border_;
};

/** A plane copied into storage with a replicated border. */
class PaddedPlane
{
  public:
    /** Copy @p src and replicate its edges @p border samples out. */
    void assign(const Plane &src, int border);

    RefView view() const
    {
        return {data_.data() + border_ * stride_ + border_, stride_,
                width_, height_, border_};
    }

  private:
    std::vector<uint8_t> data_;
    ptrdiff_t stride_ = 0;
    int width_ = 0;
    int height_ = 0;
    int border_ = 0;
};

/** A reference frame for inter prediction: three padded planes. */
struct RefFrame
{
    PaddedPlane y;
    PaddedPlane u;
    PaddedPlane v;

    /** Copy @p f and build the borders (kRefBorder luma). */
    void assign(const Frame &f);
};

/**
 * Copy a w x h patch from @p src at (x, y) into @p out (row stride
 * w). When the patch lies inside plane + border it is a straight row
 * copy; otherwise samples are edge-clamped. This is the one shared
 * fetch used by extractBlock and motionCompensate (one copy of the
 * bounds logic, no divergence risk), inlined because it sits inside
 * the motion search inner loops.
 */
inline void
fetchPatch(const RefView &src, int x, int y, int w, int h, uint8_t *out)
{
    if (src.covers(x, y, w, h)) {
        for (int r = 0; r < h; ++r) {
            const uint8_t *row = src.row(y + r) + x;
            std::copy(row, row + w, out + r * w);
        }
        return;
    }
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c)
            out[r * w + c] = src.clampedAt(x + c, y + r);
}

/**
 * Sample an n x n motion-compensated prediction from @p ref at block
 * position (x, y) displaced by @p mv (half-pel), n <= 64. Reads the
 * reference rows in place when the filter footprint lies inside
 * plane + border, else an edge-clamped copy of it.
 */
void motionCompensate(const RefView &ref, int x, int y, int n, Mv mv,
                      uint8_t *out);

/** Copy an n x n source block (edge-clamped) into @p out. */
void extractBlock(const Plane &src, int x, int y, int n, uint8_t *out);

/** Sum of absolute differences between two n*n sample arrays. */
uint32_t blockSad(const uint8_t *a, const uint8_t *b, int n);

/**
 * blockSad with an early exit: returns once the running sum reaches
 * @p bound (checked every few rows). The return value is exact when
 * it is below @p bound and otherwise only guaranteed to be >=
 * @p bound, so strict less-than acceptance tests against @p bound are
 * unaffected.
 */
uint32_t blockSadBounded(const uint8_t *a, const uint8_t *b, int n,
                         uint32_t bound);

/**
 * SAD between a cached n x n source block @p cur (row stride n) and
 * the block of @p ref at (rx, ry), with the same early-exit contract
 * as blockSadBounded. The motion-search workhorse: the source block
 * is fetched once per macroblock instead of once per candidate.
 */
uint32_t sadAgainstBlock(const uint8_t *cur, const RefView &ref, int rx,
                         int ry, int n, uint32_t bound);

/** Sum of squared errors between two n*n sample arrays. */
uint64_t blockSse(const uint8_t *a, const uint8_t *b, int n);

/**
 * SAD between the n x n source block at (x, y) in @p src and the
 * integer-pel displaced block in @p ref; the workhorse of integer
 * motion search (avoids materializing prediction buffers).
 */
uint32_t sadAt(const Plane &src, const RefView &ref, int x, int y, int n,
               int dx, int dy);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_MC_H
