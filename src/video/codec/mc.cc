#include "video/codec/mc.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "video/codec/simd.h"

#if WSVA_CODEC_X86
#include <emmintrin.h>
#endif

namespace wsva::video::codec {

void
PaddedPlane::assign(const Plane &src, int border)
{
    width_ = src.width();
    height_ = src.height();
    border_ = border;
    stride_ = width_ + 2 * border;
    data_.resize(static_cast<size_t>(stride_) *
                 static_cast<size_t>(height_ + 2 * border));
    for (int y = -border; y < height_ + border; ++y) {
        const uint8_t *s = src.row(std::clamp(y, 0, height_ - 1));
        uint8_t *d = data_.data() + (y + border) * stride_;
        std::fill(d, d + border, s[0]);
        std::copy(s, s + width_, d + border);
        std::fill(d + border + width_, d + stride_, s[width_ - 1]);
    }
}

void
RefFrame::assign(const Frame &f)
{
    y.assign(f.y(), kRefBorder);
    u.assign(f.u(), kRefBorder / 2);
    v.assign(f.v(), kRefBorder / 2);
}

void
extractBlock(const Plane &src, int x, int y, int n, uint8_t *out)
{
    fetchPatch(src, x, y, n, n, out);
}

namespace {

/**
 * Bilinear half-pel filter of an n x n block whose footprint (n or
 * n + 1 samples each way, per phase) starts at @p src, row stride
 * @p stride.
 */
void
filterScalar(const uint8_t *src, ptrdiff_t stride, int n, bool half_x,
             bool half_y, uint8_t *out)
{
    for (int r = 0; r < n; ++r) {
        const uint8_t *p0 = src + r * stride;
        const uint8_t *p1 = half_y ? p0 + stride : p0;
        for (int c = 0; c < n; ++c) {
            const int c1 = half_x ? c + 1 : c;
            int v;
            if (half_x && half_y)
                v = (p0[c] + p0[c1] + p1[c] + p1[c1] + 2) >> 2;
            else if (half_x)
                v = (p0[c] + p0[c1] + 1) >> 1;
            else if (half_y)
                v = (p0[c] + p1[c] + 1) >> 1;
            else
                v = p0[c];
            out[r * n + c] = static_cast<uint8_t>(v);
        }
    }
}

} // namespace

namespace scalar {

void
motionCompensate(const RefView &ref, int x, int y, int n, Mv mv,
                 uint8_t *out)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;

    if (!half_x && !half_y) {
        fetchPatch(ref, ix, iy, n, n, out);
        return;
    }

    // Bilinear half-pel: fetch an (n+1) x (n+1) patch then filter.
    uint8_t patch[65 * 65];
    WSVA_ASSERT(n <= 64, "MC block too large");
    const int pn = n + 1;
    fetchPatch(ref, ix, iy, pn, pn, patch);
    filterScalar(patch, pn, n, half_x, half_y, out);
}

uint32_t
blockSad(const uint8_t *a, const uint8_t *b, int n)
{
    uint32_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i)
        acc += static_cast<uint32_t>(std::abs(int(a[i]) - int(b[i])));
    return acc;
}

uint32_t
blockSadBounded(const uint8_t *a, const uint8_t *b, int n, uint32_t bound)
{
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *pa = a + r * n;
        const uint8_t *pb = b + r * n;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(
                std::abs(int(pa[c]) - int(pb[c])));
        if (acc >= bound)
            return acc;
    }
    return acc;
}

uint32_t
sadAgainstBlock(const uint8_t *cur, const RefView &ref, int rx, int ry,
                int n, uint32_t bound)
{
    uint32_t acc = 0;
    if (ref.covers(rx, ry, n, n)) {
        for (int r = 0; r < n; ++r) {
            const uint8_t *s = cur + r * n;
            const uint8_t *p = ref.row(ry + r) + rx;
            for (int c = 0; c < n; ++c)
                acc += static_cast<uint32_t>(
                    std::abs(int(s[c]) - int(p[c])));
            if (acc >= bound)
                return acc;
        }
        return acc;
    }
    for (int r = 0; r < n; ++r) {
        const uint8_t *s = cur + r * n;
        for (int c = 0; c < n; ++c) {
            const int p = ref.clampedAt(rx + c, ry + r);
            acc += static_cast<uint32_t>(std::abs(int(s[c]) - p));
        }
        if (acc >= bound)
            return acc;
    }
    return acc;
}

} // namespace scalar

uint64_t
blockSse(const uint8_t *a, const uint8_t *b, int n)
{
    uint64_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i) {
        const int d = int(a[i]) - int(b[i]);
        acc += static_cast<uint64_t>(d * d);
    }
    return acc;
}

namespace scalar {

uint32_t
sadAt(const Plane &src, const RefView &ref, int x, int y, int n, int dx,
      int dy)
{
    const int rx = x + dx;
    const int ry = y + dy;
    const RefView s_view(src);
    uint32_t acc = 0;
    if (ref.covers(rx, ry, n, n) && s_view.covers(x, y, n, n)) {
        for (int r = 0; r < n; ++r) {
            const uint8_t *s = s_view.row(y + r) + x;
            const uint8_t *p = ref.row(ry + r) + rx;
            for (int c = 0; c < n; ++c)
                acc += static_cast<uint32_t>(std::abs(int(s[c]) - int(p[c])));
        }
        return acc;
    }
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            const int s = s_view.clampedAt(x + c, y + r);
            const int p = ref.clampedAt(rx + c, ry + r);
            acc += static_cast<uint32_t>(std::abs(s - p));
        }
    }
    return acc;
}

} // namespace scalar

#if WSVA_CODEC_X86
namespace {

// SSE2 kernels. Loads are unaligned and never read past the block's
// footprint: rows are taken in 16-, 8- and 4-sample chunks, then a
// scalar tail.

inline __m128i
load16(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline __m128i
load8(const uint8_t *p)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
}

inline __m128i
load4(const uint8_t *p)
{
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return _mm_cvtsi32_si128(v);
}

/** Total of psadbw's two 64-bit partial sums. */
inline uint32_t
total(__m128i acc)
{
    return static_cast<uint32_t>(_mm_cvtsi128_si32(acc)) +
           static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
}

/** Adds the SAD of @p len samples at @p a and @p b to @p acc. */
inline __m128i
spanSad(const uint8_t *a, const uint8_t *b, int len, __m128i acc)
{
    int c = 0;
    for (; c + 16 <= len; c += 16)
        acc = _mm_add_epi64(acc, _mm_sad_epu8(load16(a + c), load16(b + c)));
    if (c + 8 <= len) {
        acc = _mm_add_epi64(acc, _mm_sad_epu8(load8(a + c), load8(b + c)));
        c += 8;
    }
    if (c + 4 <= len) {
        acc = _mm_add_epi64(acc, _mm_sad_epu8(load4(a + c), load4(b + c)));
        c += 4;
    }
    int tail = 0;
    for (; c < len; ++c)
        tail += std::abs(int(a[c]) - int(b[c]));
    return _mm_add_epi64(acc, _mm_cvtsi32_si128(tail));
}

/**
 * SAD of the n x n blocks at @p a (row stride @p sa) and @p b (stride
 * @p sb), returning early once the sum reaches @p bound. The bound is
 * checked every four rows, so the result is exact below @p bound and
 * >= @p bound otherwise.
 */
inline uint32_t
sadRows(const uint8_t *a, ptrdiff_t sa, const uint8_t *b, ptrdiff_t sb,
        int n, uint32_t bound)
{
    __m128i acc = _mm_setzero_si128();
    if (n == 16) {
        for (int r = 0; r < 16; r += 4) {
            for (int i = r; i < r + 4; ++i)
                acc = _mm_add_epi64(
                    acc, _mm_sad_epu8(load16(a + i * sa), load16(b + i * sb)));
            if (r < 12 && total(acc) >= bound)
                return total(acc);
        }
        return total(acc);
    }
    if (n == 8) {
        // Two 8-sample rows per psadbw.
        for (int r = 0; r < 8; r += 2) {
            const __m128i x =
                _mm_unpacklo_epi64(load8(a + r * sa), load8(a + (r + 1) * sa));
            const __m128i y =
                _mm_unpacklo_epi64(load8(b + r * sb), load8(b + (r + 1) * sb));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(x, y));
            if (r == 2 && total(acc) >= bound)
                return total(acc);
        }
        return total(acc);
    }
    for (int r = 0; r < n; ++r) {
        acc = spanSad(a + r * sa, b + r * sb, n, acc);
        if ((r & 3) == 3 && r + 1 < n) {
            const uint32_t sum = total(acc);
            if (sum >= bound)
                return sum;
        }
    }
    return total(acc);
}

template <int W>
inline __m128i
loadW(const uint8_t *p)
{
    if constexpr (W == 16)
        return load16(p);
    else if constexpr (W == 8)
        return load8(p);
    else
        return load4(p);
}

template <int W>
inline void
storeW(uint8_t *p, __m128i v)
{
    if constexpr (W == 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
    } else if constexpr (W == 8) {
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p), v);
    } else {
        const int32_t x = _mm_cvtsi128_si32(v);
        std::memcpy(p, &x, sizeof(x));
    }
}

/**
 * W output samples of a 1-D half-pel phase at @p p: pavgb's
 * (a + b + 1) >> 1, or a plain copy for a full-pel vector.
 */
template <int W, bool HX, bool HY>
inline __m128i
filterChunk(const uint8_t *p, ptrdiff_t stride)
{
    const __m128i a = loadW<W>(p);
    if constexpr (HX)
        return _mm_avg_epu8(a, loadW<W>(p + 1));
    else if constexpr (HY)
        return _mm_avg_epu8(a, loadW<W>(p + stride));
    else
        return a;
}

/** p[c] + p[c + 1] for W samples, in 16-bit lanes (lo: first 8). */
template <int W>
inline void
pairSums(const uint8_t *p, __m128i &lo, __m128i &hi)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i a = loadW<W>(p);
    const __m128i b = loadW<W>(p + 1);
    lo = _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero));
    hi = W == 16 ? _mm_add_epi16(_mm_unpackhi_epi8(a, zero),
                                 _mm_unpackhi_epi8(b, zero))
                 : zero;
}

/**
 * The 2-D phase, (a + b + c + d + 2) >> 2 in 16-bit lanes, down one
 * W-wide column of n rows: each row's pair sums serve two outputs.
 */
template <int W>
inline void
filterColumn2d(const uint8_t *src, ptrdiff_t stride, int n, uint8_t *out)
{
    const __m128i two = _mm_set1_epi16(2);
    __m128i lo0;
    __m128i hi0;
    pairSums<W>(src, lo0, hi0);
    for (int r = 0; r < n; ++r) {
        __m128i lo1;
        __m128i hi1;
        pairSums<W>(src + (r + 1) * stride, lo1, hi1);
        const __m128i lo =
            _mm_srli_epi16(_mm_add_epi16(_mm_add_epi16(lo0, lo1), two), 2);
        const __m128i hi =
            _mm_srli_epi16(_mm_add_epi16(_mm_add_epi16(hi0, hi1), two), 2);
        storeW<W>(out + r * n, _mm_packus_epi16(lo, hi));
        lo0 = lo1;
        hi0 = hi1;
    }
}

template <bool HX, bool HY>
void
filterSse2(const uint8_t *src, ptrdiff_t stride, int n, uint8_t *out)
{
    if constexpr (HX && HY) {
        int c = 0;
        for (; c + 16 <= n; c += 16)
            filterColumn2d<16>(src + c, stride, n, out + c);
        if (c + 8 <= n) {
            filterColumn2d<8>(src + c, stride, n, out + c);
            c += 8;
        }
        if (c + 4 <= n) {
            filterColumn2d<4>(src + c, stride, n, out + c);
            c += 4;
        }
        for (int r = 0; r < n; ++r)
            for (int cc = c; cc < n; ++cc)
                filterScalar(src + r * stride + cc, stride, 1, true, true,
                             out + r * n + cc);
        return;
    }
    for (int r = 0; r < n; ++r) {
        const uint8_t *p = src + r * stride;
        uint8_t *o = out + r * n;
        int c = 0;
        for (; c + 16 <= n; c += 16)
            storeW<16>(o + c, filterChunk<16, HX, HY>(p + c, stride));
        if (c + 8 <= n) {
            storeW<8>(o + c, filterChunk<8, HX, HY>(p + c, stride));
            c += 8;
        }
        if (c + 4 <= n) {
            storeW<4>(o + c, filterChunk<4, HX, HY>(p + c, stride));
            c += 4;
        }
        for (; c < n; ++c)
            filterScalar(p + c, stride, 1, HX, HY, o + c);
    }
}

} // namespace
#endif // WSVA_CODEC_X86

namespace {

/** The half-pel filter on this CPU (SSE2 on x86-64). */
void
filter(const uint8_t *src, ptrdiff_t stride, int n, bool half_x,
       bool half_y, uint8_t *out)
{
#if WSVA_CODEC_X86
    if (half_x && half_y)
        filterSse2<true, true>(src, stride, n, out);
    else if (half_x)
        filterSse2<true, false>(src, stride, n, out);
    else if (half_y)
        filterSse2<false, true>(src, stride, n, out);
    else
        filterSse2<false, false>(src, stride, n, out);
#else
    filterScalar(src, stride, n, half_x, half_y, out);
#endif
}

} // namespace

void
motionCompensate(const RefView &ref, int x, int y, int n, Mv mv, uint8_t *out)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;
    // The footprint: one extra column / row per half-pel direction.
    const int fw = n + (half_x ? 1 : 0);
    const int fh = n + (half_y ? 1 : 0);
    if (ref.covers(ix, iy, fw, fh)) {
        filter(ref.row(iy) + ix, ref.stride(), n, half_x, half_y, out);
        return;
    }
    uint8_t patch[65 * 65];
    WSVA_ASSERT(n <= 64, "MC block too large");
    fetchPatch(ref, ix, iy, fw, fh, patch);
    filter(patch, fw, n, half_x, half_y, out);
}

uint32_t
blockSad(const uint8_t *a, const uint8_t *b, int n)
{
#if WSVA_CODEC_X86
    if (n == 16 || n == 8)
        return sadRows(a, n, b, n, n, UINT32_MAX);
    return total(spanSad(a, b, n * n, _mm_setzero_si128()));
#else
    return scalar::blockSad(a, b, n);
#endif
}

uint32_t
blockSadBounded(const uint8_t *a, const uint8_t *b, int n, uint32_t bound)
{
#if WSVA_CODEC_X86
    return sadRows(a, n, b, n, n, bound);
#else
    return scalar::blockSadBounded(a, b, n, bound);
#endif
}

uint32_t
sadAgainstBlock(const uint8_t *cur, const RefView &ref, int rx, int ry,
                int n, uint32_t bound)
{
#if WSVA_CODEC_X86
    if (ref.covers(rx, ry, n, n))
        return sadRows(cur, n, ref.row(ry) + rx, ref.stride(), n, bound);
#endif
    return scalar::sadAgainstBlock(cur, ref, rx, ry, n, bound);
}

uint32_t
sadAt(const Plane &src, const RefView &ref, int x, int y, int n, int dx,
      int dy)
{
#if WSVA_CODEC_X86
    const RefView s_view(src);
    if (ref.covers(x + dx, y + dy, n, n) && s_view.covers(x, y, n, n))
        return sadRows(s_view.row(y) + x, s_view.stride(),
                       ref.row(y + dy) + x + dx, ref.stride(), n,
                       UINT32_MAX);
#endif
    return scalar::sadAt(src, ref, x, y, n, dx, dy);
}

} // namespace wsva::video::codec
