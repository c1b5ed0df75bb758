/**
 * @file
 * AVX2 residual round trip: the same integer sums as the scalar
 * partial butterflies in transform.cc, eight 8-point transforms at a
 * time (one per 32-bit lane).
 *
 * - Forward pass 1 runs down the columns in int32 lanes, as the
 *   scalar code does (|sum| <= 7.6e8 for any int16 residual).
 * - Forward pass 2 and both inverse passes fold in int32 where the
 *   scalar code's values fit (forward pass 2 only: |tmp| <= 1.2e7),
 *   then multiply with _mm256_mul_epi32 on the even and the odd lanes
 *   separately, so every product and sum is the scalar int64 value.
 * - A pass ends with (sum + round) >> shift kept as int32. Its low 32
 *   bits are bits shift .. shift + 31 of the sum, which a logical and
 *   an arithmetic 64-bit shift agree on, so _mm256_srli_epi64 gives
 *   the scalar value, int32 wrap of the inverse pass 1 included.
 * - Quantize and dequantize run on the lanes too; packs_epi32 is the
 *   scalar clamp to int16.
 *
 * Every function here carries the avx2 target attribute (helpers too:
 * a lambda would not inherit it) and runs only when x86::hasAvx2().
 */

#include "video/codec/simd.h"

#if WSVA_CODEC_X86

#include "common/logging.h"

#include <immintrin.h>

#include <bit>

#define WSVA_AVX2 __attribute__((target("avx2")))

namespace wsva::video::codec::x86 {

bool
hasAvx2()
{
    static const bool avx2 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return avx2;
}

namespace {

/**
 * Eight int32 lanes as int64 values: @c even holds lanes 0, 2, 4, 6
 * and @c odd lanes 1, 3, 5, 7, each in the low half of a 64-bit lane.
 */
struct Wide
{
    __m256i even;
    __m256i odd;
};

WSVA_AVX2 inline Wide
split(__m256i v)
{
    return {v, _mm256_srli_epi64(v, 32)};
}

/** Exact int64 products g * v (mul_epi32 reads the low dwords). */
WSVA_AVX2 inline Wide
mul(const Wide &v, int32_t g)
{
    const __m256i gv = _mm256_set1_epi32(g);
    return {_mm256_mul_epi32(v.even, gv), _mm256_mul_epi32(v.odd, gv)};
}

WSVA_AVX2 inline Wide
add(const Wide &a, const Wide &b)
{
    return {_mm256_add_epi64(a.even, b.even), _mm256_add_epi64(a.odd, b.odd)};
}

WSVA_AVX2 inline Wide
sub(const Wide &a, const Wide &b)
{
    return {_mm256_sub_epi64(a.even, b.even), _mm256_sub_epi64(a.odd, b.odd)};
}

/** int32((v + round) >> Shift) per lane, back in lane order. */
template <int Shift>
WSVA_AVX2 inline __m256i
narrow(const Wide &v, int64_t round)
{
    static_assert(Shift <= 32, "low dword must not hold sign fill");
    const __m256i r = _mm256_set1_epi64x(round);
    const __m256i e = _mm256_srli_epi64(_mm256_add_epi64(v.even, r), Shift);
    const __m256i o = _mm256_srli_epi64(_mm256_add_epi64(v.odd, r), Shift);
    return _mm256_blend_epi32(e, _mm256_slli_epi64(o, 32), 0xAA);
}

WSVA_AVX2 inline __m256i
mul32(__m256i v, int32_t g)
{
    return _mm256_mullo_epi32(v, _mm256_set1_epi32(g));
}

/** In-place transpose of an 8x8 int32 matrix held as eight rows. */
WSVA_AVX2 inline void
transpose(__m256i r[8])
{
    __m256i t[8];
    for (int i = 0; i < 4; ++i) {
        t[2 * i] = _mm256_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm256_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
    }
    __m256i u[8];
    for (int i = 0; i < 2; ++i) {
        u[4 * i] = _mm256_unpacklo_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 1] = _mm256_unpackhi_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 2] = _mm256_unpacklo_epi64(t[4 * i + 1], t[4 * i + 3]);
        u[4 * i + 3] = _mm256_unpackhi_epi64(t[4 * i + 1], t[4 * i + 3]);
    }
    for (int i = 0; i < 4; ++i) {
        r[i] = _mm256_permute2x128_si256(u[i], u[i + 4], 0x20);
        r[i + 4] = _mm256_permute2x128_si256(u[i], u[i + 4], 0x31);
    }
}

/**
 * Forward DCT of a residual block; @p rows[u] holds coefficient row
 * u (lane v = coefficient (u, v)).
 */
WSVA_AVX2 void
forwardDct(const ResidualBlock &in, __m256i rows[8])
{
    const auto &g = residualTables().basis;
    // Pass 1 down each column (lane = column), int32.
    __m256i x[8];
    for (int k = 0; k < 8; ++k)
        x[k] = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in.data() + 8 * k)));
    __m256i e[4];
    __m256i o[4];
    for (int k = 0; k < 4; ++k) {
        e[k] = _mm256_add_epi32(x[k], x[7 - k]);
        o[k] = _mm256_sub_epi32(x[k], x[7 - k]);
    }
    __m256i ee0 = _mm256_add_epi32(e[0], e[3]);
    __m256i ee1 = _mm256_add_epi32(e[1], e[2]);
    __m256i eo0 = _mm256_sub_epi32(e[0], e[3]);
    __m256i eo1 = _mm256_sub_epi32(e[1], e[2]);
    __m256i t[8];
    t[0] = _mm256_add_epi32(mul32(ee0, g[0][0]), mul32(ee1, g[0][1]));
    t[4] = _mm256_add_epi32(mul32(ee0, g[4][0]), mul32(ee1, g[4][1]));
    t[2] = _mm256_add_epi32(mul32(eo0, g[2][0]), mul32(eo1, g[2][1]));
    t[6] = _mm256_add_epi32(mul32(eo0, g[6][0]), mul32(eo1, g[6][1]));
    for (int u = 1; u < 8; u += 2)
        t[u] = _mm256_add_epi32(
            _mm256_add_epi32(mul32(o[0], g[u][0]), mul32(o[1], g[u][1])),
            _mm256_add_epi32(mul32(o[2], g[u][2]), mul32(o[3], g[u][3])));
    for (int u = 0; u < 8; ++u)
        t[u] = _mm256_srai_epi32(t[u], kStage1Shift);

    // Pass 2 along each row: t[k] lane u = tmp[u][k]. The folds fit
    // int32 (|tmp| <= 1.2e7); the products and sums are int64.
    transpose(t);
    for (int k = 0; k < 4; ++k) {
        e[k] = _mm256_add_epi32(t[k], t[7 - k]);
        o[k] = _mm256_sub_epi32(t[k], t[7 - k]);
    }
    const Wide wee0 = split(_mm256_add_epi32(e[0], e[3]));
    const Wide wee1 = split(_mm256_add_epi32(e[1], e[2]));
    const Wide weo0 = split(_mm256_sub_epi32(e[0], e[3]));
    const Wide weo1 = split(_mm256_sub_epi32(e[1], e[2]));
    Wide wo[4];
    for (int k = 0; k < 4; ++k)
        wo[k] = split(o[k]);
    rows[0] = narrow<kStage2Shift>(
        add(mul(wee0, g[0][0]), mul(wee1, g[0][1])), kStage2Round);
    rows[4] = narrow<kStage2Shift>(
        add(mul(wee0, g[4][0]), mul(wee1, g[4][1])), kStage2Round);
    rows[2] = narrow<kStage2Shift>(
        add(mul(weo0, g[2][0]), mul(weo1, g[2][1])), kStage2Round);
    rows[6] = narrow<kStage2Shift>(
        add(mul(weo0, g[6][0]), mul(weo1, g[6][1])), kStage2Round);
    for (int v = 1; v < 8; v += 2)
        rows[v] = narrow<kStage2Shift>(
            add(add(mul(wo[0], g[v][0]), mul(wo[1], g[v][1])),
                add(mul(wo[2], g[v][2]), mul(wo[3], g[v][3]))),
            kStage2Round);
    // rows[v] lane u = coefficient (u, v): back to row-major.
    transpose(rows);
}

/**
 * One inverse pass over eight transforms at once: out[k] lane i =
 * sum_u basis[u][k] * x[u] lane i, as exact int64 sums (the
 * transpose of the forward butterfly, like transform.cc's inverse8).
 */
WSVA_AVX2 inline void
inversePass(const __m256i x[8], Wide out[8])
{
    const auto &g = residualTables().basis;
    Wide w[8];
    for (int u = 0; u < 8; ++u)
        w[u] = split(x[u]);
    Wide o[4];
    for (int k = 0; k < 4; ++k)
        o[k] = add(add(mul(w[1], g[1][k]), mul(w[3], g[3][k])),
                   add(mul(w[5], g[5][k]), mul(w[7], g[7][k])));
    const Wide eo0 = add(mul(w[2], g[2][0]), mul(w[6], g[6][0]));
    const Wide eo1 = add(mul(w[2], g[2][1]), mul(w[6], g[6][1]));
    const Wide ee0 = add(mul(w[0], g[0][0]), mul(w[4], g[4][0]));
    const Wide ee1 = add(mul(w[0], g[0][1]), mul(w[4], g[4][1]));
    const Wide e[4] = {add(ee0, eo0), add(ee1, eo1), sub(ee1, eo1),
                       sub(ee0, eo0)};
    for (int k = 0; k < 4; ++k) {
        out[k] = add(e[k], o[k]);
        out[7 - k] = sub(e[k], o[k]);
    }
}

/** Stores eight int32 rows as int16 with saturation (= clamp). */
WSVA_AVX2 inline void
storeSaturated(const __m256i rows[8], int16_t *out)
{
    for (int i = 0; i < 4; ++i) {
        // packs interleaves 128-bit halves; the permute restores order.
        const __m256i p = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(rows[2 * i], rows[2 * i + 1]), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 16 * i), p);
    }
}

} // namespace

WSVA_AVX2 int
quantizeResidualAvx2(const ResidualBlock &residual, int qp, double deadzone,
                     CoeffBlock &levels)
{
    __m256i rows[8];
    forwardDct(residual, rows);

    const auto offset = static_cast<int64_t>(deadzone * (1 << 20));
    // Levels then stay in [0, 2^21) before the clamp, so their low 32
    // bits are the scalar int64 levels.
    WSVA_ASSERT(offset >= 0 && offset < (int64_t{1} << 40),
                "deadzone %g out of range", deadzone);

    // |coeff| <= 2.7e5 and scale <= 2^20, so mag * scale fits int64
    // and mag fits mul_epi32's signed low dword.
    const auto scale =
        static_cast<int32_t>(residualTables().quant_scale[qp]);
    const __m256i max_level = _mm256_set1_epi32(32767);
    for (int u = 0; u < 8; ++u) {
        const __m256i c = rows[u];
        const Wide prod = mul(split(_mm256_abs_epi32(c)), scale);
        const __m256i level = _mm256_min_epi32(
            narrow<20>(prod, offset), max_level);
        const __m256i sign = _mm256_srai_epi32(c, 31);
        rows[u] = _mm256_sub_epi32(_mm256_xor_si256(level, sign), sign);
    }
    storeSaturated(rows, levels.data());

    int zeros = 0;
    for (int i = 0; i < 4; ++i) {
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(levels.data() + 16 * i));
        zeros += std::popcount(static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi16(l, _mm256_setzero_si256()))));
    }
    return kTxCoeffs - zeros / 2;
}

WSVA_AVX2 void
reconstructResidualAvx2(const CoeffBlock &levels, int qp,
                        ResidualBlock &recon_residual)
{
    __m256i packed[4];
    for (int i = 0; i < 4; ++i)
        packed[i] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(levels.data() + 16 * i));
    const __m256i any = _mm256_or_si256(_mm256_or_si256(packed[0], packed[1]),
                                        _mm256_or_si256(packed[2], packed[3]));
    if (_mm256_testz_si256(any, any)) {
        // An all-zero block inverts to zeros exactly.
        for (int i = 0; i < 4; ++i)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(recon_residual.data() + 16 * i),
                _mm256_setzero_si256());
        return;
    }

    // Dequantize: |level * dequant| <= 32768 * 212 fits int32.
    const __m256i dq = _mm256_set1_epi32(residualTables().dequant[qp]);
    __m256i x[8];
    for (int u = 0; u < 8; ++u)
        x[u] = _mm256_mullo_epi32(
            _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(levels.data() + 8 * u))),
            dq);

    // Pass 1 down each column (lane = column): tmp = int32(sum >> 6).
    Wide sums[8];
    inversePass(x, sums);
    for (int k = 0; k < 8; ++k)
        x[k] = narrow<kStage1Shift>(sums[k], 0);
    // Pass 2 along each row of tmp.
    transpose(x);
    inversePass(x, sums);
    for (int l = 0; l < 8; ++l)
        x[l] = narrow<kStage2Shift>(sums[l], kStage2Round);
    transpose(x);
    storeSaturated(x, recon_residual.data());
}

} // namespace wsva::video::codec::x86

#endif // WSVA_CODEC_X86
