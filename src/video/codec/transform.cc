#include "video/codec/transform.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "video/codec/simd.h"

namespace wsva::video::codec {

namespace {

struct DctTables : ResidualTables
{
    DctTables()
    {
        for (int u = 0; u < kTxSize; ++u) {
            const double a = u == 0 ? std::sqrt(1.0 / kTxSize)
                                    : std::sqrt(2.0 / kTxSize);
            for (int k = 0; k < kTxSize; ++k) {
                const double v =
                    a * std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize));
                basis[u][k] = static_cast<int32_t>(
                    std::lround(v * (1 << kBasisBits)));
            }
        }
        // The partial butterflies fold on these symmetries; lround is
        // odd-symmetric, so the rounded basis keeps them exactly.
        for (int u = 0; u < kTxSize; ++u) {
            const int sign = u % 2 == 0 ? 1 : -1;      // About k = 3.5.
            const int half_sign = u % 4 == 0 ? 1 : -1; // Even u, k = 1.5.
            for (int k = 0; k < 4; ++k) {
                WSVA_ASSERT(basis[u][7 - k] == sign * basis[u][k],
                            "DCT basis row %d not (anti)symmetric", u);
                if (u % 2 == 0 && k < 2)
                    WSVA_ASSERT(basis[u][3 - k] == half_sign * basis[u][k],
                                "DCT basis row %d not (anti)symmetric", u);
            }
        }
        for (int qp = 0; qp <= kMaxQp; ++qp) {
            const double step = qstep(qp);
            dequant[qp] = std::max(1,
                static_cast<int>(std::lround(step)));
            quant_scale[qp] = static_cast<int64_t>(
                std::lround((1 << 20) / static_cast<double>(dequant[qp])));
        }
    }
};

} // namespace

const ResidualTables &
residualTables()
{
    static const DctTables t;
    return t;
}

double
qstep(int qp)
{
    WSVA_ASSERT(qp >= 0 && qp <= kMaxQp, "qp %d out of range", qp);
    return 0.9 * std::exp2(static_cast<double>(qp) / 8.0);
}

namespace {

/**
 * 8-point forward DCT of x[0], x[s], ..., x[7s]:
 * out[u] = sum_k basis[u][k] * x[k] by partial butterfly. Even rows
 * of the basis are symmetric about k = 3.5 and odd rows
 * antisymmetric, so the sums fold onto e[k] = x[k] + x[7-k] and
 * o[k] = x[k] - x[7-k]; the even half folds once more about
 * k = 1.5. Integer addition is exact, so every out[u] is the same
 * integer the 64-multiply matrix product forms, from 24 multiplies.
 */
template <typename Acc, typename T>
inline void
forward8(const T *x, int s, Acc out[kTxSize])
{
    const auto &g = residualTables().basis;
    Acc e[4];
    Acc o[4];
    for (int k = 0; k < 4; ++k) {
        e[k] = static_cast<Acc>(x[k * s]) + x[(7 - k) * s];
        o[k] = static_cast<Acc>(x[k * s]) - x[(7 - k) * s];
    }
    const Acc ee0 = e[0] + e[3];
    const Acc ee1 = e[1] + e[2];
    const Acc eo0 = e[0] - e[3];
    const Acc eo1 = e[1] - e[2];
    out[0] = g[0][0] * ee0 + g[0][1] * ee1;
    out[4] = g[4][0] * ee0 + g[4][1] * ee1;
    out[2] = g[2][0] * eo0 + g[2][1] * eo1;
    out[6] = g[6][0] * eo0 + g[6][1] * eo1;
    for (int u = 1; u < kTxSize; u += 2)
        out[u] = g[u][0] * o[0] + g[u][1] * o[1] + g[u][2] * o[2] +
                 g[u][3] * o[3];
}

/**
 * 8-point inverse DCT of x[0], x[s], ..., x[7s]:
 * out[k] = sum_u basis[u][k] * x[u], the transpose of forward8's
 * butterfly (even and odd partial sums, then out[k] = E + O and
 * out[7-k] = E - O). int64 throughout: see the bounds in transform.h.
 */
inline void
inverse8(const int32_t *x, int s, int64_t out[kTxSize])
{
    const auto &g = residualTables().basis;
    int64_t o[4];
    for (int k = 0; k < 4; ++k)
        o[k] = int64_t{g[1][k]} * x[s] + int64_t{g[3][k]} * x[3 * s] +
               int64_t{g[5][k]} * x[5 * s] + int64_t{g[7][k]} * x[7 * s];
    const int64_t eo0 =
        int64_t{g[2][0]} * x[2 * s] + int64_t{g[6][0]} * x[6 * s];
    const int64_t eo1 =
        int64_t{g[2][1]} * x[2 * s] + int64_t{g[6][1]} * x[6 * s];
    const int64_t ee0 = int64_t{g[0][0]} * x[0] + int64_t{g[4][0]} * x[4 * s];
    const int64_t ee1 = int64_t{g[0][1]} * x[0] + int64_t{g[4][1]} * x[4 * s];
    const int64_t e[4] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
    for (int k = 0; k < 4; ++k) {
        out[k] = e[k] + o[k];
        out[7 - k] = e[k] - o[k];
    }
}

} // namespace

void
forwardDct(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out)
{
    // Pass 1 down each column into tmp[u][col]; int32 suffices here.
    int32_t tmp[kTxSize][kTxSize];
    for (int col = 0; col < kTxSize; ++col) {
        int32_t f[kTxSize];
        forward8(in.data() + col, kTxSize, f);
        for (int u = 0; u < kTxSize; ++u)
            tmp[u][col] = f[u] >> kStage1Shift;
    }
    // Pass 2 along each row; the shift removes both basis scales.
    for (int u = 0; u < kTxSize; ++u) {
        int64_t f[kTxSize];
        forward8(tmp[u], 1, f);
        for (int v = 0; v < kTxSize; ++v)
            out[static_cast<size_t>(u * kTxSize + v)] =
                static_cast<int32_t>((f[v] + kStage2Round) >> kStage2Shift);
    }
}

void
inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out)
{
    // Pass 1 down each column into tmp[k][v].
    int32_t tmp[kTxSize][kTxSize];
    for (int v = 0; v < kTxSize; ++v) {
        int64_t x[kTxSize];
        inverse8(in.data() + v, kTxSize, x);
        for (int k = 0; k < kTxSize; ++k)
            tmp[k][v] = static_cast<int32_t>(x[k] >> kStage1Shift);
    }
    for (int k = 0; k < kTxSize; ++k) {
        int64_t x[kTxSize];
        inverse8(tmp[k], 1, x);
        for (int l = 0; l < kTxSize; ++l) {
            const auto value =
                static_cast<int32_t>((x[l] + kStage2Round) >> kStage2Shift);
            out[static_cast<size_t>(k * kTxSize + l)] =
                static_cast<int16_t>(std::clamp(value, -32768, 32767));
        }
    }
}

void
quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
         double deadzone, CoeffBlock &out)
{
    const auto &t = residualTables();
    const int64_t scale = t.quant_scale[qp];
    const auto offset = static_cast<int64_t>(deadzone * (1 << 20));
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        const int32_t c = coeffs[i];
        const int64_t mag = std::abs(static_cast<int64_t>(c));
        const int64_t level = (mag * scale + offset) >> 20;
        const auto clamped =
            static_cast<int16_t>(std::min<int64_t>(level, 32767));
        out[i] = c < 0 ? static_cast<int16_t>(-clamped) : clamped;
    }
}

void
dequantize(const CoeffBlock &levels, int qp,
           std::array<int32_t, kTxCoeffs> &out)
{
    const auto &t = residualTables();
    const int32_t dq = t.dequant[qp];
    for (size_t i = 0; i < kTxCoeffs; ++i)
        out[i] = static_cast<int32_t>(levels[i]) * dq;
}

const std::array<int, kTxCoeffs> &
zigzagOrder()
{
    static const std::array<int, kTxCoeffs> order = [] {
        std::array<int, kTxCoeffs> o{};
        int idx = 0;
        for (int s = 0; s < 2 * kTxSize - 1; ++s) {
            if (s % 2 == 0) {
                // Walk up-right on even diagonals.
                for (int y = std::min(s, kTxSize - 1);
                     y >= std::max(0, s - kTxSize + 1); --y) {
                    o[static_cast<size_t>(idx++)] = y * kTxSize + (s - y);
                }
            } else {
                for (int x = std::min(s, kTxSize - 1);
                     x >= std::max(0, s - kTxSize + 1); --x) {
                    o[static_cast<size_t>(idx++)] = (s - x) * kTxSize + x;
                }
            }
        }
        return o;
    }();
    return order;
}

namespace scalar {

int
quantizeResidual(const ResidualBlock &residual, int qp, double deadzone,
                 CoeffBlock &levels)
{
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(residual, freq);
    quantize(freq, qp, deadzone, levels);
    int nonzero = 0;
    for (auto l : levels)
        nonzero += l != 0;
    return nonzero;
}

void
reconstructResidual(const CoeffBlock &levels, int qp,
                    ResidualBlock &recon_residual)
{
    // All-zero blocks (common at coarse quantizers and on flat or
    // well-predicted content) invert to zeros exactly: the rounding
    // offset stays below the shift.
    if (std::all_of(levels.begin(), levels.end(),
                    [](int16_t l) { return l == 0; })) {
        recon_residual.fill(0);
        return;
    }
    std::array<int32_t, kTxCoeffs> freq;
    dequantize(levels, qp, freq);
    inverseDct(freq, recon_residual);
}

} // namespace scalar

int
quantizeResidual(const ResidualBlock &residual, int qp, double deadzone,
                 CoeffBlock &levels)
{
#if WSVA_CODEC_X86
    if (x86::hasAvx2())
        return x86::quantizeResidualAvx2(residual, qp, deadzone, levels);
#endif
    return scalar::quantizeResidual(residual, qp, deadzone, levels);
}

int
transformQuantize(const ResidualBlock &residual, int qp, double deadzone,
                  CoeffBlock &levels, ResidualBlock &recon_residual)
{
    const int nonzero = quantizeResidual(residual, qp, deadzone, levels);
    reconstructResidual(levels, qp, recon_residual);
    return nonzero;
}

void
reconstructResidual(const CoeffBlock &levels, int qp,
                    ResidualBlock &recon_residual)
{
#if WSVA_CODEC_X86
    if (x86::hasAvx2()) {
        x86::reconstructResidualAvx2(levels, qp, recon_residual);
        return;
    }
#endif
    scalar::reconstructResidual(levels, qp, recon_residual);
}

} // namespace wsva::video::codec
