#include "video/codec/transform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"

namespace wsva::video::codec {
namespace {

ResidualBlock
randomResidual(wsva::Rng &rng, int amplitude)
{
    ResidualBlock r;
    for (auto &v : r)
        v = static_cast<int16_t>(rng.uniformRange(-amplitude, amplitude));
    return r;
}

using Freq = std::array<int32_t, kTxCoeffs>;

/**
 * Reference 8x8 DCT: the plain 13-bit fixed-point matrix products the
 * butterfly kernels replace, with int64 accumulators and the same
 * >> 6 headroom shift after the first pass and rounded >> 20 after
 * the second. The kernels must match it bit for bit.
 */
struct ReferenceDct
{
    int32_t basis[kTxSize][kTxSize];

    ReferenceDct()
    {
        for (int u = 0; u < kTxSize; ++u) {
            const double a = u == 0 ? std::sqrt(1.0 / kTxSize)
                                    : std::sqrt(2.0 / kTxSize);
            for (int k = 0; k < kTxSize; ++k)
                basis[u][k] = static_cast<int32_t>(std::lround(
                    a * std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize)) *
                    8192));
        }
    }

    void forward(const ResidualBlock &in, Freq &out) const
    {
        int32_t tmp[kTxSize][kTxSize];
        for (int u = 0; u < kTxSize; ++u)
            for (int col = 0; col < kTxSize; ++col) {
                int64_t acc = 0;
                for (int k = 0; k < kTxSize; ++k)
                    acc += int64_t{basis[u][k]} *
                           in[static_cast<size_t>(k * kTxSize + col)];
                tmp[u][col] = static_cast<int32_t>(acc >> 6);
            }
        for (int u = 0; u < kTxSize; ++u)
            for (int v = 0; v < kTxSize; ++v) {
                int64_t acc = 0;
                for (int k = 0; k < kTxSize; ++k)
                    acc += int64_t{basis[v][k]} * tmp[u][k];
                out[static_cast<size_t>(u * kTxSize + v)] =
                    static_cast<int32_t>((acc + (1 << 19)) >> 20);
            }
    }

    void inverse(const Freq &in, ResidualBlock &out) const
    {
        int32_t tmp[kTxSize][kTxSize];
        for (int k = 0; k < kTxSize; ++k)
            for (int v = 0; v < kTxSize; ++v) {
                int64_t acc = 0;
                for (int u = 0; u < kTxSize; ++u)
                    acc += int64_t{basis[u][k]} *
                           in[static_cast<size_t>(u * kTxSize + v)];
                tmp[k][v] = static_cast<int32_t>(acc >> 6);
            }
        for (int k = 0; k < kTxSize; ++k)
            for (int l = 0; l < kTxSize; ++l) {
                int64_t acc = 0;
                for (int v = 0; v < kTxSize; ++v)
                    acc += int64_t{basis[v][l]} * tmp[k][v];
                const auto value =
                    static_cast<int32_t>((acc + (1 << 19)) >> 20);
                out[static_cast<size_t>(k * kTxSize + l)] =
                    static_cast<int16_t>(std::clamp(value, -32768, 32767));
            }
    }
};

const ReferenceDct &
reference()
{
    static const ReferenceDct r;
    return r;
}

void
expectForwardMatchesReference(const ResidualBlock &in, const char *what)
{
    Freq got;
    Freq want;
    forwardDct(in, got);
    reference().forward(in, want);
    for (size_t i = 0; i < kTxCoeffs; ++i)
        ASSERT_EQ(got[i], want[i]) << what << " coeff " << i;
}

void
expectInverseMatchesReference(const Freq &in, const char *what)
{
    ResidualBlock got;
    ResidualBlock want;
    inverseDct(in, got);
    reference().inverse(in, want);
    for (size_t i = 0; i < kTxCoeffs; ++i)
        ASSERT_EQ(got[i], want[i]) << what << " sample " << i;
}

/**
 * Extreme blocks built from a sign pattern: all +, all -, a
 * checkerboard, alternating rows, alternating columns, and signs
 * matching each basis function's (the worst case for its sum).
 */
std::vector<std::array<int, kTxCoeffs>>
extremeSignPatterns()
{
    std::vector<std::array<int, kTxCoeffs>> out;
    auto add = [&out](auto sign_of) {
        std::array<int, kTxCoeffs> p{};
        for (int r = 0; r < kTxSize; ++r)
            for (int c = 0; c < kTxSize; ++c)
                p[static_cast<size_t>(r * kTxSize + c)] = sign_of(r, c);
        out.push_back(p);
        for (auto &v : p)
            v = -v;
        out.push_back(p);
    };
    add([](int, int) { return 1; });
    add([](int r, int c) { return (r + c) % 2 == 0 ? 1 : -1; });
    add([](int r, int) { return r % 2 == 0 ? 1 : -1; });
    add([](int, int c) { return c % 2 == 0 ? 1 : -1; });
    for (int u = 0; u < kTxSize; ++u)
        for (int v = 0; v < kTxSize; ++v)
            add([u, v](int r, int c) {
                const double b =
                    std::cos((2 * r + 1) * u * M_PI / 16.0) *
                    std::cos((2 * c + 1) * v * M_PI / 16.0);
                return b >= 0 ? 1 : -1;
            });
    return out;
}

TEST(DctDifferential, ForwardMatchesMatrixReferenceOnRandomBlocks)
{
    wsva::Rng rng(31);
    for (int trial = 0; trial < 2000; ++trial) {
        const int amplitude = trial % 4 == 0 ? 32767 : 255;
        expectForwardMatchesReference(randomResidual(rng, amplitude),
                                      "random");
    }
}

TEST(DctDifferential, InverseMatchesMatrixReferenceOnRandomBlocks)
{
    wsva::Rng rng(32);
    for (int trial = 0; trial < 2000; ++trial) {
        const int amplitude = trial % 4 == 0 ? 1 << 22 : 4096;
        Freq in;
        for (auto &v : in)
            v = static_cast<int32_t>(
                rng.uniformRange(-amplitude, amplitude));
        expectInverseMatchesReference(in, "random");
    }
}

TEST(DctDifferential, ForwardMatchesAtFullResidualRange)
{
    // |residual| at the int16 limits is what bounds the int32
    // first-pass accumulator.
    for (int magnitude : {32767, 32768}) {
        for (const auto &signs : extremeSignPatterns()) {
            ResidualBlock in;
            for (size_t i = 0; i < kTxCoeffs; ++i)
                in[i] = static_cast<int16_t>(
                    std::clamp(signs[i] * magnitude, -32768, 32767));
            expectForwardMatchesReference(in, "extreme");
        }
    }
}

TEST(DctDifferential, InverseMatchesAtFullCoefficientRange)
{
    // The largest coefficients dequantize() can produce: +-32767 (and
    // the int16 minimum a bitstream can carry) times the qp-63 step.
    CoeffBlock ones;
    ones.fill(1);
    Freq step;
    dequantize(ones, kMaxQp, step);
    for (int level : {32767, 32768}) {
        const int64_t magnitude = int64_t{level} * step[0];
        for (const auto &signs : extremeSignPatterns()) {
            Freq in;
            for (size_t i = 0; i < kTxCoeffs; ++i)
                in[i] = static_cast<int32_t>(signs[i] * magnitude);
            expectInverseMatchesReference(in, "extreme");
        }
    }
}

TEST(DctDifferential, RoundTripMatchesReferenceThroughQuantizer)
{
    wsva::Rng rng(33);
    for (int qp = 0; qp <= kMaxQp; ++qp) {
        const ResidualBlock in = randomResidual(rng, 255);
        Freq freq;
        reference().forward(in, freq);
        CoeffBlock want_levels;
        quantize(freq, qp, 0.33, want_levels);
        Freq deq;
        dequantize(want_levels, qp, deq);
        ResidualBlock want_recon;
        reference().inverse(deq, want_recon);

        CoeffBlock levels;
        ResidualBlock recon;
        transformQuantize(in, qp, 0.33, levels, recon);
        ASSERT_EQ(levels, want_levels) << "qp " << qp;
        ASSERT_EQ(recon, want_recon) << "qp " << qp;
    }
}

TEST(Reconstruct, AllZeroLevelsGiveZeroResidual)
{
    CoeffBlock zero;
    zero.fill(0);
    for (int qp : {0, 32, kMaxQp}) {
        ResidualBlock recon;
        recon.fill(77); // Must be overwritten, not left alone.
        reconstructResidual(zero, qp, recon);
        for (auto v : recon)
            ASSERT_EQ(v, 0) << "qp " << qp;
    }
}

TEST(Reconstruct, SingleNonzeroLevelIsNotSkipped)
{
    CoeffBlock levels;
    levels.fill(0);
    levels[63] = 1;
    ResidualBlock recon;
    reconstructResidual(levels, kMaxQp, recon);
    Freq deq;
    dequantize(levels, kMaxQp, deq);
    ResidualBlock want;
    reference().inverse(deq, want);
    EXPECT_EQ(recon, want);
    EXPECT_NE(std::count(recon.begin(), recon.end(), 0), kTxCoeffs);
}

TEST(Dct, DcOfFlatBlock)
{
    ResidualBlock flat;
    flat.fill(100);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(flat, freq);
    // Orthonormal DCT: DC = 8 * value.
    EXPECT_NEAR(freq[0], 800, 2);
    for (size_t i = 1; i < kTxCoeffs; ++i)
        ASSERT_NEAR(freq[i], 0, 2) << "coeff " << i;
}

TEST(Dct, InverseRecoversInput)
{
    wsva::Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        ResidualBlock in = randomResidual(rng, 255);
        std::array<int32_t, kTxCoeffs> freq;
        ResidualBlock out;
        forwardDct(in, freq);
        inverseDct(freq, out);
        for (size_t i = 0; i < kTxCoeffs; ++i)
            ASSERT_NEAR(in[i], out[i], 2) << "trial " << trial;
    }
}

TEST(Dct, LinearityUnderScaling)
{
    ResidualBlock in;
    for (size_t i = 0; i < kTxCoeffs; ++i)
        in[i] = static_cast<int16_t>((i * 7) % 50);
    ResidualBlock doubled;
    for (size_t i = 0; i < kTxCoeffs; ++i)
        doubled[i] = static_cast<int16_t>(in[i] * 2);
    std::array<int32_t, kTxCoeffs> f1;
    std::array<int32_t, kTxCoeffs> f2;
    forwardDct(in, f1);
    forwardDct(doubled, f2);
    for (size_t i = 0; i < kTxCoeffs; ++i)
        ASSERT_NEAR(f2[i], 2 * f1[i], 4);
}

TEST(Dct, EnergyConservation)
{
    wsva::Rng rng(10);
    ResidualBlock in = randomResidual(rng, 100);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(in, freq);
    double spatial = 0;
    double spectral = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        spatial += static_cast<double>(in[i]) * in[i];
        spectral += static_cast<double>(freq[i]) * freq[i];
    }
    EXPECT_NEAR(spectral / spatial, 1.0, 0.02);
}

TEST(Qstep, GrowsExponentially)
{
    EXPECT_NEAR(qstep(8) / qstep(0), 2.0, 1e-9);
    EXPECT_NEAR(qstep(40) / qstep(32), 2.0, 1e-9);
    EXPECT_LT(qstep(0), 1.0);
    EXPECT_GT(qstep(63), 150.0);
}

class QuantRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(QuantRoundTrip, ReconstructionErrorBoundedByQstep)
{
    const int qp = GetParam();
    wsva::Rng rng(100 + static_cast<uint64_t>(qp));
    ResidualBlock in = randomResidual(rng, 200);
    CoeffBlock levels;
    ResidualBlock recon;
    transformQuantize(in, qp, 0.5, levels, recon);
    const double step = qstep(qp);
    // Per-coefficient quantization error is <= step/2; the spatial-
    // domain error at any sample is a signed combination of 64 such
    // errors, so allow a few multiples of the step.
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        ASSERT_NEAR(in[i], recon[i], 3.0 * step + 4)
            << "qp " << qp << " index " << i;
    }
    // And the block-level RMS error must be well under one step.
    double sse = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        const double d = static_cast<double>(in[i]) - recon[i];
        sse += d * d;
    }
    EXPECT_LE(std::sqrt(sse / kTxCoeffs), step);
}

TEST_P(QuantRoundTrip, HigherQpNeverMoreNonzeros)
{
    const int qp = GetParam();
    if (qp + 8 > kMaxQp)
        GTEST_SKIP();
    wsva::Rng rng(200 + static_cast<uint64_t>(qp));
    ResidualBlock in = randomResidual(rng, 80);
    CoeffBlock lo_levels;
    CoeffBlock hi_levels;
    ResidualBlock scratch;
    const int nz_lo = transformQuantize(in, qp, 0.4, lo_levels, scratch);
    const int nz_hi =
        transformQuantize(in, qp + 8, 0.4, hi_levels, scratch);
    EXPECT_GE(nz_lo, nz_hi);
}

INSTANTIATE_TEST_SUITE_P(QpSweep, QuantRoundTrip,
                         testing::Values(0, 8, 16, 24, 32, 40, 48, 56, 63));

TEST(Quant, DeadzoneShrinksLevels)
{
    wsva::Rng rng(11);
    ResidualBlock in = randomResidual(rng, 60);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(in, freq);
    CoeffBlock generous;
    CoeffBlock strict;
    quantize(freq, 30, 0.49, generous);
    quantize(freq, 30, 0.10, strict);
    int n_gen = 0;
    int n_strict = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        n_gen += generous[i] != 0;
        n_strict += strict[i] != 0;
        ASSERT_LE(std::abs(strict[i]), std::abs(generous[i]));
    }
    EXPECT_LE(n_strict, n_gen);
}

TEST(Quant, ZeroInputStaysZero)
{
    ResidualBlock zero;
    zero.fill(0);
    CoeffBlock levels;
    ResidualBlock recon;
    const int nz = transformQuantize(zero, 20, 0.4, levels, recon);
    EXPECT_EQ(nz, 0);
    for (auto v : recon)
        ASSERT_EQ(v, 0);
}

TEST(Zigzag, IsAPermutation)
{
    std::set<int> seen(zigzagOrder().begin(), zigzagOrder().end());
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(Zigzag, StartsAlongKnownPath)
{
    const auto &z = zigzagOrder();
    // Standard 8x8 zigzag: 0, 1, 8, 16, 9, 2, 3, 10, ...
    EXPECT_EQ(z[0], 0);
    EXPECT_EQ(z[1], 1);
    EXPECT_EQ(z[2], 8);
    EXPECT_EQ(z[3], 16);
    EXPECT_EQ(z[4], 9);
    EXPECT_EQ(z[5], 2);
}

TEST(Zigzag, OrdersByFrequencyRadius)
{
    // Later scan positions should have, on average, higher u+v.
    const auto &z = zigzagOrder();
    double first_half = 0;
    double second_half = 0;
    for (int i = 0; i < 32; ++i) {
        first_half += z[static_cast<size_t>(i)] / 8 +
                      z[static_cast<size_t>(i)] % 8;
        second_half += z[static_cast<size_t>(i + 32)] / 8 +
                       z[static_cast<size_t>(i + 32)] % 8;
    }
    EXPECT_LT(first_half, second_half);
}

} // namespace
} // namespace wsva::video::codec
