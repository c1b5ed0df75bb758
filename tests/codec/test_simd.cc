/**
 * @file
 * Differential tests: each SIMD codec kernel against its scalar
 * reference, called directly, on random blocks, int16 and level
 * extremes, every qp, and interior, border and past-border positions.
 * On x86-64 the mc.h entry points are the SSE2 kernels; the AVX2
 * residual kernels are called by name and skipped on CPUs without
 * AVX2.
 */

#include "video/codec/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace wsva::video::codec {
namespace {

ResidualBlock
randomResidual(wsva::Rng &rng, int amplitude)
{
    ResidualBlock r;
    for (auto &v : r)
        v = static_cast<int16_t>(std::clamp(
            rng.uniformRange(-amplitude, amplitude), -32768, 32767));
    return r;
}

CoeffBlock
randomLevels(wsva::Rng &rng, int amplitude, int density_pct)
{
    CoeffBlock l;
    for (auto &v : l)
        v = static_cast<int>(rng.uniformInt(100)) < density_pct
                ? static_cast<int16_t>(std::clamp(
                      rng.uniformRange(-amplitude, amplitude), -32768,
                      32767))
                : int16_t{0};
    return l;
}

/**
 * Blocks at the int16 limits: all one sign, checkerboards, striped
 * rows and columns, and each 8x8 DCT basis function's sign pattern
 * (the worst case for its sum), each at @p magnitude and negated.
 */
template <typename Block>
std::vector<Block>
extremeBlocks(int magnitude)
{
    std::vector<Block> out;
    auto add = [&](auto sign_of) {
        for (int s : {1, -1}) {
            Block b;
            for (int r = 0; r < kTxSize; ++r)
                for (int c = 0; c < kTxSize; ++c)
                    b[static_cast<size_t>(r * kTxSize + c)] =
                        static_cast<int16_t>(std::clamp(
                            s * sign_of(r, c) * magnitude, -32768, 32767));
            out.push_back(b);
        }
    };
    add([](int, int) { return 1; });
    add([](int r, int c) { return (r + c) % 2 == 0 ? 1 : -1; });
    add([](int r, int) { return r % 2 == 0 ? 1 : -1; });
    add([](int, int c) { return c % 2 == 0 ? 1 : -1; });
    const auto &g = residualTables().basis;
    for (int u = 0; u < kTxSize; ++u)
        for (int v = 0; v < kTxSize; ++v)
            add([&g, u, v](int r, int c) {
                return (g[u][r] >= 0) == (g[v][c] >= 0) ? 1 : -1;
            });
    return out;
}

#if WSVA_CODEC_X86

class ResidualAvx2 : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!x86::hasAvx2())
            GTEST_SKIP() << "CPU has no AVX2";
    }

    static void expectQuantizeMatches(const ResidualBlock &in, int qp,
                                      double deadzone)
    {
        CoeffBlock got;
        CoeffBlock want;
        const int got_nz = x86::quantizeResidualAvx2(in, qp, deadzone, got);
        const int want_nz = scalar::quantizeResidual(in, qp, deadzone, want);
        ASSERT_EQ(got, want) << "qp " << qp << " deadzone " << deadzone;
        ASSERT_EQ(got_nz, want_nz) << "qp " << qp;
    }

    static void expectReconstructMatches(const CoeffBlock &levels, int qp)
    {
        ResidualBlock got;
        ResidualBlock want;
        got.fill(77); // Must be overwritten, zero blocks included.
        x86::reconstructResidualAvx2(levels, qp, got);
        scalar::reconstructResidual(levels, qp, want);
        ASSERT_EQ(got, want) << "qp " << qp;
    }
};

TEST_F(ResidualAvx2, QuantizeMatchesScalarOnRandomBlocksAtEveryQp)
{
    wsva::Rng rng(71);
    for (int qp = 0; qp <= kMaxQp; ++qp) {
        for (int trial = 0; trial < 200; ++trial) {
            const int amplitude =
                trial % 4 == 0 ? 32768 : (trial % 4 == 1 ? 4096 : 255);
            const double deadzone = trial % 3 == 0 ? 0.33 : 0.45;
            expectQuantizeMatches(randomResidual(rng, amplitude), qp,
                                  deadzone);
        }
    }
}

TEST_F(ResidualAvx2, QuantizeMatchesScalarAtInt16Extremes)
{
    for (int magnitude : {32767, 32768})
        for (const auto &in : extremeBlocks<ResidualBlock>(magnitude))
            for (int qp = 0; qp <= kMaxQp; ++qp)
                expectQuantizeMatches(in, qp, 0.33);
}

TEST_F(ResidualAvx2, QuantizeMatchesScalarAcrossDeadzones)
{
    // The AVX2 kernel takes any deadzone in [0, 2^20), beyond the
    // encoder's [0, 0.5).
    wsva::Rng rng(72);
    for (double deadzone : {0.0, 0.1, 0.4999, 0.75, 1.5}) {
        for (int qp : {0, 1, 20, 40, kMaxQp}) {
            for (int trial = 0; trial < 20; ++trial)
                expectQuantizeMatches(randomResidual(rng, 32768), qp,
                                      deadzone);
        }
    }
}

TEST_F(ResidualAvx2, ReconstructMatchesScalarOnRandomLevelsAtEveryQp)
{
    wsva::Rng rng(73);
    for (int qp = 0; qp <= kMaxQp; ++qp) {
        for (int trial = 0; trial < 200; ++trial) {
            const int amplitude =
                trial % 4 == 0 ? 32768 : (trial % 4 == 1 ? 512 : 8);
            const int density = trial % 5 == 0 ? 100 : 1 + trial % 40;
            expectReconstructMatches(randomLevels(rng, amplitude, density),
                                     qp);
        }
    }
}

TEST_F(ResidualAvx2, ReconstructMatchesScalarAtLevelExtremes)
{
    // +-32767 and -32768 levels at qp 63 drive the inverse pass 1
    // sums past int32; the stored (sum >> 6) must wrap as the scalar
    // one does, and the output saturate like its clamp.
    for (int magnitude : {32767, 32768})
        for (const auto &levels : extremeBlocks<CoeffBlock>(magnitude))
            for (int qp = 0; qp <= kMaxQp; ++qp)
                expectReconstructMatches(levels, qp);
}

TEST_F(ResidualAvx2, ReconstructZeroAndSingleLevelBlocks)
{
    CoeffBlock levels;
    levels.fill(0);
    for (int qp = 0; qp <= kMaxQp; ++qp)
        expectReconstructMatches(levels, qp);
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        for (int16_t v : {int16_t{1}, int16_t{-1}, int16_t{-32768}}) {
            levels.fill(0);
            levels[i] = v;
            expectReconstructMatches(levels, kMaxQp);
        }
    }
}

TEST_F(ResidualAvx2, EntryPointsUseTheAvx2Kernels)
{
    // With AVX2 present, the public round trip is the AVX2 one.
    wsva::Rng rng(74);
    const ResidualBlock in = randomResidual(rng, 255);
    CoeffBlock levels;
    CoeffBlock want_levels;
    ResidualBlock recon;
    ResidualBlock want_recon;
    EXPECT_EQ(quantizeResidual(in, 30, 0.33, levels),
              x86::quantizeResidualAvx2(in, 30, 0.33, want_levels));
    EXPECT_EQ(levels, want_levels);
    reconstructResidual(levels, 30, recon);
    x86::reconstructResidualAvx2(levels, 30, want_recon);
    EXPECT_EQ(recon, want_recon);
}

#endif // WSVA_CODEC_X86

Plane
randomPlane(int w, int h, uint64_t seed)
{
    wsva::Rng rng(seed);
    Plane p(w, h);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

std::vector<uint8_t>
randomBytes(wsva::Rng &rng, size_t count, int max_value)
{
    std::vector<uint8_t> v(count);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.uniformInt(
            static_cast<uint32_t>(max_value) + 1));
    return v;
}

/** Block sizes: the codec's 4, 8, 16 plus widths that hit each tail. */
constexpr int kSizes[] = {1, 3, 4, 5, 8, 12, 16, 20, 24, 32, 64};

/**
 * Positions from far outside to far inside, on one axis of a plane
 * @p extent samples long: past the border, at its edge, inside it,
 * at the plane edges and in the interior.
 */
std::vector<int>
probePositions(int extent, int n)
{
    std::vector<int> out;
    for (int p : {-kRefBorder - n - 5, -kRefBorder - 1, -kRefBorder,
                  -kRefBorder + 1, -n, -1, 0, 1, extent / 2 - n / 2,
                  extent - n - 1, extent - n, extent - n + 1, extent - 1,
                  extent + kRefBorder - n - 1, extent + kRefBorder - n,
                  extent + kRefBorder - n + 1, extent + kRefBorder + 3})
        out.push_back(p);
    return out;
}

/** SAD of the first @p rows rows of two n x n blocks. */
uint32_t
prefixSad(const uint8_t *a, const uint8_t *b, int n, int rows)
{
    uint32_t sum = 0;
    for (int i = 0; i < rows * n; ++i)
        sum += static_cast<uint32_t>(std::abs(int(a[i]) - int(b[i])));
    return sum;
}

/** The bounded-SAD contract against the exact sum. */
void
expectBoundedContract(uint32_t got, uint32_t exact, uint32_t bound)
{
    if (exact < bound)
        ASSERT_EQ(got, exact) << "bound " << bound;
    else
        ASSERT_GE(got, bound) << "exact " << exact;
}

TEST(PaddedPlane, BorderReadsEqualClampedSamples)
{
    const Plane p = randomPlane(21, 13, 80);
    PaddedPlane padded;
    padded.assign(p, 7);
    const RefView view = padded.view();
    EXPECT_EQ(view.border(), 7);
    for (int y = -7; y < 13 + 7; ++y)
        for (int x = -7; x < 21 + 7; ++x)
            ASSERT_EQ(view.row(y)[x], p.clampedAt(x, y)) << x << "," << y;
    EXPECT_TRUE(view.covers(-7, -7, 21 + 14, 13 + 14));
    EXPECT_FALSE(view.covers(-8, 0, 4, 4));
    EXPECT_FALSE(view.covers(0, 13 + 7 - 3, 4, 4));
}

TEST(SadSse2, BlockSadMatchesScalar)
{
    wsva::Rng rng(81);
    for (int n : kSizes) {
        for (int trial = 0; trial < 50; ++trial) {
            const int max_value = trial % 2 == 0 ? 255 : 3;
            const auto a = randomBytes(rng, static_cast<size_t>(n * n),
                                       max_value);
            const auto b = randomBytes(rng, static_cast<size_t>(n * n),
                                       max_value);
            ASSERT_EQ(blockSad(a.data(), b.data(), n),
                      scalar::blockSad(a.data(), b.data(), n))
                << "n " << n;
        }
    }
    // Extremes: every difference 255.
    std::vector<uint8_t> zeros(64 * 64, 0);
    std::vector<uint8_t> full(64 * 64, 255);
    for (int n : kSizes)
        ASSERT_EQ(blockSad(zeros.data(), full.data(), n),
                  255u * static_cast<uint32_t>(n * n));
}

TEST(SadSse2, BoundedSadKeepsTheEarlyExitContract)
{
    wsva::Rng rng(82);
    for (int n : kSizes) {
        for (int trial = 0; trial < 50; ++trial) {
            const auto a = randomBytes(rng, static_cast<size_t>(n * n), 255);
            const auto b = randomBytes(rng, static_cast<size_t>(n * n), 255);
            const uint32_t exact = scalar::blockSad(a.data(), b.data(), n);
            std::vector<uint32_t> bounds = {
                0u,        1u,        exact / 4, exact / 2,
                exact,     exact + 1, rng.uniformInt(exact + 2),
                UINT32_MAX};
            // Bounds equal to a row prefix's sum: the early exit must
            // still return >= bound where a check lands on it exactly.
            for (int rows = 1; rows < n; ++rows)
                bounds.push_back(prefixSad(a.data(), b.data(), n, rows));
            for (uint32_t bound : bounds) {
                expectBoundedContract(
                    blockSadBounded(a.data(), b.data(), n, bound), exact,
                    bound);
                expectBoundedContract(
                    scalar::blockSadBounded(a.data(), b.data(), n, bound),
                    exact, bound);
            }
        }
    }
}

TEST(SadSse2, SadAgainstBlockMatchesScalarAtEveryPosition)
{
    const Plane ref = randomPlane(48, 40, 83);
    PaddedPlane padded;
    padded.assign(ref, kRefBorder);
    wsva::Rng rng(84);
    for (int n : {4, 5, 8, 16, 24}) {
        const auto cur = randomBytes(rng, static_cast<size_t>(n * n), 255);
        for (int ry : probePositions(ref.height(), n)) {
            for (int rx : probePositions(ref.width(), n)) {
                const uint32_t exact = scalar::sadAgainstBlock(
                    cur.data(), ref, rx, ry, n, UINT32_MAX);
                // Bordered and border-free views, exact and bounded.
                ASSERT_EQ(sadAgainstBlock(cur.data(), padded.view(), rx, ry,
                                          n, UINT32_MAX),
                          exact)
                    << "n " << n << " at " << rx << "," << ry;
                ASSERT_EQ(sadAgainstBlock(cur.data(), ref, rx, ry, n,
                                          UINT32_MAX),
                          exact);
                ASSERT_EQ(scalar::sadAgainstBlock(cur.data(), padded.view(),
                                                  rx, ry, n, UINT32_MAX),
                          exact);
                std::vector<uint32_t> bounds = {exact / 3, exact,
                                                exact + 1};
                std::vector<uint8_t> block(static_cast<size_t>(n * n));
                fetchPatch(ref, rx, ry, n, n, block.data());
                for (int rows = 1; rows < n; ++rows)
                    bounds.push_back(
                        prefixSad(cur.data(), block.data(), n, rows));
                for (uint32_t bound : bounds) {
                    expectBoundedContract(
                        sadAgainstBlock(cur.data(), padded.view(), rx, ry, n,
                                        bound),
                        exact, bound);
                }
            }
        }
    }
}

TEST(SadSse2, SadAtMatchesScalarAtEveryPosition)
{
    const Plane src = randomPlane(48, 40, 85);
    const Plane ref = randomPlane(48, 40, 86);
    PaddedPlane padded;
    padded.assign(ref, kRefBorder);
    for (int n : {4, 8, 16}) {
        for (int y : {0, 8, 40 - n, 40 - n + 2}) {
            for (int x : {0, 8, 48 - n, 48 - n + 3}) {
                for (int dy : probePositions(40, n)) {
                    for (int dx : probePositions(48, n)) {
                        const uint32_t want =
                            scalar::sadAt(src, ref, x, y, n, dx - x, dy - y);
                        ASSERT_EQ(sadAt(src, ref, x, y, n, dx - x, dy - y),
                                  want);
                        ASSERT_EQ(sadAt(src, padded.view(), x, y, n, dx - x,
                                        dy - y),
                                  want)
                            << "n " << n << " at " << x << "," << y;
                    }
                }
            }
        }
    }
}

TEST(McSse2, HalfPelMatchesScalarAtEveryPhaseAndPosition)
{
    const Plane ref = randomPlane(40, 36, 87);
    PaddedPlane padded;
    padded.assign(ref, kRefBorder);
    std::vector<uint8_t> got(64 * 64);
    std::vector<uint8_t> want(64 * 64);
    std::vector<uint8_t> plain(64 * 64);
    for (int n : kSizes) {
        for (int y : probePositions(ref.height(), n)) {
            for (int x : probePositions(ref.width(), n)) {
                for (int phase = 0; phase < 4; ++phase) {
                    // Half-pel vectors, negative fractions included.
                    for (int sign : {1, -1}) {
                        const Mv mv{static_cast<int16_t>(sign * (phase & 1)),
                                    static_cast<int16_t>(
                                        sign * (phase >> 1))};
                        scalar::motionCompensate(ref, x, y, n, mv,
                                                 want.data());
                        motionCompensate(padded.view(), x, y, n, mv,
                                         got.data());
                        motionCompensate(ref, x, y, n, mv, plain.data());
                        ASSERT_TRUE(std::equal(want.begin(),
                                               want.begin() + n * n,
                                               got.begin()))
                            << "n " << n << " at " << x << "," << y
                            << " mv " << mv.x << "," << mv.y;
                        ASSERT_TRUE(std::equal(want.begin(),
                                               want.begin() + n * n,
                                               plain.begin()));
                    }
                }
            }
        }
    }
}

TEST(McSse2, TwoDimensionalPhaseRoundsLikeScalarAtFullScale)
{
    // Four 255s and mixes near the rounding edge of (a+b+c+d+2) >> 2.
    Plane ref(24, 24, 0);
    for (int y = 0; y < 24; ++y)
        for (int x = 0; x < 24; ++x)
            ref.at(x, y) = static_cast<uint8_t>(
                (x + y) % 3 == 0 ? 255 : ((x * 7 + y) % 2 == 0 ? 254 : 1));
    uint8_t got[16 * 16];
    uint8_t want[16 * 16];
    for (int n : {4, 8, 16}) {
        motionCompensate(ref, 2, 2, n, Mv{1, 1}, got);
        scalar::motionCompensate(ref, 2, 2, n, Mv{1, 1}, want);
        ASSERT_TRUE(std::equal(want, want + n * n, got)) << "n " << n;
    }
}

} // namespace
} // namespace wsva::video::codec
