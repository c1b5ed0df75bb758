#include "cluster/work.h"

#include <gtest/gtest.h>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

TEST(Work, MotStepHasFullLadder)
{
    const auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    EXPECT_TRUE(step.isMot());
    EXPECT_EQ(step.outputs.size(), 6u); // 1080p..144p.
    EXPECT_EQ(step.outputs.front().height, 1080);
}

TEST(Work, SotStepSingleOutput)
{
    const auto step = makeSotStep(1, 10, 0, {1920, 1080}, {640, 360},
                                  CodecType::H264);
    EXPECT_FALSE(step.isMot());
    EXPECT_EQ(step.outputs.size(), 1u);
}

TEST(Work, MotOutputPixelsNearTwiceTopRung)
{
    // Footnote 2: the sub-1080p rungs sum to ~0.85x of 1080p, so the
    // whole ladder is ~1.85x the top rung.
    const auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    const double top =
        1920.0 * 1080.0 * step.frames;
    EXPECT_NEAR(step.outputPixels() / top, 1.85, 0.15);
}

TEST(Work, DurationFollowsFpsAndFrames)
{
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    step.frames = 150;
    step.fps = 30.0;
    EXPECT_DOUBLE_EQ(step.durationSeconds(), 5.0);
}

TEST(Work, ResourceNeedScalesWithResolution)
{
    ResourceMappingPolicy policy;
    const auto small =
        makeMotStep(1, 10, 0, {640, 360}, CodecType::VP9);
    const auto large =
        makeMotStep(2, 10, 0, {3840, 2160}, CodecType::VP9);
    const auto need_s = stepResourceNeed(small, policy);
    const auto need_l = stepResourceNeed(large, policy);
    EXPECT_GT(need_l.get(Dim::Encode), 5.0 * need_s.get(Dim::Encode));
    EXPECT_GT(need_l.get(Dim::Decode), 5.0 * need_s.get(Dim::Decode));
}

TEST(Work, MotNeedFitsOneVcu)
{
    // "Few videos require an entire VCU for their MOT" — even a
    // 2160p two-pass MOT must fit in {3000 dec, 10000 enc}.
    ResourceMappingPolicy policy;
    const auto step =
        makeMotStep(1, 10, 0, {3840, 2160}, CodecType::VP9);
    const auto need = stepResourceNeed(step, policy);
    EXPECT_LE(need.get(Dim::Decode), 3000);
    EXPECT_LE(need.get(Dim::Encode), 10000);
}

TEST(Work, SoftwareDecodeOffloadShiftsResources)
{
    ResourceMappingPolicy hw;
    ResourceMappingPolicy offload;
    offload.software_decode_fraction = 0.5;
    const auto step =
        makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    const auto need_hw = stepResourceNeed(step, hw);
    const auto need_off = stepResourceNeed(step, offload);
    EXPECT_LT(need_off.get(Dim::Decode), need_hw.get(Dim::Decode));
    EXPECT_GT(need_off.get(Dim::HostCpu), need_hw.get(Dim::HostCpu));
    EXPECT_GT(need_off.get(Dim::SwDecode), 0);
}

TEST(Work, TwoPassNeedsMoreEncode)
{
    ResourceMappingPolicy policy;
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    step.two_pass = false;
    const double single =
        stepResourceNeed(step, policy).get(Dim::Encode);
    step.two_pass = true;
    const double dual =
        stepResourceNeed(step, policy).get(Dim::Encode);
    EXPECT_GT(dual, single);
}

TEST(Work, ServiceTimeShrinksWithSpeedup)
{
    ResourceMappingPolicy rt;
    rt.allocation_speedup = 1.0;
    ResourceMappingPolicy fast;
    fast.allocation_speedup = 4.0;
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    EXPECT_DOUBLE_EQ(stepServiceSeconds(step, rt), 5.0);
    EXPECT_DOUBLE_EQ(stepServiceSeconds(step, fast), 1.25);
}

TEST(Work, DramFootprintMatchesAppendixA)
{
    // ~700 MiB per 2160p MOT, ~500 MiB per 2160p SOT (plus the
    // two-pass margin our mapping adds when enabled).
    auto mot = makeMotStep(1, 10, 0, {3840, 2160}, CodecType::VP9);
    mot.two_pass = false;
    auto sot = makeSotStep(2, 10, 0, {3840, 2160}, {3840, 2160},
                           CodecType::VP9);
    sot.two_pass = false;
    EXPECT_NEAR(static_cast<double>(stepDramFootprint(mot)) / (1 << 20),
                700.0, 20.0);
    EXPECT_NEAR(static_cast<double>(stepDramFootprint(sot)) / (1 << 20),
                500.0, 20.0);
}

TEST(Work, TinyStepsHaveFootprintFloor)
{
    auto step = makeMotStep(1, 10, 0, {256, 144}, CodecType::VP9);
    EXPECT_GE(stepDramFootprint(step), 48ull << 20);
}

} // namespace
} // namespace wsva::cluster
