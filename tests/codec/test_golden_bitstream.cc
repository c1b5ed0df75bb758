/**
 * @file
 * Golden bitstreams: seeded encodes whose FNV-1a fingerprints (the
 * bitstream bytes and every plane of every decoded frame) are pinned
 * as literals. A change to the transform, quantizer or reconstruction
 * path that claims to be bit-exact must reproduce them; a deliberate
 * change to coded output updates them and says why.
 *
 * The cases cover both implementation profiles (software with trellis
 * coefficient optimization, hardware without) x both coding profiles
 * x three rate-control settings: a fine constant quantizer (dense
 * coefficient blocks), a coarse one (mostly all-zero blocks) and
 * whole-clip two-pass rate control.
 */

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/synth.h"

namespace wsva::video::codec {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv1a(uint64_t h, const std::vector<uint8_t> &bytes)
{
    for (uint8_t b : bytes) {
        h ^= b;
        h *= kFnvPrime;
    }
    return h;
}

std::string
hex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** "<bitstream hash>/<decoded frames hash>" for one encode. */
std::string
fingerprint(const EncoderConfig &cfg, const std::vector<Frame> &frames)
{
    const EncodedChunk chunk = encodeSequence(cfg, frames);
    const DecodedChunk decoded = decodeChunkOrDie(chunk.bytes);
    uint64_t pixels = kFnvOffset;
    for (const Frame &f : decoded.frames)
        for (int p = 0; p < 3; ++p)
            pixels = fnv1a(pixels, f.plane(p).data());
    return hex(fnv1a(kFnvOffset, chunk.bytes)) + "/" + hex(pixels);
}

std::vector<Frame>
goldenClip()
{
    SynthSpec spec;
    spec.width = 96;
    spec.height = 64;
    spec.frame_count = 10;
    spec.detail = 3;
    spec.objects = 3;
    spec.motion = 3.0;
    spec.pan_speed = 1.0;
    spec.noise_sigma = 2.0;
    spec.seed = 4242;
    return generateVideo(spec);
}

enum class Rate { FineQp, CoarseQp, TwoPass };

struct GoldenCase
{
    const char *name;
    CodecType codec;
    bool hardware;
    Rate rate;
    const char *expected;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

class GoldenBitstream : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenBitstream, EncodeAndDecodeMatchPinnedFingerprint)
{
    const GoldenCase &c = GetParam();
    static const std::vector<Frame> frames = goldenClip();
    EncoderConfig cfg;
    cfg.codec = c.codec;
    cfg.hardware = c.hardware;
    cfg.width = frames[0].width();
    cfg.height = frames[0].height();
    cfg.fps = 30.0;
    cfg.gop_length = 10;
    switch (c.rate) {
    case Rate::FineQp:
        cfg.rc_mode = RcMode::ConstQp;
        cfg.base_qp = 10;
        break;
    case Rate::CoarseQp:
        cfg.rc_mode = RcMode::ConstQp;
        cfg.base_qp = 50;
        break;
    case Rate::TwoPass:
        cfg.rc_mode = RcMode::TwoPassOffline;
        cfg.target_bitrate_bps = 150e3;
        break;
    }
    EXPECT_EQ(fingerprint(cfg, frames), c.expected) << c.name;
}

const GoldenCase kCases[] = {
    {"sw_h264_qp10", CodecType::H264, false, Rate::FineQp,
     "b4b9dcf77b4a2746/a322bf93c188a930"},
    {"sw_h264_qp50", CodecType::H264, false, Rate::CoarseQp,
     "99b0d5706e0b6420/793acd192d3c7e8b"},
    {"sw_h264_twopass", CodecType::H264, false, Rate::TwoPass,
     "318ce5a21988cab7/a9ef61fe6dde38b3"},
    {"sw_vp9_qp10", CodecType::VP9, false, Rate::FineQp,
     "e216b8fb77bac263/022a4795ad3fb34d"},
    {"sw_vp9_qp50", CodecType::VP9, false, Rate::CoarseQp,
     "a2dd20f688682826/a019b482205468a0"},
    {"sw_vp9_twopass", CodecType::VP9, false, Rate::TwoPass,
     "ac8d64ae94598ba6/5489e92618046e87"},
    {"hw_h264_qp10", CodecType::H264, true, Rate::FineQp,
     "063b404fb4207483/58ce6f9f28be73e2"},
    {"hw_h264_qp50", CodecType::H264, true, Rate::CoarseQp,
     "10b794f6bbf9ca59/88de8d3cec3affc7"},
    {"hw_h264_twopass", CodecType::H264, true, Rate::TwoPass,
     "801098f76b128fa8/0a9a9e1af3e19e42"},
    {"hw_vp9_qp10", CodecType::VP9, true, Rate::FineQp,
     "275e669b9006651b/a5cdfe352bd46a3f"},
    {"hw_vp9_qp50", CodecType::VP9, true, Rate::CoarseQp,
     "764010859deed3f2/cb22535c7bcbe1d5"},
    {"hw_vp9_twopass", CodecType::VP9, true, Rate::TwoPass,
     "acb6305fc6597126/d77f56f2f7535b53"},
};

INSTANTIATE_TEST_SUITE_P(
    Seeded, GoldenBitstream, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace wsva::video::codec
