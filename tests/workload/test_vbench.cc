#include "workload/vbench.h"

#include <gtest/gtest.h>

#include <set>

#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/metrics.h"

namespace wsva::workload {
namespace {

TEST(Vbench, HasFifteenUniqueClips)
{
    const auto corpus = vbenchCorpus(128, 8);
    EXPECT_EQ(corpus.size(), 15u);
    std::set<std::string> names;
    for (const auto &clip : corpus)
        names.insert(clip.name);
    EXPECT_EQ(names.size(), 15u);
}

TEST(Vbench, ClipLookup)
{
    const auto corpus = vbenchCorpus(128, 8);
    EXPECT_EQ(vbenchClip(corpus, "holi").name, "holi");
    EXPECT_EQ(vbenchClip(corpus, "presentation").spec.screen_content,
              true);
}

TEST(VbenchDeathTest, UnknownClipIsFatal)
{
    const auto corpus = vbenchCorpus(128, 8);
    EXPECT_EXIT(vbenchClip(corpus, "nope"),
                testing::ExitedWithCode(1), "no vbench clip");
}

TEST(Vbench, ClipsGenerateAtRequestedGeometry)
{
    const auto corpus = vbenchCorpus(160, 6);
    for (const auto &clip : corpus) {
        EXPECT_EQ(clip.spec.width, 160) << clip.name;
        EXPECT_EQ(clip.spec.frame_count, 6) << clip.name;
        EXPECT_EQ(clip.spec.width % 2, 0);
        EXPECT_EQ(clip.spec.height % 2, 0);
        auto frame = wsva::video::generateFrameAt(clip.spec, 0);
        EXPECT_TRUE(frame.valid()) << clip.name;
    }
}

TEST(Vbench, EntropySpreadMatchesSuiteDesign)
{
    // The suite's defining property (and Figure 7's): screen content
    // compresses far better than the high-motion noisy clips. Check
    // compressed sizes at a fixed quantizer.
    const auto corpus = vbenchCorpus(128, 8);
    auto encode_bytes = [&](const std::string &name) {
        const auto &clip = vbenchClip(corpus, name);
        auto frames = wsva::video::generateVideo(clip.spec);
        wsva::video::codec::EncoderConfig cfg;
        cfg.codec = wsva::video::codec::CodecType::VP9;
        cfg.width = clip.spec.width;
        cfg.height = clip.spec.height;
        cfg.base_qp = 32;
        cfg.gop_length = 8;
        return wsva::video::codec::encodeSequence(cfg, frames)
            .bytes.size();
    };
    const auto easy = encode_bytes("presentation");
    const auto hard = encode_bytes("holi");
    EXPECT_GT(hard, 2 * easy);
}

/** FNV-1a over every plane of every frame. */
uint64_t
fingerprint(const std::vector<wsva::video::Frame> &frames)
{
    uint64_t h = 1469598103934665603ULL;
    for (const auto &f : frames) {
        for (int p = 0; p < 3; ++p) {
            for (uint8_t b : f.plane(p).data()) {
                h ^= b;
                h *= 1099511628211ULL;
            }
        }
    }
    return h;
}

TEST(Vbench, SeededClipsArePinned)
{
    // Every seeded output downstream (bitstreams, PSNR, benchmark
    // fingerprints) starts from these clips, so they must not depend on
    // the compiler's ISA flags: a build that lets floating-point
    // multiply-adds fuse (-march=native on an FMA host) without
    // -ffp-contract=off changes them; bike and chicken are two clips
    // whose content it changes.
    const auto corpus = vbenchCorpus(256, 4);
    const std::pair<const char *, uint64_t> pinned[] = {
        {"presentation", 0x72a0e38d2d432753ULL},
        {"bike", 0x8a944dfdec2080c2ULL},
        {"chicken", 0xaf7646870afaea6bULL},
    };
    for (const auto &[name, want] : pinned) {
        const auto frames =
            wsva::video::generateVideo(vbenchClip(corpus, name).spec);
        EXPECT_EQ(fingerprint(frames), want)
            << name << " 0x" << std::hex << fingerprint(frames);
    }
}

} // namespace
} // namespace wsva::workload
