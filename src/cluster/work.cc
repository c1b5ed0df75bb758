#include "cluster/work.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace wsva::cluster {

using wsva::video::Resolution;
using wsva::video::outputsForInput;

double
TranscodeStep::outputPixels() const
{
    double total = 0.0;
    for (const auto &r : outputs)
        total += static_cast<double>(r.width) * r.height;
    return total * frames;
}

double
TranscodeStep::inputPixels() const
{
    return static_cast<double>(input.width) * input.height * frames;
}

TranscodeStep
makeMotStep(uint64_t id, uint64_t video_id, int chunk_index,
            Resolution input, wsva::video::codec::CodecType codec)
{
    TranscodeStep step;
    step.id = id;
    step.video_id = video_id;
    step.chunk_index = chunk_index;
    step.input = input;
    step.outputs = outputsForInput(input);
    step.codec = codec;
    return step;
}

TranscodeStep
makeSotStep(uint64_t id, uint64_t video_id, int chunk_index,
            Resolution input, Resolution output,
            wsva::video::codec::CodecType codec)
{
    TranscodeStep step;
    step.id = id;
    step.video_id = video_id;
    step.chunk_index = chunk_index;
    step.input = input;
    step.outputs = {output};
    step.codec = codec;
    return step;
}

namespace {

/** Real-time (speedup 1) encoder-core demand of a step, in cores. */
double
encodeCoresRealtime(const TranscodeStep &step,
                    const ResourceMappingPolicy &policy)
{
    double cores = step.outputPixels() / step.durationSeconds() /
                   policy.encoder_core_pixel_rate;
    if (step.two_pass) {
        // First-pass overhead. MOT runs the analysis pass once on
        // the source and shares its statistics across all rungs
        // (Section 2.1: "efficient sharing of control parameters
        // obtained by analysis of the source"), so the overhead is
        // mostly amortized; SOT pays it per output.
        cores *= step.isMot() ? 1.08 : 1.35;
    }
    return cores;
}

/** Real-time hardware decoder-core demand of a step, in cores. */
double
decodeCoresRealtime(const TranscodeStep &step,
                    const ResourceMappingPolicy &policy)
{
    return step.inputPixels() / step.durationSeconds() /
           policy.decoder_core_pixel_rate;
}

} // namespace

double
effectiveSpeedup(const TranscodeStep &step,
                 const ResourceMappingPolicy &policy)
{
    WSVA_ASSERT(step.durationSeconds() > 0, "zero-duration step");
    const double enc1 = encodeCoresRealtime(step, policy);
    const double dec1 = decodeCoresRealtime(step, policy) *
                        (1.0 - policy.software_decode_fraction);
    double speedup = std::max(1.0, policy.allocation_speedup);
    // Leave 5% headroom; never request more than one VCU.
    if (enc1 > 0)
        speedup = std::min(speedup, 9.5 / enc1);
    if (dec1 > 0)
        speedup = std::min(speedup, 2.85 / dec1);
    // Steps larger than a whole VCU at real time stretch in time.
    return std::max(0.2, speedup);
}

ResourceVector
stepResourceNeed(const TranscodeStep &step,
                 const ResourceMappingPolicy &policy)
{
    const double duration = step.durationSeconds();
    WSVA_ASSERT(duration > 0, "zero-duration step");
    const double speedup = effectiveSpeedup(step, policy);

    // Decode: one hardware decode of the input per step (MOT decodes
    // once and fans out). Some of it may be shifted to host CPU
    // software decode via the synthetic dimension.
    const double dec_pixel_rate = step.inputPixels() / duration * speedup;
    const double dec_cores = dec_pixel_rate / policy.decoder_core_pixel_rate;
    const double hw_frac = 1.0 - policy.software_decode_fraction;

    // Encode: all output rungs.
    const double enc_cores = encodeCoresRealtime(step, policy) * speedup;

    ResourceVector need;
    need.set(Dim::Decode, std::ceil(dec_cores * hw_frac * 1000.0));
    need.set(Dim::Encode, std::ceil(enc_cores * 1000.0));
    need.set(Dim::Dram, static_cast<double>(stepDramFootprint(step)));
    // Host CPU: mux/demux, RPC, audio — small; grows with software
    // decode offload (a software decode costs ~3x a hardware one in
    // host cycles).
    const double host_cores =
        0.05 + dec_cores * policy.software_decode_fraction * 3.0;
    need.set(Dim::HostCpu, std::ceil(host_cores * 1000.0));
    if (policy.software_decode_fraction > 0.0) {
        need.set(Dim::SwDecode, std::ceil(dec_cores *
                                          policy.software_decode_fraction *
                                          1000.0));
    }
    return need;
}

double
stepServiceSeconds(const TranscodeStep &step,
                   const ResourceMappingPolicy &policy)
{
    return step.durationSeconds() / effectiveSpeedup(step, policy);
}

uint64_t
stepDramFootprint(const TranscodeStep &step)
{
    // Appendix A.4: ~700 MiB for a 2160p MOT, ~500 MiB for a 2160p
    // SOT; scale by input pixels relative to 2160p, floor for tiny
    // inputs, +~25% when keeping lagged/offline two-pass frames.
    const double rel =
        static_cast<double>(step.input.width) * step.input.height /
        (3840.0 * 2160.0);
    const double base_mib = step.isMot() ? 700.0 : 500.0;
    double mib = base_mib * rel;
    if (step.two_pass)
        mib *= 1.25;
    mib = std::max(mib, 48.0);
    return static_cast<uint64_t>(mib * (1ull << 20));
}

} // namespace wsva::cluster
