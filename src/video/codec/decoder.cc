#include "video/codec/decoder.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"
#include "video/codec/bitstream.h"
#include "video/codec/entropy.h"
#include "video/codec/intra.h"
#include "video/codec/loop_filter.h"
#include "video/codec/mb_common.h"
#include "video/codec/transform.h"

namespace wsva::video::codec {

namespace {

constexpr int kHalf = kMbSize / 2;

/** Crop a padded frame back to display dimensions. */
Frame
cropFrame(const Frame &src, int w, int h)
{
    if (src.width() == w && src.height() == h)
        return src;
    Frame out(w, h);
    for (int p = 0; p < 3; ++p) {
        const Plane &s = src.plane(p);
        Plane &d = out.plane(p);
        for (int y = 0; y < d.height(); ++y)
            for (int x = 0; x < d.width(); ++x)
                d.at(x, y) = s.at(x, y);
    }
    return out;
}

class DecoderEngine
{
  public:
    explicit DecoderEngine(const SequenceHeader &seq)
        : seq_(seq),
          pw_((seq.width + kMbSize - 1) / kMbSize * kMbSize),
          ph_((seq.height + kMbSize - 1) / kMbSize * kMbSize),
          mb_cols_(pw_ / kMbSize), mb_rows_(ph_ / kMbSize),
          grid_(static_cast<size_t>(mb_cols_ * mb_rows_))
    {
        const Frame grey(pw_, ph_, 128);
        for (auto &r : refs_)
            r.assign(grey);
    }

    /** Decode one frame record; returns false on corrupt payload. */
    bool decodeFrame(const FrameHeader &hdr,
                     const std::vector<uint8_t> &payload,
                     std::vector<Frame> &output);

  private:
    void decodeMb(SyntaxReader &reader, Frame &recon, int mbx, int mby,
                  const FrameHeader &hdr);

    SequenceHeader seq_;
    int pw_;
    int ph_;
    int mb_cols_;
    int mb_rows_;
    std::vector<MbNeighbor> grid_;
    std::array<RefFrame, kNumRefSlots> refs_;
    EntropyModel model_;
};

void
DecoderEngine::decodeMb(SyntaxReader &reader, Frame &recon, int mbx,
                        int mby, const FrameHeader &hdr)
{
    const int x = mbx * kMbSize;
    const int y = mby * kMbSize;
    const Mv mvp = mvPredictor(grid_, mb_cols_, mbx, mby);

    uint8_t pred_y[kMbSize * kMbSize];
    uint8_t pred_u[kHalf * kHalf];
    uint8_t pred_v[kHalf * kHalf];

    bool inter = false;
    Mv grid_mv{};

    bool has_residual = true;
    std::array<CoeffBlock, 4> coeff_y;
    CoeffBlock coeff_u;
    CoeffBlock coeff_v;

    auto readCoeffs = [&] {
        for (auto &cb : coeff_y)
            readCoeffBlock(reader, cb);
        readCoeffBlock(reader, coeff_u);
        readCoeffBlock(reader, coeff_v);
    };

    if (hdr.type == FrameType::Key) {
        const auto mode =
            static_cast<IntraMode>(reader.readUInt(kCtxIntraMode) & 3u);
        intraPredict(recon.y(), x, y, kMbSize, mode, pred_y);
        intraPredict(recon.u(), x / 2, y / 2, kHalf, mode, pred_u);
        intraPredict(recon.v(), x / 2, y / 2, kHalf, mode, pred_v);
        readCoeffs();
    } else if (reader.readBit(kCtxSkip)) {
        // Skip: LAST reference, predictor MV, no residual.
        inter = true;
        grid_mv = mvp;
        std::array<Mv, 4> mvs{mvp, mvp, mvp, mvp};
        std::array<int, 4> ref{kRefLast, kRefLast, kRefLast, kRefLast};
        buildInterPrediction(refs_, mvs.data(), ref.data(), false, false, 0,
                             Mv{}, x, y, pred_y, pred_u, pred_v);
        has_residual = false;
    } else if (reader.readBit(kCtxIsInter) == 0) {
        const auto mode =
            static_cast<IntraMode>(reader.readUInt(kCtxIntraMode) & 3u);
        intraPredict(recon.y(), x, y, kMbSize, mode, pred_y);
        intraPredict(recon.u(), x / 2, y / 2, kHalf, mode, pred_u);
        intraPredict(recon.v(), x / 2, y / 2, kHalf, mode, pred_v);
        readCoeffs();
    } else {
        inter = true;
        const bool split = reader.readBit(kCtxSplit) != 0;
        std::array<Mv, 4> mvs{};
        std::array<int, 4> ref{};
        const int parts = split ? 4 : 1;
        for (int q = 0; q < parts; ++q) {
            ref[static_cast<size_t>(q)] = static_cast<int>(
                reader.readUInt(kCtxRefIdx) % kNumRefSlots);
            const auto dx =
                static_cast<int16_t>(reader.readSInt(kCtxMvdX));
            const auto dy =
                static_cast<int16_t>(reader.readSInt(kCtxMvdY));
            mvs[static_cast<size_t>(q)] = {
                static_cast<int16_t>(mvp.x + dx),
                static_cast<int16_t>(mvp.y + dy)};
        }
        if (!split) {
            for (int q = 1; q < 4; ++q) {
                mvs[static_cast<size_t>(q)] = mvs[0];
                ref[static_cast<size_t>(q)] = ref[0];
            }
        }
        bool compound = false;
        int ref2 = 0;
        Mv mv2{};
        if (seq_.codec == CodecType::VP9 && !split) {
            compound = reader.readBit(kCtxCompound) != 0;
            if (compound) {
                ref2 = static_cast<int>(reader.readUInt(kCtxRefIdx) %
                                        kNumRefSlots);
                mv2 = {static_cast<int16_t>(
                           mvp.x + reader.readSInt(kCtxMvdX)),
                       static_cast<int16_t>(
                           mvp.y + reader.readSInt(kCtxMvdY))};
            }
        }
        grid_mv = mvs[0];
        buildInterPrediction(refs_, mvs.data(), ref.data(), split, compound,
                             ref2, mv2, x, y, pred_y, pred_u, pred_v);
        readCoeffs();
    }

    // Reconstruct into the frame.
    ResidualBlock rres;
    if (has_residual) {
        for (int q = 0; q < 4; ++q) {
            const int qx = (q % 2) * 8;
            const int qy = (q / 2) * 8;
            reconstructResidual(coeff_y[static_cast<size_t>(q)], hdr.qp,
                                rres);
            for (int r = 0; r < 8; ++r) {
                for (int c = 0; c < 8; ++c) {
                    const int idx = (qy + r) * kMbSize + qx + c;
                    const int v = pred_y[idx] +
                                  rres[static_cast<size_t>(r * 8 + c)];
                    recon.y().at(x + qx + c, y + qy + r) =
                        static_cast<uint8_t>(std::clamp(v, 0, 255));
                }
            }
        }
        reconstructResidual(coeff_u, hdr.qp, rres);
        for (int r = 0; r < kHalf; ++r) {
            for (int c = 0; c < kHalf; ++c) {
                const int v = pred_u[r * kHalf + c] +
                              rres[static_cast<size_t>(r * kHalf + c)];
                recon.u().at(x / 2 + c, y / 2 + r) =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
            }
        }
        reconstructResidual(coeff_v, hdr.qp, rres);
        for (int r = 0; r < kHalf; ++r) {
            for (int c = 0; c < kHalf; ++c) {
                const int v = pred_v[r * kHalf + c] +
                              rres[static_cast<size_t>(r * kHalf + c)];
                recon.v().at(x / 2 + c, y / 2 + r) =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
            }
        }
    } else {
        for (int r = 0; r < kMbSize; ++r)
            for (int c = 0; c < kMbSize; ++c)
                recon.y().at(x + c, y + r) = pred_y[r * kMbSize + c];
        for (int r = 0; r < kHalf; ++r) {
            for (int c = 0; c < kHalf; ++c) {
                recon.u().at(x / 2 + c, y / 2 + r) = pred_u[r * kHalf + c];
                recon.v().at(x / 2 + c, y / 2 + r) = pred_v[r * kHalf + c];
            }
        }
    }

    auto &nb = grid_[static_cast<size_t>(mby) *
                         static_cast<size_t>(mb_cols_) +
                     static_cast<size_t>(mbx)];
    nb.coded = true;
    nb.inter = inter;
    nb.mv = inter ? grid_mv : Mv{};
}

bool
DecoderEngine::decodeFrame(const FrameHeader &hdr,
                           const std::vector<uint8_t> &payload,
                           std::vector<Frame> &output)
{
    if (hdr.qp < 0 || hdr.qp > kMaxQp)
        return false;

    if (hdr.type == FrameType::Key)
        model_.reset();

    std::unique_ptr<SyntaxReader> reader;
    std::unique_ptr<GolombSyntaxReader> golomb_reader;
    if (seq_.codec == CodecType::VP9) {
        reader = std::make_unique<ArithSyntaxReader>(model_, payload.data(),
                                                     payload.size());
    } else {
        auto gr = std::make_unique<GolombSyntaxReader>(payload.data(),
                                                       payload.size());
        golomb_reader = std::move(gr);
    }
    SyntaxReader &rd =
        reader ? *reader : static_cast<SyntaxReader &>(*golomb_reader);

    Frame recon(pw_, ph_, 128);
    for (auto &nb : grid_)
        nb = MbNeighbor{};

    for (int mby = 0; mby < mb_rows_; ++mby)
        for (int mbx = 0; mbx < mb_cols_; ++mbx)
            decodeMb(rd, recon, mbx, mby, hdr);

    if (golomb_reader && golomb_reader->overrun())
        return false;

    deblockFrame(recon, hdr.qp);

    if (seq_.codec == CodecType::VP9)
        model_.adapt();

    updateReferences(hdr, recon, refs_);

    if (hdr.show)
        output.push_back(cropFrame(recon, seq_.width, seq_.height));
    return true;
}

} // namespace

std::optional<DecodedChunk>
decodeChunk(const std::vector<uint8_t> &bytes)
{
    auto stream = StreamReader::open(bytes);
    if (!stream)
        return std::nullopt;

    DecoderEngine engine(stream->sequence());
    DecodedChunk out;
    out.codec = stream->sequence().codec;
    out.fps = stream->sequence().fps;

    FrameHeader hdr;
    std::vector<uint8_t> payload;
    while (!stream->atEnd()) {
        if (!stream->nextFrame(hdr, payload))
            return std::nullopt;
        if (!engine.decodeFrame(hdr, payload, out.frames))
            return std::nullopt;
    }
    return out;
}

DecodedChunk
decodeChunkOrDie(const std::vector<uint8_t> &bytes)
{
    auto decoded = decodeChunk(bytes);
    WSVA_ASSERT(decoded.has_value(), "stream failed to decode");
    return std::move(*decoded);
}

} // namespace wsva::video::codec
