/**
 * @file
 * Macroblock-level helpers shared by the encoder and decoder.
 *
 * Everything here is used verbatim on both sides of the codec so the
 * prediction loops cannot diverge: motion-vector prediction, chroma
 * MV derivation, inter-prediction assembly, and coefficient-block
 * (de)serialization.
 */

#ifndef WSVA_VIDEO_CODEC_MB_COMMON_H
#define WSVA_VIDEO_CODEC_MB_COMMON_H

#include <array>
#include <cstdint>
#include <vector>

#include "video/codec/bitstream.h"
#include "video/codec/entropy.h"
#include "video/codec/mc.h"
#include "video/codec/transform.h"
#include "video/frame.h"

namespace wsva::video::codec {

constexpr int kMbSize = 16; //!< Luma macroblock dimension.

/** Reference slots (VP9-style naming). */
enum RefSlot : int {
    kRefLast = 0,
    kRefGolden = 1,
    kRefAltRef = 2,
    kNumRefSlots = 3,
};

/** Per-macroblock state needed for neighbor-based prediction. */
struct MbNeighbor
{
    bool coded = false; //!< Any MB (intra or inter) has been coded.
    bool inter = false;
    Mv mv;
};

/** Median-of-neighbors MV predictor (left, top, top-right). */
Mv mvPredictor(const std::vector<MbNeighbor> &grid, int mb_cols, int mbx,
               int mby);

/** Chroma MV derived from a luma MV (both half-pel). */
Mv chromaMv(Mv luma_mv);

/**
 * Assemble the full inter prediction of a macroblock.
 *
 * @param refs Reference frames (with borders) indexed by RefSlot.
 * @param mvs Per-partition MVs: one entry when @p split is false,
 *        four (raster order of 8x8 quadrants) when true.
 * @param ref_idx Per-partition reference slots (same arity as mvs).
 * @param compound Average the primary prediction with @p ref2 /
 *        @p mv2 (16x16 only).
 * @param x,y Luma position of the macroblock.
 * @param pred_y 256-sample output; @p pred_u, @p pred_v 64 samples.
 */
void buildInterPrediction(const std::array<RefFrame, kNumRefSlots> &refs,
                          const Mv *mvs, const int *ref_idx, bool split,
                          bool compound, int ref2, Mv mv2, int x, int y,
                          uint8_t *pred_y, uint8_t *pred_u, uint8_t *pred_v);

/**
 * Store @p recon in every reference slot @p hdr updates, borders
 * included (built once per update).
 */
void updateReferences(const FrameHeader &hdr, const Frame &recon,
                      std::array<RefFrame, kNumRefSlots> &refs);

/** Serialize one 8x8 coefficient block (cbf + zigzag EOB/sig/level). */
void writeCoeffBlock(SyntaxWriter &writer, const CoeffBlock &levels);

/** Parse one 8x8 coefficient block. */
void readCoeffBlock(SyntaxReader &reader, CoeffBlock &levels);

/** Bit-size estimate of a coefficient block for RD decisions. */
int estimateCoeffBits(const CoeffBlock &levels);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_MB_COMMON_H
