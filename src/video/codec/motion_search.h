/**
 * @file
 * Integer and sub-pel motion estimation.
 *
 * Two integer search strategies mirror the paper's software/hardware
 * split: diamond search (the typical software encoder pattern) and
 * exhaustive window search (what the VCU's SRAM reference store makes
 * affordable — "an exhaustive, multi-resolution motion search ...
 * better results than are typically obtained in software"). Both are
 * followed by half-pel refinement.
 */

#ifndef WSVA_VIDEO_CODEC_MOTION_SEARCH_H
#define WSVA_VIDEO_CODEC_MOTION_SEARCH_H

#include <cstdint>

#include "video/codec/mc.h"
#include "video/frame.h"

namespace wsva::video::codec {

/** Result of a motion search. */
struct MotionResult
{
    Mv mv;            //!< Best vector in half-pel units.
    uint32_t sad = 0; //!< SAD at the best vector (half-pel accurate).
};

/** Search strategy selector. */
enum class SearchKind {
    Diamond,    //!< Software-style gradient descent.
    Exhaustive, //!< Hardware-style full window scan.
};

/**
 * Find the best motion vector for the n x n block at (x, y) of @p src
 * against @p ref.
 *
 * @param pred Predicted MV (search center), half-pel units.
 * @param range Integer-pel search radius around the center.
 * @param mv_cost_bias Added cost per MV-difference unit (favors MVs
 *        near the predictor; keeps the MV field coherent).
 */
MotionResult searchMotion(const Plane &src, const RefView &ref, int x, int y,
                          int n, Mv pred, int range, SearchKind kind,
                          uint32_t mv_cost_bias = 2);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_MOTION_SEARCH_H
