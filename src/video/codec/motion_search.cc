#include "video/codec/motion_search.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "common/profiler.h"

namespace wsva::video::codec {

namespace {

/** MV-rate bias: cheap proxy for the bits the MV difference costs. */
uint32_t
mvCost(Mv mv, Mv pred, uint32_t bias)
{
    const auto dx = static_cast<uint32_t>(std::abs(mv.x - pred.x));
    const auto dy = static_cast<uint32_t>(std::abs(mv.y - pred.y));
    return bias * (dx + dy);
}

struct Candidate
{
    int dx; //!< Integer-pel offset from the search center.
    int dy;
    uint32_t cost;
};

/**
 * Cost of the integer candidate (dx, dy) against the cached source
 * block, abandoning the SAD once the total can no longer be below
 * @p bound. The return value is exact when < @p bound and otherwise
 * >= @p bound, so strict less-than acceptance is unaffected.
 */
uint32_t
integerCost(const uint8_t *cur, const RefView &ref, int x, int y, int n,
            int dx, int dy, Mv pred, uint32_t bias, uint32_t bound)
{
    const Mv mv{static_cast<int16_t>(dx * 2), static_cast<int16_t>(dy * 2)};
    const uint32_t mv_cost = mvCost(mv, pred, bias);
    if (mv_cost >= bound)
        return mv_cost;
    return sadAgainstBlock(cur, ref, x + dx, y + dy, n, bound - mv_cost) +
           mv_cost;
}

constexpr uint32_t kNoBound = UINT32_MAX;

} // namespace

MotionResult
searchMotion(const Plane &src, const RefView &ref, int x, int y, int n,
             Mv pred, int range, SearchKind kind, uint32_t mv_cost_bias)
{
    // Per-macroblock phase timer: SAD + refinement dominate encode
    // CPU, and the SIMD roadmap item is ranked off this phase.
    static const int kPhase = prof::phaseId("codec/motion_search");
    prof::ProfScope prof_scope(kPhase);

    // The source block never changes across candidates: fetch it once
    // per macroblock and run every SAD against the cached copy.
    uint8_t cur[64 * 64];
    WSVA_ASSERT(n <= 64, "search block too large");
    extractBlock(src, x, y, n, cur);

    // Search is centered on the rounded integer predictor.
    const int cx = pred.x / 2;
    const int cy = pred.y / 2;

    Candidate best{cx, cy,
                   integerCost(cur, ref, x, y, n, cx, cy, pred,
                               mv_cost_bias, kNoBound)};
    // The zero vector is always a candidate (static content wins big).
    if (cx != 0 || cy != 0) {
        const uint32_t zero_cost = integerCost(cur, ref, x, y, n, 0, 0,
                                               pred, mv_cost_bias,
                                               best.cost);
        if (zero_cost < best.cost)
            best = {0, 0, zero_cost};
    }

    if (kind == SearchKind::Exhaustive) {
        for (int dy = -range; dy <= range; ++dy) {
            for (int dx = -range; dx <= range; ++dx) {
                const uint32_t cost =
                    integerCost(cur, ref, x, y, n, cx + dx, cy + dy, pred,
                                mv_cost_bias, best.cost);
                if (cost < best.cost)
                    best = {cx + dx, cy + dy, cost};
            }
        }
    } else {
        // Large-diamond descent with shrinking step.
        int step = std::max(1, range / 2);
        while (step >= 1) {
            bool improved = true;
            while (improved) {
                improved = false;
                static constexpr std::array<std::array<int, 2>, 4> dirs = {
                    {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
                Candidate local = best;
                for (const auto &d : dirs) {
                    const int dx = best.dx + d[0] * step;
                    const int dy = best.dy + d[1] * step;
                    if (std::abs(dx - cx) > range ||
                        std::abs(dy - cy) > range) {
                        continue;
                    }
                    const uint32_t cost =
                        integerCost(cur, ref, x, y, n, dx, dy, pred,
                                    mv_cost_bias, local.cost);
                    if (cost < local.cost)
                        local = {dx, dy, cost};
                }
                if (local.cost < best.cost) {
                    best = local;
                    improved = true;
                }
            }
            step /= 2;
        }
    }

    // Half-pel refinement around the best integer vector. Two
    // prediction buffers ping-pong so the winning prediction is never
    // recomputed.
    uint8_t pred_a[64 * 64];
    uint8_t pred_b[64 * 64];
    uint8_t *best_pred = pred_a;
    uint8_t *trial_pred = pred_b;

    Mv best_mv{static_cast<int16_t>(best.dx * 2),
               static_cast<int16_t>(best.dy * 2)};
    motionCompensate(ref, x, y, n, best_mv, best_pred);
    uint32_t best_sad = blockSad(cur, best_pred, n);
    uint32_t best_cost = best_sad + mvCost(best_mv, pred, mv_cost_bias);

    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            const Mv mv{static_cast<int16_t>(best.dx * 2 + dx),
                        static_cast<int16_t>(best.dy * 2 + dy)};
            // The MV cost alone can already rule a candidate out; skip
            // the interpolation entirely then.
            const uint32_t mv_cost = mvCost(mv, pred, mv_cost_bias);
            if (mv_cost >= best_cost)
                continue;
            motionCompensate(ref, x, y, n, mv, trial_pred);
            const uint32_t sad =
                blockSadBounded(cur, trial_pred, n, best_cost - mv_cost);
            const uint32_t cost = sad + mv_cost;
            if (cost < best_cost) {
                best_cost = cost;
                best_mv = mv;
                best_sad = sad; // Exact: no early exit on acceptance.
                std::swap(best_pred, trial_pred);
            }
        }
    }

    // Report the pure SAD at the chosen vector (the bias is a search
    // heuristic, not part of the result); already computed above.
    return {best_mv, best_sad};
}

} // namespace wsva::video::codec
