/**
 * @file
 * The benchmark workloads and the checks that decide whether a
 * run's outputs are correct. Each workload repeats one seeded unit of
 * work (a pass over the clip set, or one ClusterSim built and run to
 * its horizon) a fixed number of times for the measuring time; every
 * repeat must reproduce the first one's fingerprint. A traced run
 * alternates untraced and traced repeats, so the trace overhead and
 * the "profiling leaves the simulation unchanged" check come from the
 * same process.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "platform/pipeline.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** The workload names, in BENCHMARK.json's order. */
const std::vector<std::string> &workloadNames();

// ---- vod_transcode --------------------------------------------------

struct VodParams
{
    int width = 256;       //!< Source width (16:9).
    int frames = 20;       //!< Frames per clip.
    int chunk_frames = 10; //!< Closed-GOP chunk length.
    std::vector<wsva::video::Resolution> ladder{
        {256, 144}, {192, 108}, {128, 72}, {64, 36}};
    int clips = 15; //!< vbench clips per pass (corpus order).
};

/** What the checks of one clip computed. */
struct ClipQuality
{
    std::vector<uint64_t> rung_hashes; //!< One per rung.
    double psnr_sum_db = 0.0;          //!< Summed over rungs.
    double kbps_sum = 0.0;             //!< Summed over rungs.
};

/** FNV-1a over every chunk's bytes of one rung, in chunk order. */
uint64_t variantHash(const wsva::platform::OutputVariant &variant);

/**
 * Check one transcode of @p source: integrity_ok, each rung's hash
 * equal to @p expected (when non-null) and, when @p decode is set,
 * assembleVariant returning every source frame plus the rung's PSNR
 * against the source scaled to it. A repeat whose hashes match a
 * decoded repeat has the same decode, so later repeats skip it. Adds
 * one attempted operation per rung and one failure per rung that
 * fails any check. Assembly, scaling and PSNR are spanned under
 * @p trace.
 */
ClipQuality checkTranscode(const wsva::platform::TranscodeResult &result,
                           const std::vector<wsva::video::Frame> &source,
                           const std::vector<uint64_t> *expected,
                           bool decode, SpanRecorder &spans,
                           uint64_t trace, RunReport &report);

RunReport runVod(const RunOptions &opts, const VodParams &p = {});

// ---- fleet workloads ------------------------------------------------

struct LiveParams
{
    int hosts = 1000;
    double horizon_s = 150.0; //!< Live arrivals stop here; the run
                              //!< drains one deadline past it.
    int batch_prefill = 21000;
    double batch_per_second = 200.0;
    double surge_start_s = 60.0;
    double surge_end_s = 90.0;
    double scrape_period_s = 0.05;
};

struct PodParams
{
    double uploads_per_second = 6.0;
    double horizon_s = 3600.0;
};

/** Every simulated statistic of one run, as one string. */
std::string ledgerFingerprint(const wsva::cluster::ClusterMetrics &m,
                              const wsva::cluster::ConservationSnapshot &c);

/** Conservation check of one run; a failure counts one failed
 *  operation. Returns whether the ledger held. */
bool checkLedger(const wsva::cluster::ClusterMetrics &m,
                 const wsva::cluster::ConservationSnapshot &c,
                 RunReport &report);

RunReport runLiveSurge(const RunOptions &opts, const LiveParams &p = {});
RunReport runPodSaturated(const RunOptions &opts,
                          const PodParams &p = {});

/** Run opts.workload at its benchmark size. */
RunReport runWorkload(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
