#include "report.h"

#include <cmath>

#include "common/logging.h"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"setup_s", "s"},
        {"realtime_x", "x"},
        {"completed_frac", "ratio"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
layerMetrics()
{
    static const std::vector<MetricDef> defs{
        // video/codec, video, platform, common pool -> vod_transcode
        {"codec.encode_chunk_s", "s"},
        {"codec.encode_jobs", "count"},
        {"codec.dct_quant_s", "s"},
        {"codec.dct_quant_calls", "count"},
        {"codec.motion_search_s", "s"},
        {"codec.motion_search_calls", "count"},
        {"codec.interpolate_s", "s"},
        {"codec.other_s", "s"},
        {"codec.kbps", "kbit/s"},
        {"video.scale_s", "s"},
        {"video.psnr_s", "s"},
        {"video.psnr_db", "dB"},
        {"pool.jobs", "count"},
        {"pool.busy_s", "s"},
        {"pool.utilization", "ratio"},
        // cluster dispatch -> live_surge_observed, pod_saturated
        {"cluster.run_s", "s"},
        {"cluster.dispatch_s", "s"},
        {"cluster.dispatch_calls", "count"},
        {"cluster.index_s", "s"},
        {"cluster.index_probes", "count"},
        {"cluster.ns_per_probe", "ns"},
        {"cluster.sched_placed", "count"},
        {"cluster.sched_rejected", "count"},
        {"cluster.place_ratio", "ratio"},
        // cluster events and faults -> live_surge_observed
        {"cluster.events", "count"},
        {"cluster.ns_per_event", "ns"},
        {"cluster.worker_done_s", "s"},
        {"cluster.arrival_batch_s", "s"},
        {"cluster.faults_s", "s"},
        {"cluster.repairs_s", "s"},
        {"cluster.audit_s", "s"},
        // cluster tick loop -> pod_saturated
        {"cluster.ns_per_tick", "ns"},
        {"cluster.collect_s", "s"},
        {"cluster.backlog_end", "count"},
        // cluster memory -> live_surge_observed
        {"cluster.bytes_per_vcu", "B"},
        // cluster shedding -> live_surge_observed
        {"cluster.steps_shed", "count"},
        {"cluster.steps_preempted", "count"},
        {"cluster.shed_remaining", "count"},
        {"cluster.live_miss_rate", "ratio"},
        {"cluster.live_p50_s", "s"},
        {"cluster.live_p999_s", "s"},
        // cluster faults -> live_surge_observed
        {"cluster.steps_retried", "count"},
        {"cluster.corrupt_escaped", "count"},
        {"cluster.mpix_per_vcu", "Mpix/s"},
        {"cluster.encoder_utilization", "ratio"},
        // telemetry -> live_surge_observed (and ~0 elsewhere)
        {"telemetry.slo_eval_s", "s"},
        {"telemetry.publish_s", "s"},
        {"telemetry.share", "ratio"},
        {"telemetry.scrapes", "count"},
        {"telemetry.scrape_p50_ms", "ms"},
        {"telemetry.scrape_max_ms", "ms"},
        {"telemetry.scrape_late_ms", "ms"},
        // workload generators -> live_surge_observed, pod_saturated
        {"workload.arrivals_s", "s"},
        {"workload.steps", "count"},
        // every workload
        {"trace.overhead_pct", "%"},
        {"prof.coverage", "ratio"},
    };
    return defs;
}

const std::vector<MetricDef> &
summaryMetrics()
{
    static const std::vector<MetricDef> defs{
        {"setup_s", "s"},
        {"transcode_fps", "frames/s"},
        {"transcode_psnr_db", "dB"},
        {"transcode_kbps", "kbit/s"},
        {"sim_realtime_x", "x"},
        {"sim_mpix_per_vcu", "Mpix/s"},
        {"sim_completed_frac", "ratio"},
        {"live_miss_rate", "ratio"},
        {"live_p50_s", "s"},
        {"live_p999_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"error_rate", "ratio"},
        {"host_speed", "x"},
    };
    return defs;
}

void
RunReport::fail(const std::string &why)
{
    ++failed;
    errors.push_back(why);
}

std::string
resultLine(const RunReport &r)
{
    const auto &defs = r.traced ? layerMetrics() : endToEndMetrics();
    const auto &values = r.traced ? r.layers : r.e2e;
    std::string metrics;
    for (const auto &d : defs) {
        const auto it = values.find(d.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        metrics += wsva::strformat("%s\"%s\": {\"value\": %.17g, "
                                   "\"unit\": \"%s\"}",
                                   metrics.empty() ? "" : ", ", d.name,
                                   v, d.unit);
    }
    return wsva::strformat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}",
        r.correct() ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), metrics.c_str());
}

void
printReport(std::FILE *out, const RunReport &r)
{
    std::fprintf(out, "perfbench workload=%s seed=%llu trace=%d\n",
                 r.workload.c_str(),
                 static_cast<unsigned long long>(r.seed),
                 r.traced ? 1 : 0);
    std::fprintf(out, "host %s\n", r.host.toJson().c_str());
    for (const auto &e : r.errors)
        std::fprintf(out, "check FAILED %s\n", e.c_str());
    for (const auto &d : summaryMetrics()) {
        const auto it = r.summary.find(d.name);
        if (it != r.summary.end())
            std::fprintf(out, "metric %s %.6g %s\n", d.name, it->second,
                         d.unit);
    }
    if (r.traced) {
        for (const auto &d : layerMetrics()) {
            const auto it = r.layers.find(d.name);
            std::fprintf(out, "layer %s %.6g %s\n", d.name,
                         it == r.layers.end() ? 0.0 : it->second,
                         d.unit);
        }
    }
    std::fprintf(out, "%s\n", resultLine(r).c_str());
    std::fflush(out);
}

int
exitCode(const RunReport &r)
{
    return r.correct() ? 0 : 1;
}

} // namespace perfbench
