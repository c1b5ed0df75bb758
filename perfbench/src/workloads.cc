#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "common/debug_server.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "host.h"
#include "scrape.h"
#include "video/metrics.h"
#include "video/scaler.h"
#include "video/synth.h"
#include "workload/traffic.h"
#include "workload/vbench.h"

namespace perfbench {

using wsva::cluster::ArrivalFn;
using wsva::cluster::ClusterConfig;
using wsva::cluster::ClusterMetrics;
using wsva::cluster::ClusterSim;
using wsva::cluster::ConservationSnapshot;
using wsva::cluster::SimEngine;
using wsva::cluster::TranscodeStep;
using wsva::platform::PipelineConfig;
using wsva::platform::TranscodeResult;
using wsva::video::Frame;
using wsva::video::codec::CodecType;
using wsva::video::codec::RcMode;

using Layers = std::map<std::string, double>;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "vod_transcode", "live_surge_observed", "pod_saturated"};
    return names;
}

namespace {

/** An independent sub-seed of @p seed for stream @p salt. */
uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    // splitmix64 over (seed, salt): distinct salts give independent,
    // reproducible streams.
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

/** Phase lookups in one profile snapshot, in seconds. */
class Profile
{
  public:
    Profile()
        : snap_(wsva::prof::ProfileRegistry::instance().snapshot())
    {
    }
    double incl(const char *phase) const
    {
        const auto *p = find(phase);
        return p == nullptr ? 0.0 : static_cast<double>(p->incl_ns) * 1e-9;
    }
    double excl(const char *phase) const
    {
        const auto *p = find(phase);
        return p == nullptr ? 0.0 : static_cast<double>(p->excl_ns) * 1e-9;
    }
    double calls(const char *phase) const
    {
        const auto *p = find(phase);
        return p == nullptr ? 0.0 : static_cast<double>(p->calls);
    }

  private:
    const wsva::prof::PhaseStat *find(const char *phase) const
    {
        for (const auto &p : snap_.phases) {
            if (p.name == phase)
                return &p;
        }
        return nullptr;
    }
    wsva::prof::ProfileSnapshot snap_;
};

/** Zero the profiler and switch it on or off. */
void
resetProfiler(bool on)
{
    auto &reg = wsva::prof::ProfileRegistry::instance();
    reg.setEnabled(false);
    reg.reset();
    reg.setEnabled(on);
}

/** Runs a fixed number of repeats: one per @p unit_s of measuring
 *  time (the nominal wall time of one repeat on a 4-vCPU VM), at
 *  least two. The count depends only on the arguments, so a faster
 *  build takes no more samples than a slower one. Times are medians
 *  over the repeats: on a shared host the fastest and slowest repeats
 *  are outliers that move far more from run to run than the median.
 *  A run still going at 1.5 times its measuring time (a much slower
 *  host or build) starts no more repeats, so that it ends in time. A
 *  traced run alternates untraced and traced repeats. */
class Schedule
{
  public:
    Schedule(const RunOptions &opts, double unit_s)
        : traced_run_(opts.trace), cap_s_(1.5 * opts.seconds),
          units_(std::max<size_t>(
              2, static_cast<size_t>(opts.seconds / unit_s))),
          t0_(wallSeconds())
    {
    }

    bool more() const
    {
        return done_ < units_ &&
               (done_ < 2 || wallSeconds() - t0_ < cap_s_);
    }

    /** Start the next repeat; returns whether it is traced. */
    bool next() { return done_++ % 2 == 1 && traced_run_; }

  private:
    bool traced_run_;
    double cap_s_;
    size_t units_;
    double t0_;
    size_t done_ = 0;
};

/** Every layer metric, set to 0 (the value of a bypassed layer). */
Layers
zeroLayers()
{
    Layers l;
    for (const auto &d : layerMetrics())
        l[d.name] = 0.0;
    return l;
}

/** Per-metric median across traced repeats. */
Layers
medianLayers(const std::vector<Layers> &units)
{
    Layers out = zeroLayers();
    for (auto &[name, value] : out) {
        std::vector<double> v;
        for (const auto &u : units) {
            const auto it = u.find(name);
            if (it != u.end())
                v.push_back(it->second);
        }
        value = median(v);
    }
    return out;
}

double
overheadPct(const std::vector<double> &dark,
            const std::vector<double> &traced)
{
    const double d = median(dark);
    return d > 0.0 ? (median(traced) / d - 1.0) * 100.0 : 0.0;
}

} // namespace

// ---- vod_transcode --------------------------------------------------

uint64_t
variantHash(const wsva::platform::OutputVariant &variant)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &chunk : variant.chunks) {
        for (const uint8_t b : chunk.bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
        // Chunk boundaries are part of the output.
        h ^= 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

ClipQuality
checkTranscode(const TranscodeResult &result,
               const std::vector<Frame> &source,
               const std::vector<uint64_t> *expected, bool decode,
               SpanRecorder &spans, uint64_t trace, RunReport &report)
{
    ClipQuality q;
    for (size_t r = 0; r < result.variants.size(); ++r) {
        const auto &variant = result.variants[r];
        ++report.attempted;
        q.rung_hashes.push_back(variantHash(variant));
        q.kbps_sum += variant.bitrateBps() / 1e3;
        std::string why;
        if (!result.integrity_ok)
            why = "integrity_ok is false: " + result.integrity_error;

        if (expected != nullptr &&
            (r >= expected->size() || (*expected)[r] != q.rung_hashes[r]) &&
            why.empty())
            why = "bitstream fingerprint differs from the first repeat";

        std::vector<Frame> decoded;
        if (decode) {
            ScopedSpan span(spans, "assemble", trace);
            std::string error;
            decoded = wsva::platform::assembleVariant(variant,
                                                      source.size(), &error);
            if (decoded.size() != source.size() && why.empty())
                why = "assembleVariant returned " +
                      std::to_string(decoded.size()) + " of " +
                      std::to_string(source.size()) + " frames " + error;
        }
        if (decode && decoded.size() == source.size()) {
            std::vector<Frame> ref;
            {
                ScopedSpan span(spans, "scale", trace);
                ref.reserve(source.size());
                for (const auto &f : source)
                    ref.push_back(wsva::video::scaleFrame(
                        f, variant.resolution.width,
                        variant.resolution.height));
            }
            ScopedSpan span(spans, "psnr", trace);
            q.psnr_sum_db += wsva::video::sequencePsnr(ref, decoded);
        }
        if (!why.empty())
            report.fail(wsva::strformat("trace %llu rung %zu: %s",
                                        static_cast<unsigned long long>(trace),
                                        r, why.c_str()));
    }
    return q;
}

RunReport
runVod(const RunOptions &opts, const VodParams &p)
{
    RunReport r;
    r.workload = "vod_transcode";
    r.seed = opts.seed;
    r.traced = opts.trace;

    // Inputs (untimed): the vbench content classes, each re-seeded
    // from the run seed, submitted in a seeded order.
    auto corpus = wsva::workload::vbenchCorpus(p.width, p.frames);
    corpus.resize(std::min(corpus.size(), static_cast<size_t>(p.clips)));
    std::vector<size_t> order(corpus.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    wsva::Rng rng(deriveSeed(opts.seed, 1));
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[rng.uniformInt(static_cast<uint32_t>(i))]);
    std::vector<std::vector<Frame>> clips;
    double media_seconds = 0.0; // Source seconds x rungs per pass.
    for (const size_t i : order) {
        auto spec = corpus[i].spec;
        spec.seed = deriveSeed(opts.seed, 100 + i);
        clips.push_back(wsva::video::generateVideo(spec));
        media_seconds += static_cast<double>(clips.back().size()) *
                         static_cast<double>(p.ladder.size()) / spec.fps;
    }

    PipelineConfig cfg;
    cfg.encoder.rc_mode = RcMode::TwoPassOffline;
    cfg.encoder.target_bitrate_bps = 250e3; // Top rung.
    cfg.encoder.fps = 30.0;
    cfg.chunk_frames = p.chunk_frames;
    cfg.num_threads = 2; // Pool workers; the caller joins them.

    // Nominal wall time of one repeat (set-ups plus one pass) on a
    // 4-vCPU VM; it fixes the repeat count (see Schedule).
    constexpr double kVodUnitSeconds = 6.0;
    // Set-ups per repeat: a repeat's pass is long, so one set-up each
    // would give too few samples for a steady median.
    constexpr int kVodSetupsPerUnit = 3;

    // Set-up, at the start of every repeat: a fresh worker pool and
    // one warm-up chunk through the whole ladder.
    auto warm_spec = corpus[corpus.size() / 2].spec;
    warm_spec.seed = deriveSeed(opts.seed, 99);
    warm_spec.frame_count = p.chunk_frames;
    const std::vector<Frame> warm = wsva::video::generateVideo(warm_spec);
    std::unique_ptr<wsva::ThreadPool> pool;

    SpanRecorder spans;
    ReferenceKernel reference;
    std::vector<std::vector<uint64_t>> expected; // [clip][rung]
    std::vector<double> setups, dark_wall, traced_wall, reference_s;
    std::vector<Layers> traced_layers;
    double psnr_db = 0.0, kbps = 0.0;
    uint64_t dark_attempted = 0, dark_failed = 0;

    Schedule sched(opts, kVodUnitSeconds);
    for (uint64_t unit = 0; sched.more(); ++unit) {
        const bool traced = sched.next();
        resetProfiler(false);
        spans.setEnabled(false);
        for (int k = 0; k < kVodSetupsPerUnit; ++k) {
            pool.reset();
            const double s0 = wallSeconds();
            pool = std::make_unique<wsva::ThreadPool>(cfg.num_threads);
            cfg.pool = pool.get();
            const auto w = wsva::platform::transcodeMot(
                warm, p.ladder, CodecType::VP9, cfg);
            setups.push_back(wallSeconds() - s0);
            if (!w.integrity_ok)
                r.fail("warm-up transcode failed: " + w.integrity_error);
        }

        resetProfiler(traced);
        spans.setEnabled(traced);
        spans.resetTotals();
        const uint64_t attempted0 = r.attempted, failed0 = r.failed;
        double tx_wall = 0.0, tx_cpu = 0.0, psnr_sum = 0.0, kbps_sum = 0.0;
        for (size_t c = 0; c < clips.size(); ++c) {
            const uint64_t trace = unit * 1000 + c + 1;
            reference_s.push_back(reference.sample());
            TranscodeResult res;
            const double w0 = wallSeconds();
            const double c0 = processCpuSeconds();
            {
                ScopedSpan span(spans, "transcode", trace);
                res = wsva::platform::transcodeMot(clips[c], p.ladder,
                                                   CodecType::VP9, cfg);
            }
            tx_wall += wallSeconds() - w0;
            tx_cpu += processCpuSeconds() - c0;
            const auto q = checkTranscode(
                res, clips[c], unit == 0 ? nullptr : &expected[c],
                unit == 0 || traced, spans, trace, r);
            if (unit == 0)
                expected.push_back(q.rung_hashes);
            psnr_sum += q.psnr_sum_db;
            kbps_sum += q.kbps_sum;
        }
        const double rungs =
            static_cast<double>(clips.size() * p.ladder.size());
        if (unit == 0) {
            psnr_db = psnr_sum / rungs;
            kbps = kbps_sum / rungs;
        }
        if (!traced) {
            dark_wall.push_back(tx_wall);
            dark_attempted += r.attempted - attempted0;
            dark_failed += r.failed - failed0;
            continue;
        }
        traced_wall.push_back(tx_wall);
        const Profile prof;
        resetProfiler(false);
        spans.setEnabled(false);
        Layers l;
        const double scale_s = spans.seconds("scale");
        const double encode_s = prof.incl("pipeline/encode_chunk");
        const double dct_s = prof.incl("codec/dct_quant");
        const double me_s = prof.incl("codec/motion_search");
        // codec/interpolate also times the benchmark's own reference
        // scaling; take that share out.
        const double interp_s =
            std::max(0.0, prof.incl("codec/interpolate") - scale_s);
        l["codec.encode_chunk_s"] = encode_s;
        l["codec.encode_jobs"] = prof.calls("pipeline/encode_chunk");
        l["codec.dct_quant_s"] = dct_s;
        l["codec.dct_quant_calls"] = prof.calls("codec/dct_quant");
        l["codec.motion_search_s"] = me_s;
        l["codec.motion_search_calls"] = prof.calls("codec/motion_search");
        l["codec.interpolate_s"] = interp_s;
        l["codec.other_s"] =
            std::max(0.0, encode_s - dct_s - me_s - interp_s);
        l["codec.kbps"] = kbps_sum / rungs;
        l["video.scale_s"] = scale_s;
        l["video.psnr_s"] = spans.seconds("psnr");
        l["video.psnr_db"] = psnr_sum / rungs;
        l["pool.jobs"] = prof.calls("pool/job");
        l["pool.busy_s"] = prof.incl("pool/job");
        l["pool.utilization"] = ratio(
            prof.incl("pool/job"), tx_wall * pool->workerCount());
        l["prof.coverage"] = ratio(encode_s, tx_cpu);
        traced_layers.push_back(std::move(l));
    }

    r.e2e["setup_s"] = atNominalSpeed(median(setups), reference_s);
    r.e2e["realtime_x"] =
        media_seconds / atNominalSpeed(median(dark_wall), reference_s);
    r.e2e["completed_frac"] =
        ratio(static_cast<double>(dark_attempted - dark_failed),
              static_cast<double>(dark_attempted));
    r.e2e["peak_rss_mb"] = static_cast<double>(peakResidentBytes()) / kMiB;

    r.summary["setup_s"] = median(setups);
    r.summary["transcode_fps"] = media_seconds / median(dark_wall) * 30.0;
    r.summary["transcode_psnr_db"] = psnr_db;
    r.summary["transcode_kbps"] = kbps;
    r.summary["peak_rss_mb"] = r.e2e["peak_rss_mb"];
    r.summary["error_rate"] = r.errorRate();
    r.summary["host_speed"] = atNominalSpeed(1.0, reference_s);

    if (opts.trace) {
        r.layers = medianLayers(traced_layers);
        r.layers["trace.overhead_pct"] = overheadPct(dark_wall, traced_wall);
        r.spans_json = spans.toJson();
    }
    return r;
}

// ---- fleet workloads ------------------------------------------------

std::string
ledgerFingerprint(const ClusterMetrics &m, const ConservationSnapshot &c)
{
    using ull = unsigned long long;
    return wsva::strformat(
        "sim_s=%.17g submitted=%llu completed=%llu failed=%llu "
        "retried=%llu corrupt=%llu escaped=%llu pixels=%.17g "
        "corrupt_pixels=%.17g mpix=%.17g enc=%.17g dec=%.17g cpu=%.17g "
        "placed=%llu rejected=%llu backlog=%zu shed=%llu preempted=%llu "
        "shed_left=%zu dl=%llu dl_miss=%llu in_flight=%zu repaired=%llu "
        "disabled=%d quarantined=%d checks=%llu violations=%llu "
        "events=%llu | c.submitted=%llu c.completed=%llu c.failed=%llu "
        "c.in_flight=%llu c.backlog=%llu c.shed=%llu c.rerouted=%llu",
        m.sim_seconds, (ull)m.steps_submitted, (ull)m.steps_completed,
        (ull)m.steps_failed, (ull)m.steps_retried, (ull)m.corrupt_detected,
        (ull)m.corrupt_escaped, m.output_pixels, m.corrupt_pixels,
        m.mpix_per_vcu, m.encoder_utilization, m.decoder_utilization,
        m.host_cpu_utilization, (ull)m.sched_placed,
        (ull)m.sched_rejected, m.backlog_remaining, (ull)m.steps_shed,
        (ull)m.steps_preempted, m.shed_remaining,
        (ull)m.deadline_completions, (ull)m.deadline_misses,
        m.steps_in_flight, (ull)m.hosts_repaired, m.vcus_disabled,
        m.workers_quarantined, (ull)m.conservation_checks,
        (ull)m.conservation_violations, (ull)m.events_processed,
        (ull)c.submitted, (ull)c.completed, (ull)c.failed_terminal,
        (ull)c.in_flight, (ull)c.backlog, (ull)c.shed,
        (ull)c.rerouted_away);
}

bool
checkLedger(const ClusterMetrics &m, const ConservationSnapshot &c,
            RunReport &report)
{
    if (c.holds() && m.conservation_violations == 0)
        return true;
    report.fail(wsva::strformat(
        "step ledger broken: holds=%d violations=%llu", c.holds() ? 1 : 0,
        static_cast<unsigned long long>(m.conservation_violations)));
    return false;
}

namespace {

/** A fresh arrival stream for one repeat. */
struct UnitArrivals
{
    ArrivalFn fn;
    std::shared_ptr<wsva::workload::LiveTraffic> live; //!< Or null.
};

struct FleetScenario
{
    std::string name;
    ClusterConfig cfg;
    double duration_s = 0.0;
    double dt = 1.0;
    /** Nominal wall time of one repeat on a 4-vCPU VM; it fixes the
     *  repeat count (see Schedule). */
    double unit_s = 1.0;
    std::function<UnitArrivals()> arrivals;
    bool serve = false; //!< Attach a DebugServer and scrape it.
    double scrape_period_s = 0.05;
};

struct FleetUnit
{
    bool traced = false;
    double reference_s = 0.0; //!< Reference kernel sample before it.
    double setup_s = 0.0;
    double run_s = 0.0;
    ClusterMetrics m;
    ConservationSnapshot c;
    std::string fingerprint;
    uint64_t live_emitted = 0;
    uint64_t live_on_time = 0;
    double live_p50_s = 0.0;
    double live_p999_s = 0.0;
    ScrapeStats scrapes;
    uint64_t rss_growth = 0; //!< Resident bytes added by construction.
    Layers layers;
};

Layers
fleetLayers(const FleetScenario &sc, const FleetUnit &u, const Profile &prof,
            double arrivals_s)
{
    Layers l;
    const ClusterMetrics &m = u.m;
    l["cluster.run_s"] = u.run_s;
    l["cluster.dispatch_s"] = prof.incl("cluster/dispatch");
    l["cluster.dispatch_calls"] = prof.calls("cluster/dispatch");
    l["cluster.index_s"] = prof.incl("cluster/dispatch/index");
    l["cluster.index_probes"] = prof.calls("cluster/dispatch/index");
    l["cluster.ns_per_probe"] =
        ratio(prof.incl("cluster/dispatch/index") * 1e9,
              prof.calls("cluster/dispatch/index"));
    l["cluster.sched_placed"] = static_cast<double>(m.sched_placed);
    l["cluster.sched_rejected"] = static_cast<double>(m.sched_rejected);
    l["cluster.place_ratio"] =
        ratio(static_cast<double>(m.sched_placed),
              static_cast<double>(m.sched_placed + m.sched_rejected));
    l["cluster.events"] = static_cast<double>(m.events_processed);
    l["cluster.ns_per_event"] =
        ratio(u.run_s * 1e9, static_cast<double>(m.events_processed));
    l["cluster.worker_done_s"] = prof.incl("event/worker_done");
    // The arrival-batch event also runs the traffic generator, which
    // the benchmark times itself (workload.arrivals_s).
    l["cluster.arrival_batch_s"] =
        std::max(0.0, prof.incl("event/arrival_batch") - arrivals_s);
    l["cluster.faults_s"] = prof.incl("event/hard_fault") +
                            prof.incl("event/silent_fault") +
                            prof.incl("cluster/faults");
    l["cluster.repairs_s"] =
        prof.incl("event/repair_done") + prof.incl("cluster/repairs");
    l["cluster.audit_s"] = prof.incl("cluster/audit");
    l["cluster.ns_per_tick"] =
        sc.cfg.engine == SimEngine::Tick
            ? ratio(u.run_s * 1e9, std::round(sc.duration_s / sc.dt))
            : 0.0;
    l["cluster.collect_s"] = prof.incl("cluster/collect");
    l["cluster.backlog_end"] = static_cast<double>(m.backlog_remaining);
    l["cluster.steps_shed"] = static_cast<double>(m.steps_shed);
    l["cluster.steps_preempted"] = static_cast<double>(m.steps_preempted);
    l["cluster.shed_remaining"] = static_cast<double>(m.shed_remaining);
    if (u.live_emitted > 0) {
        l["cluster.live_miss_rate"] =
            1.0 - ratio(static_cast<double>(u.live_on_time),
                        static_cast<double>(u.live_emitted));
        l["cluster.live_p50_s"] = u.live_p50_s;
        l["cluster.live_p999_s"] = u.live_p999_s;
    }
    l["cluster.steps_retried"] = static_cast<double>(m.steps_retried);
    l["cluster.corrupt_escaped"] = static_cast<double>(m.corrupt_escaped);
    l["cluster.mpix_per_vcu"] = m.mpix_per_vcu;
    l["cluster.encoder_utilization"] = m.encoder_utilization;
    const double slo_s = prof.excl("event/slo_eval");
    const double publish_s = prof.incl("cluster/publish");
    l["telemetry.slo_eval_s"] = slo_s;
    l["telemetry.publish_s"] = publish_s;
    l["telemetry.share"] = ratio(slo_s + publish_s, u.run_s);
    const ScrapeStats &s = u.scrapes;
    l["telemetry.scrapes"] = static_cast<double>(s.scrapes);
    l["telemetry.scrape_p50_ms"] = median(s.latency_ms);
    l["telemetry.scrape_max_ms"] =
        s.latency_ms.empty()
            ? 0.0
            : *std::max_element(s.latency_ms.begin(), s.latency_ms.end());
    l["telemetry.scrape_late_ms"] =
        s.late_ms.empty()
            ? 0.0
            : *std::max_element(s.late_ms.begin(), s.late_ms.end());
    l["workload.arrivals_s"] = arrivals_s;
    l["workload.steps"] = static_cast<double>(m.steps_submitted);
    l["prof.coverage"] =
        1.0 - ratio(prof.excl("cluster/run"), prof.incl("cluster/run"));
    return l;
}

FleetUnit
runFleetUnit(const FleetScenario &sc, bool traced, uint64_t unit,
             ReferenceKernel &reference, SpanRecorder &spans,
             RunReport &r)
{
    FleetUnit u;
    u.traced = traced;
    u.reference_s = reference.sample();
    resetProfiler(false);
    spans.setEnabled(traced);
    UnitArrivals arrivals = sc.arrivals(); // Input generator: untimed.

    const uint64_t rss0 = residentBytes();
    const double t0 = wallSeconds();
    std::unique_ptr<ClusterSim> sim;
    std::unique_ptr<wsva::DebugServer> server;
    {
        ScopedSpan span(spans, "setup", unit);
        sim = std::make_unique<ClusterSim>(sc.cfg);
        if (sc.serve) {
            wsva::DebugServerConfig dcfg;
            dcfg.handler_threads = 1;
            server = std::make_unique<wsva::DebugServer>(dcfg);
            sim->attachDebugServer(*server);
            if (!server->start())
                r.fail("debug server failed to start");
        }
    }
    u.setup_s = wallSeconds() - t0;
    const uint64_t rss1 = residentBytes();
    u.rss_growth = rss1 > rss0 ? rss1 - rss0 : 0;

    Scraper scraper;
    if (server != nullptr && server->running())
        scraper.start(server->port(), sc.scrape_period_s, spans, unit);
    const ArrivalFn timed = [&](double now, double dt) {
        ScopedSpan span(spans, "arrivals", unit);
        return arrivals.fn(now, dt);
    };
    spans.resetTotals();
    resetProfiler(traced);
    const double w0 = wallSeconds();
    {
        ScopedSpan span(spans, "run", unit);
        u.m = sim->run(sc.duration_s, sc.dt, timed);
    }
    u.run_s = wallSeconds() - w0;
    const Profile prof;
    resetProfiler(false);
    u.scrapes = scraper.stop();
    spans.setEnabled(false);
    if (server != nullptr)
        server->stop();

    u.c = sim->conservation();
    checkLedger(u.m, u.c, r);
    u.fingerprint = ledgerFingerprint(u.m, u.c);
    if (arrivals.live != nullptr) {
        u.live_emitted = arrivals.live->totalSegments();
        u.live_on_time = u.m.deadline_completions - u.m.deadline_misses;
        u.live_p50_s = sim->slo().liveQuantile(0.5);
        u.live_p999_s = sim->slo().liveQuantile(0.999);
        u.fingerprint += wsva::strformat(
            " live_emitted=%llu",
            static_cast<unsigned long long>(u.live_emitted));
    }
    if (traced)
        u.layers = fleetLayers(sc, u, prof,
                               spans.seconds("arrivals"));
    server.reset(); // Stopped above; handlers read the sim.
    sim.reset();
    return u;
}

RunReport
runFleet(const RunOptions &opts, const FleetScenario &sc)
{
    RunReport r;
    r.workload = sc.name;
    r.seed = opts.seed;
    r.traced = opts.trace;

    SpanRecorder spans;
    ReferenceKernel reference;
    std::vector<FleetUnit> units;
    Schedule sched(opts, sc.unit_s);
    for (uint64_t unit = 1; sched.more(); ++unit)
        units.push_back(
            runFleetUnit(sc, sched.next(), unit, reference, spans, r));

    std::vector<double> setups, dark_run, traced_run, reference_s;
    std::vector<Layers> traced_layers;
    for (size_t i = 0; i < units.size(); ++i) {
        const FleetUnit &u = units[i];
        setups.push_back(u.setup_s);
        reference_s.push_back(u.reference_s);
        if (u.fingerprint != units[0].fingerprint)
            r.fail(wsva::strformat(
                "ledger of repeat %zu (%s) differs from the first: %s vs %s",
                i, u.traced ? "traced" : "untraced", u.fingerprint.c_str(),
                units[0].fingerprint.c_str()));
        r.attempted += u.m.steps_submitted + u.scrapes.scrapes;
        const uint64_t bad = u.c.failed_terminal + u.m.corrupt_escaped +
                             u.scrapes.failed;
        if (bad > 0) {
            r.fail(wsva::strformat(
                "repeat %zu: %llu failed_terminal, %llu corrupt_escaped, "
                "%llu failed scrapes",
                i, static_cast<unsigned long long>(u.c.failed_terminal),
                static_cast<unsigned long long>(u.m.corrupt_escaped),
                static_cast<unsigned long long>(u.scrapes.failed)));
            r.failed += bad - 1;
        }
        if (u.traced) {
            traced_run.push_back(u.run_s);
            traced_layers.push_back(u.layers);
        } else {
            dark_run.push_back(u.run_s);
        }
    }

    const FleetUnit &first = units[0];
    const double completed_frac =
        ratio(static_cast<double>(first.m.steps_completed),
              static_cast<double>(first.m.steps_submitted));
    const double live_miss =
        1.0 - ratio(static_cast<double>(first.live_on_time),
                    static_cast<double>(first.live_emitted));

    r.e2e["setup_s"] = atNominalSpeed(median(setups), reference_s);
    r.e2e["realtime_x"] =
        first.m.sim_seconds / atNominalSpeed(median(dark_run), reference_s);
    r.e2e["completed_frac"] =
        first.live_emitted > 0 ? 1.0 - live_miss : completed_frac;
    r.e2e["peak_rss_mb"] = static_cast<double>(peakResidentBytes()) / kMiB;

    r.summary["setup_s"] = median(setups);
    r.summary["sim_realtime_x"] = first.m.sim_seconds / median(dark_run);
    if (first.live_emitted > 0) {
        r.summary["live_miss_rate"] = live_miss;
        r.summary["live_p50_s"] = first.live_p50_s;
        r.summary["live_p999_s"] = first.live_p999_s;
    } else {
        r.summary["sim_mpix_per_vcu"] = first.m.mpix_per_vcu;
    }
    r.summary["sim_completed_frac"] = completed_frac;
    r.summary["peak_rss_mb"] = r.e2e["peak_rss_mb"];
    r.summary["error_rate"] = r.errorRate();
    r.summary["host_speed"] = atNominalSpeed(1.0, reference_s);

    if (opts.trace) {
        r.layers = medianLayers(traced_layers);
        r.layers["cluster.bytes_per_vcu"] =
            static_cast<double>(first.rss_growth) /
            (sc.cfg.hosts * sc.cfg.vcus_per_host);
        r.layers["trace.overhead_pct"] = overheadPct(dark_run, traced_run);
        r.spans_json = spans.toJson();
    }
    return r;
}

} // namespace

RunReport
runLiveSurge(const RunOptions &opts, const LiveParams &p)
{
    // The live flash-crowd scenario: a fleet prefilled with VCU-sized
    // 4K batch re-encodes, 4K live channels churning with a 10x surge,
    // EDF dispatch and shedding, under light faults. Telemetry stays at
    // its defaults.
    constexpr double kDeadlineSeconds = 5.0;
    constexpr int kBatchFramesBase = 6000;
    constexpr int kBatchFramesSpread = 6000;

    FleetScenario sc;
    sc.name = "live_surge_observed";
    sc.cfg.hosts = p.hosts;
    sc.cfg.vcus_per_host = 20;
    sc.cfg.engine = SimEngine::Event;
    sc.cfg.seed = deriveSeed(opts.seed, 1);
    sc.cfg.track_blast_radius = false;
    sc.cfg.deadline.shed_enabled = true;
    sc.cfg.deadline.slack_guard_seconds = 4.0;
    sc.cfg.slo.p99_target_seconds = 30.0;
    // Light faults. A host goes to repair at its first fault and comes
    // back inside the horizon, so faults and repairs both run. Every
    // corrupt output is caught by the integrity check and retried, so
    // a step that escapes corrupt is an error.
    sc.cfg.vcu_hard_fault_per_hour = 0.01;
    sc.cfg.vcu_silent_fault_per_hour = 0.02;
    sc.cfg.failure.host_fault_threshold = 1;
    sc.cfg.failure.repair_seconds = 60.0;
    sc.cfg.failure.integrity_detect_prob = 1.0;
    // Live arrivals stop at the horizon and the run goes on for one
    // deadline, so every segment is due inside the run.
    sc.duration_s = p.horizon_s + kDeadlineSeconds;
    sc.dt = 0.5;
    sc.unit_s = 0.7;
    sc.serve = true;
    sc.scrape_period_s = p.scrape_period_s;

    wsva::workload::LiveTrafficConfig live;
    live.concurrent_streams = 0;
    live.resolution = {3840, 2160};
    live.segment_seconds = 2.0;
    live.deadline_seconds = kDeadlineSeconds;
    live.channels_per_second = 5.0;
    live.mean_channel_seconds = 60.0;
    live.surge_multiplier = 10.0;
    live.surge_start = p.surge_start_s;
    live.surge_end = p.surge_end_s;
    live.seed = deriveSeed(opts.seed, 2);
    const int frames_offset =
        static_cast<int>(deriveSeed(opts.seed, 3) % kBatchFramesSpread);
    const double batch_per_tick = p.batch_per_second * sc.dt;
    const double horizon = p.horizon_s;
    const int prefill = p.batch_prefill;

    sc.arrivals = [=] {
        auto gen = std::make_shared<wsva::workload::LiveTraffic>(live);
        auto counter = std::make_shared<uint64_t>(0);
        auto carry = std::make_shared<double>(0.0);
        ArrivalFn fn = [=](double now, double dt) {
            std::vector<TranscodeStep> steps;
            if (now <= horizon + 1e-6)
                steps = gen->arrivals(now, dt);
            int n = prefill;
            if (*counter > 0) {
                *carry += batch_per_tick;
                n = static_cast<int>(*carry);
                *carry -= n;
            }
            for (int i = 0; i < n; ++i) {
                const uint64_t id = 1000000000ull + (*counter)++;
                TranscodeStep step = wsva::cluster::makeMotStep(
                    id, id / 8, static_cast<int>(id % 8), {3840, 2160},
                    CodecType::VP9);
                step.frames = kBatchFramesBase +
                              static_cast<int>((id + frames_offset) %
                                               kBatchFramesSpread);
                step.priority = wsva::cluster::Priority::Batch;
                steps.push_back(step);
            }
            return steps;
        };
        return UnitArrivals{fn, gen};
    };
    return runFleet(opts, sc);
}

RunReport
runPodSaturated(const RunOptions &opts, const PodParams &p)
{
    FleetScenario sc;
    sc.name = "pod_saturated";
    sc.cfg.hosts = 1;
    sc.cfg.vcus_per_host = 20;
    sc.cfg.seed = deriveSeed(opts.seed, 1);
    sc.duration_s = p.horizon_s;
    sc.unit_s = 0.4;
    wsva::workload::UploadTrafficConfig t;
    t.uploads_per_second = p.uploads_per_second;
    t.use_mot = true;
    t.seed = deriveSeed(opts.seed, 2);
    sc.arrivals = [t] {
        auto gen = std::make_shared<wsva::workload::UploadTraffic>(t);
        return UnitArrivals{
            [gen](double now, double dt) { return gen->arrivals(now, dt); },
            nullptr};
    };
    return runFleet(opts, sc);
}

RunReport
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "vod_transcode")
        return runVod(opts);
    if (opts.workload == "live_surge_observed")
        return runLiveSurge(opts);
    if (opts.workload == "pod_saturated")
        return runPodSaturated(opts);
    RunReport r;
    r.workload = opts.workload;
    r.fail("unknown workload " + opts.workload);
    return r;
}

} // namespace perfbench
