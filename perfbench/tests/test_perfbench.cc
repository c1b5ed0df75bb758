// Tests of the benchmark itself: its metric tables agree with
// BENCHMARK.json, its checks catch a corrupted output or ledger, and a
// traced run of every workload (at a tiny size) reports every
// per-layer metric.

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "host.h"
#include "report.h"
#include "video/synth.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const std::regex kName("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
const std::regex kUnit("[A-Za-z0-9_/%.-]{1,16}");

/** (name, unit) pairs of one BENCHMARK.json metric list. */
std::vector<std::pair<std::string, std::string>>
benchmarkJsonMetrics(const std::string &list)
{
    std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    const size_t start = doc.find("\"" + list + "\"");
    EXPECT_NE(start, std::string::npos) << list;
    const size_t end = doc.find(']', start);
    const std::string body = doc.substr(start, end - start);
    const std::regex entry(
        "\\{\\s*\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

void
expectSameTable(const std::vector<MetricDef> &defs, const std::string &list)
{
    const auto json = benchmarkJsonMetrics(list);
    ASSERT_EQ(json.size(), defs.size()) << list;
    for (size_t i = 0; i < defs.size(); ++i) {
        EXPECT_EQ(json[i].first, defs[i].name) << list;
        EXPECT_EQ(json[i].second, defs[i].unit) << defs[i].name;
    }
}

/** Metric names of a result line's "metrics" object. */
std::set<std::string>
resultKeys(const std::string &line)
{
    std::set<std::string> keys;
    const std::regex key("\"([^\"]+)\": \\{\"value\"");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), key);
         it != std::sregex_iterator(); ++it)
        keys.insert((*it)[1]);
    return keys;
}

RunOptions
options(const std::string &workload, bool trace)
{
    RunOptions o;
    o.workload = workload;
    o.seed = 3;
    o.seconds = 1.0;
    o.trace = trace;
    return o;
}

VodParams
tinyVod()
{
    VodParams p;
    p.width = 64;
    p.frames = 4;
    p.chunk_frames = 2;
    p.ladder = {{64, 36}, {32, 18}};
    p.clips = 2;
    return p;
}

/** Every per-layer metric is present; the ones named must be > 0 and
 *  the layers the workload bypasses must read 0. */
void
expectLayers(const RunReport &r, const std::vector<std::string> &positive,
             const std::vector<std::string> &zero)
{
    EXPECT_TRUE(r.correct()) << (r.errors.empty() ? "" : r.errors[0]);
    for (const auto &d : layerMetrics())
        EXPECT_EQ(r.layers.count(d.name), 1u) << d.name;
    for (const auto &n : positive)
        EXPECT_GT(r.layers.at(n), 0.0) << n;
    for (const auto &n : zero)
        EXPECT_EQ(r.layers.at(n), 0.0) << n;
    EXPECT_EQ(resultKeys(resultLine(r)).size(), layerMetrics().size());
}

} // namespace

TEST(PerfbenchMetrics, NamesAreValidUniqueAndCarryUnits)
{
    for (const auto *table :
         {&endToEndMetrics(), &layerMetrics(), &summaryMetrics()}) {
        std::set<std::string> seen;
        for (const auto &d : *table) {
            EXPECT_TRUE(std::regex_match(d.name, kName)) << d.name;
            EXPECT_TRUE(std::regex_match(d.unit, kUnit))
                << d.name << " " << d.unit;
            EXPECT_TRUE(seen.insert(d.name).second) << d.name;
        }
    }
}

TEST(PerfbenchMetrics, TablesMatchBenchmarkJson)
{
    expectSameTable(endToEndMetrics(), "end_to_end");
    expectSameTable(layerMetrics(), "per_layer");
}

TEST(PerfbenchMetrics, UntracedResultLineCarriesExactlyTheEndToEndMetrics)
{
    const RunReport r = runVod(options("vod_transcode", false), tinyVod());
    EXPECT_TRUE(r.correct());
    EXPECT_EQ(exitCode(r), 0);
    std::set<std::string> want;
    for (const auto &d : endToEndMetrics()) {
        want.insert(d.name);
        EXPECT_GT(r.e2e.at(d.name), 0.0) << d.name;
    }
    EXPECT_EQ(resultKeys(resultLine(r)), want);
    EXPECT_EQ(r.summary.at("error_rate"), 0.0);
}

TEST(PerfbenchChecks, TamperedRungByteCountsInErrorRate)
{
    wsva::video::SynthSpec spec;
    spec.width = 64;
    spec.height = 36;
    spec.frame_count = 4;
    const auto source = wsva::video::generateVideo(spec);
    wsva::platform::PipelineConfig cfg;
    cfg.chunk_frames = 2;
    cfg.num_threads = 1;
    auto result = wsva::platform::transcodeMot(
        source, {{64, 36}, {32, 18}}, wsva::video::codec::CodecType::VP9,
        cfg);
    SpanRecorder spans;

    RunReport clean;
    const ClipQuality q =
        checkTranscode(result, source, nullptr, true, spans, 1, clean);
    EXPECT_EQ(clean.attempted, 2u);
    EXPECT_EQ(clean.failed, 0u);
    EXPECT_TRUE(clean.correct());

    auto &bytes = result.variants[1].chunks[0].bytes;
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x5a;
    RunReport tampered;
    checkTranscode(result, source, &q.rung_hashes, true, spans, 1,
                   tampered);
    EXPECT_EQ(tampered.attempted, 2u);
    EXPECT_EQ(tampered.failed, 1u);
    EXPECT_DOUBLE_EQ(tampered.errorRate(), 0.5);
    EXPECT_FALSE(tampered.correct());
    EXPECT_NE(exitCode(tampered), 0);
}

TEST(PerfbenchHost, RescalesToTheNominalHostSpeed)
{
    const double nominal = ReferenceKernel::kNominalSeconds;
    // A host running the kernel at half speed ran the code at half
    // speed too: the time at nominal speed is half the measured one.
    EXPECT_DOUBLE_EQ(
        atNominalSpeed(3.0, {2 * nominal, 9 * nominal, 2 * nominal}), 1.5);
    EXPECT_DOUBLE_EQ(atNominalSpeed(3.0, {}), 3.0);
    ReferenceKernel kernel;
    EXPECT_GT(kernel.sample(), 0.0);
}

TEST(PerfbenchChecks, BrokenLedgerFailsTheRun)
{
    wsva::cluster::ClusterConfig cfg;
    cfg.hosts = 1;
    wsva::cluster::ClusterSim sim(cfg);
    for (uint64_t id = 0; id < 30; ++id)
        sim.submit(wsva::cluster::makeMotStep(
            id, id, 0, {1280, 720}, wsva::video::codec::CodecType::VP9));
    const auto m = sim.run(60.0, 1.0);
    auto snap = sim.conservation();

    RunReport ok;
    ok.attempted = snap.submitted;
    EXPECT_TRUE(checkLedger(m, snap, ok));
    EXPECT_TRUE(ok.correct());

    const std::string before = ledgerFingerprint(m, snap);
    ++snap.completed; // A step counted twice: the ledger no longer holds.
    EXPECT_NE(ledgerFingerprint(m, snap), before);
    RunReport broken;
    broken.attempted = snap.submitted;
    EXPECT_FALSE(checkLedger(m, snap, broken));
    EXPECT_EQ(broken.failed, 1u);
    EXPECT_NE(exitCode(broken), 0);

    auto violated = m;
    ++violated.conservation_violations;
    RunReport audit;
    audit.attempted = 1;
    EXPECT_FALSE(checkLedger(violated, sim.conservation(), audit));
    EXPECT_NE(exitCode(audit), 0);
}

TEST(PerfbenchTrace, VodNamesEveryLayerMetricAndBypassesTheCluster)
{
    const RunReport r = runVod(options("vod_transcode", true), tinyVod());
    expectLayers(r,
                 {"codec.encode_chunk_s", "codec.encode_jobs",
                  "codec.dct_quant_calls", "codec.motion_search_calls",
                  "video.psnr_db", "codec.kbps", "prof.coverage"},
                 {"cluster.run_s", "cluster.dispatch_calls",
                  "cluster.events", "telemetry.share", "workload.steps"});
    EXPECT_NE(r.spans_json.find("\"transcode\""), std::string::npos);
}

TEST(PerfbenchTrace, LiveSurgeScrapesTelemetryWhileItRuns)
{
    LiveParams p;
    p.hosts = 20;
    p.batch_prefill = 420;
    p.batch_per_second = 4.0;
    p.horizon_s = 30.0;
    p.surge_start_s = 10.0;
    p.surge_end_s = 15.0;
    p.scrape_period_s = 0.001;
    const RunReport r =
        runLiveSurge(options("live_surge_observed", true), p);
    expectLayers(r,
                 {"cluster.events", "telemetry.publish_s",
                  "telemetry.share", "telemetry.scrapes"},
                 {"codec.encode_jobs", "pool.jobs"});
    EXPECT_GT(r.summary.count("live_miss_rate"), 0u);
}

TEST(PerfbenchTrace, PodRunsTheTickEngine)
{
    PodParams p;
    p.horizon_s = 300.0;
    const RunReport r = runPodSaturated(options("pod_saturated", true), p);
    expectLayers(r,
                 {"cluster.ns_per_tick", "cluster.collect_s",
                  "cluster.backlog_end", "cluster.dispatch_calls"},
                 {"codec.encode_jobs", "cluster.events"});
}
