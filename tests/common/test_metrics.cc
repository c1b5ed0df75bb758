#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace wsva {
namespace {

TEST(MetricsRegistry, CountersAccumulate)
{
    MetricsRegistry m;
    EXPECT_EQ(m.counter("x"), 0u);
    m.inc("x");
    m.inc("x", 4);
    EXPECT_EQ(m.counter("x"), 5u);
    EXPECT_EQ(m.counter("absent"), 0u);
}

TEST(MetricsRegistry, GaugesKeepLastValue)
{
    MetricsRegistry m;
    m.setGauge("g", 1.5);
    m.setGauge("g", -2.0);
    EXPECT_DOUBLE_EQ(m.gauge("g"), -2.0);
    EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);
}

TEST(MetricsRegistry, HistogramCreatedOnFirstObserve)
{
    MetricsRegistry m;
    for (int i = 0; i < 100; ++i)
        m.observe("h", i + 0.5, 0.0, 100.0, 100);
    EXPECT_EQ(m.histogramCount("h"), 100u);
    EXPECT_NEAR(m.histogramQuantile("h", 0.5), 50.0, 1.5);
    EXPECT_EQ(m.histogramCount("absent"), 0u);
}

TEST(MetricsRegistry, SeriesRecordsPoints)
{
    MetricsRegistry m;
    for (int t = 0; t < 10; ++t)
        m.sample("s", t, 2.0 * t);
    const auto points = m.seriesSnapshot("s");
    ASSERT_EQ(points.size(), 10u);
    EXPECT_DOUBLE_EQ(points[3].first, 3.0);
    EXPECT_DOUBLE_EQ(points[3].second, 6.0);
}

TEST(MetricsRegistry, SeriesDecimatesPastCap)
{
    MetricsRegistry m;
    const size_t n = MetricsRegistry::kMaxSeriesPoints * 4;
    for (size_t t = 0; t < n; ++t)
        m.sample("s", static_cast<double>(t), 1.0);
    const auto points = m.seriesSnapshot("s");
    EXPECT_LE(points.size(), MetricsRegistry::kMaxSeriesPoints);
    EXPECT_GE(points.size(), MetricsRegistry::kMaxSeriesPoints / 4);
    // First point survives decimation; points stay time-ordered.
    EXPECT_DOUBLE_EQ(points.front().first, 0.0);
    for (size_t i = 1; i < points.size(); ++i)
        EXPECT_LT(points[i - 1].first, points[i].first);
}

TEST(MetricsRegistry, DisabledRecordsNothing)
{
    MetricsRegistry m;
    m.setEnabled(false);
    m.inc("c");
    m.setGauge("g", 3.0);
    m.observe("h", 1.0);
    m.sample("s", 0.0, 1.0);
    EXPECT_EQ(m.counter("c"), 0u);
    EXPECT_DOUBLE_EQ(m.gauge("g"), 0.0);
    EXPECT_EQ(m.histogramCount("h"), 0u);
    EXPECT_TRUE(m.seriesSnapshot("s").empty());
}

TEST(MetricsRegistry, ConcurrentRecordingIsSafe)
{
    MetricsRegistry m;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&m] {
            for (int i = 0; i < 1000; ++i) {
                m.inc("c");
                m.observe("h", i, 0.0, 1000.0, 50);
                m.sample("s", i, i);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(m.counter("c"), 4000u);
    EXPECT_EQ(m.histogramCount("h"), 4000u);
}

TEST(MetricsRegistry, JsonContainsAllSections)
{
    MetricsRegistry m;
    m.inc("steps", 3);
    m.setGauge("util", 0.5);
    m.observe("lat", 10.0, 0.0, 100.0, 10);
    m.sample("backlog", 1.0, 7.0);
    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"steps\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"util\": 0.5"), std::string::npos);
    EXPECT_NE(json.find("\"lat\""), std::string::npos);
    EXPECT_NE(json.find("[1, 7]"), std::string::npos);
}

TEST(MetricsRegistry, ResetClears)
{
    MetricsRegistry m;
    m.inc("c");
    m.reset();
    EXPECT_EQ(m.counter("c"), 0u);
    EXPECT_TRUE(m.enabled());
}

TEST(TraceLog, RecordsTypedEvents)
{
    TraceLog log;
    log.record(TraceEventType::FaultInjected, 10.0, 1, 25);
    log.record(TraceEventType::StepCompleted, 11.0, 1, 25, 7, 3);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.countOf(TraceEventType::FaultInjected), 1u);
    EXPECT_EQ(log.countOf(TraceEventType::StepCompleted), 1u);
    EXPECT_EQ(log.countOf(TraceEventType::HostRepaired), 0u);
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].step_id, 7u);
    EXPECT_EQ(events[1].video_id, 3u);
    EXPECT_DOUBLE_EQ(events[0].time, 10.0);
}

TEST(TraceLog, BoundedCapacityDropsOldest)
{
    TraceLog log(4);
    for (int i = 0; i < 10; ++i) {
        log.record(TraceEventType::StepScheduled, i, -1, -1,
                   static_cast<uint64_t>(i));
    }
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.recorded(), 10u);
    EXPECT_EQ(log.dropped(), 6u);
    // Lifetime per-type counts survive eviction.
    EXPECT_EQ(log.countOf(TraceEventType::StepScheduled), 10u);
    const auto events = log.snapshot();
    EXPECT_EQ(events.front().step_id, 6u);
    EXPECT_EQ(events.back().step_id, 9u);
}

TEST(TraceLog, SnapshotTakesLastN)
{
    TraceLog log;
    for (int i = 0; i < 5; ++i)
        log.record(TraceEventType::StepRetried, i);
    const auto last2 = log.snapshot(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_DOUBLE_EQ(last2[0].time, 3.0);
    EXPECT_DOUBLE_EQ(last2[1].time, 4.0);
}

TEST(TraceLog, DisabledRecordsNothing)
{
    TraceLog log;
    log.setEnabled(false);
    log.record(TraceEventType::StepFailed, 1.0);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.recorded(), 0u);
}

TEST(TraceLog, JsonHasCountsAndEvents)
{
    TraceLog log;
    log.record(TraceEventType::WorkerQuarantined, 5.0, 0, 3);
    const std::string json = log.toJson();
    EXPECT_NE(json.find("\"worker_quarantined\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"worker_quarantined\""),
              std::string::npos);
}

TEST(TraceLog, TypeNamesAreStable)
{
    EXPECT_STREQ(traceEventTypeName(TraceEventType::FaultInjected),
                 "fault_injected");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::StepCorrupt),
                 "step_corrupt");
}

TEST(TraceLog, ScrapeWhileRecordingHammer)
{
    // The satellite defect this locks down: toJson() used to format
    // the whole document while holding the record-path SpinLock, so a
    // slow scrape stalled every recording worker. Now the lock covers
    // only the copy-out. Hammer: workers record while another thread
    // scrapes continuously; every scrape must be parseable and no
    // event may be lost. Run under TSan to certify.
    TraceLog log(512);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&log, &go, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kPerThread; ++i)
                log.record(TraceEventType::StepCompleted,
                           static_cast<double>(i), t, t,
                           static_cast<uint64_t>(i));
        });
    }
    std::atomic<bool> done{false};
    std::thread scraper([&log, &done] {
        while (!done.load(std::memory_order_acquire)) {
            const std::string json = log.toJson(64);
            EXPECT_NE(json.find("\"counts\""), std::string::npos);
            (void)log.snapshot(32);
        }
    });
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    done.store(true, std::memory_order_release);
    scraper.join();

    EXPECT_EQ(log.recorded(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(log.countOf(TraceEventType::StepCompleted),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(log.size(), 512u);
}

TEST(Prometheus, SanitizeRewritesIllegalChars)
{
    EXPECT_EQ(sanitizePrometheusName("cluster.steps_completed"),
              "cluster_steps_completed");
    EXPECT_EQ(sanitizePrometheusName("fleet.rack0.retry-rate"),
              "fleet_rack0_retry_rate");
    EXPECT_EQ(sanitizePrometheusName("a/b c"), "a_b_c");
    EXPECT_EQ(sanitizePrometheusName("already_legal:name"),
              "already_legal:name");
    // Leading digit gets a prefix; empty becomes "_".
    EXPECT_EQ(sanitizePrometheusName("9lives"), "_9lives");
    EXPECT_EQ(sanitizePrometheusName(""), "_");
}

TEST(Prometheus, ExpositionCarriesCountersGaugesHistograms)
{
    MetricsRegistry m;
    m.inc("steps.total", 42);
    m.setGauge("util.encoder", 0.75);
    for (int i = 0; i < 100; ++i)
        m.observe("latency.seconds", i + 0.5, 0.0, 100.0, 10);

    const std::string text = m.toPrometheusText();
    EXPECT_NE(text.find("# TYPE steps_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("steps_total 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE util_encoder gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE latency_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 100"),
              std::string::npos);
    EXPECT_NE(text.find("latency_seconds_count 100"),
              std::string::npos);
    // HELP lines keep the original registry name for traceability.
    EXPECT_NE(text.find("'latency.seconds'"), std::string::npos);
}

TEST(Prometheus, CollidingNamesGetDistinctFamilies)
{
    // Both sanitize to "a_b"; the exposition must keep them apart.
    MetricsRegistry m;
    m.inc("a.b", 1);
    m.inc("a/b", 2);
    m.setGauge("a-b", 3.0);

    const std::string text = m.toPrometheusText();
    EXPECT_NE(text.find("a_b 1"), std::string::npos);
    EXPECT_NE(text.find("a_b_2 2"), std::string::npos);
    EXPECT_NE(text.find("a_b_3 3"), std::string::npos);
}

TEST(Prometheus, HistogramSuffixesCannotCollideWithPlainMetrics)
{
    // A histogram claims base, _bucket, _sum, and _count together; a
    // counter that sanitizes to one of those must be renamed.
    MetricsRegistry m;
    for (int i = 0; i < 10; ++i)
        m.observe("lat", static_cast<double>(i), 0.0, 10.0, 5);
    m.inc("lat.count", 7); // Sanitizes to lat_count = histogram suffix.

    const std::string text = m.toPrometheusText();
    // Counters claim first, so the counter keeps lat_count...
    EXPECT_NE(text.find("# TYPE lat_count counter"),
              std::string::npos);
    EXPECT_NE(text.find("lat_count 7"), std::string::npos);
    // ...and the whole histogram family moves aside to lat_2 rather
    // than emitting a lat_count that means two different things.
    EXPECT_NE(text.find("# TYPE lat_2 histogram"), std::string::npos);
    EXPECT_NE(text.find("lat_2_count 10"), std::string::npos);
    EXPECT_EQ(text.find("# TYPE lat histogram"), std::string::npos);
}

TEST(Prometheus, DisabledRegistryStillExposes)
{
    // Scraping a disabled registry returns whatever was recorded
    // before it was disabled (the flag gates recording, not reads).
    MetricsRegistry m;
    m.inc("c", 3);
    m.setEnabled(false);
    m.inc("c", 99);
    const std::string text = m.toPrometheusText();
    EXPECT_NE(text.find("c 3"), std::string::npos);
}

TEST(Prometheus, ScrapeWhileRecordingHammer)
{
    // Same contract as TraceLog: the registry mutex is held only
    // while copying, so concurrent scrapes and records interleave
    // safely. TSan certifies the absence of data races.
    MetricsRegistry m;
    std::atomic<bool> done{false};
    // Set once a counter exists, so the scraper never asserts on a
    // registry no worker has recorded into yet.
    std::atomic<bool> recorded{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
        workers.emplace_back([&m, &recorded, t] {
            for (int i = 0; i < 4000; ++i) {
                m.inc("hammer.counter");
                if (i == 0)
                    recorded.store(true, std::memory_order_release);
                m.setGauge("hammer.gauge", static_cast<double>(i));
                m.observe("hammer.hist", static_cast<double>(i % 100),
                          0.0, 100.0, 10);
            }
        });
    }
    std::thread scraper([&m, &done, &recorded] {
        while (!done.load(std::memory_order_acquire)) {
            if (!recorded.load(std::memory_order_acquire)) {
                std::this_thread::yield();
                continue;
            }
            const std::string text = m.toPrometheusText();
            EXPECT_NE(text.find("hammer_counter"), std::string::npos);
        }
    });
    for (auto &w : workers)
        w.join();
    done.store(true, std::memory_order_release);
    scraper.join();
    EXPECT_EQ(m.counter("hammer.counter"), 3u * 4000u);
    EXPECT_EQ(m.histogramCount("hammer.hist"), 3u * 4000u);
}

} // namespace
} // namespace wsva
