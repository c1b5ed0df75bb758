/**
 * @file
 * An open-loop z-page scraper: one thread that fetches /metrics and
 * /statusz from a DebugServer on a fixed host-time schedule, whether
 * or not the previous scrape was slow. Each scrape is timed from
 * when it was due, so a stall is charged to every scrape it delays.
 */

#ifndef PERFBENCH_SCRAPE_H
#define PERFBENCH_SCRAPE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench {

/** What one scraper run saw. */
struct ScrapeStats
{
    uint64_t scrapes = 0;
    uint64_t failed = 0;            //!< Non-200 or transport error.
    std::vector<double> latency_ms; //!< Due time to last byte.
    std::vector<double> late_ms;    //!< Due time to first request.
};

class Scraper
{
  public:
    Scraper() = default;
    ~Scraper() { stop(); }
    Scraper(const Scraper &) = delete;
    Scraper &operator=(const Scraper &) = delete;

    /** Start scraping @p port every @p period_s seconds; scrape spans
     *  go to @p spans with trace id @p trace. */
    void start(uint16_t port, double period_s, SpanRecorder &spans,
               uint64_t trace);
    /** Stop and join; returns the stats. Idempotent. */
    ScrapeStats stop();

  private:
    void loop(uint16_t port, double period_s, SpanRecorder *spans,
              uint64_t trace);

    std::atomic<bool> stop_{false};
    ScrapeStats stats_; //!< Written by the thread, read after join.
    std::thread thread_;
};

} // namespace perfbench

#endif // PERFBENCH_SCRAPE_H
