#include "scrape.h"

#include <chrono>

#include "host.h"
#include "support/http_client.h"

namespace perfbench {

void
Scraper::start(uint16_t port, double period_s, SpanRecorder &spans,
               uint64_t trace)
{
    stop_.store(false);
    stats_ = ScrapeStats{};
    thread_ = std::thread(&Scraper::loop, this, port, period_s, &spans,
                          trace);
}

ScrapeStats
Scraper::stop()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
    return stats_;
}

void
Scraper::loop(uint16_t port, double period_s, SpanRecorder *spans,
              uint64_t trace)
{
    const double t0 = wallSeconds();
    for (uint64_t k = 1; !stop_.load(); ++k) {
        const double due = t0 + static_cast<double>(k) * period_s;
        const double wait = due - wallSeconds();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (stop_.load())
            break;
        ScopedSpan span(*spans, "scrape", trace);
        stats_.late_ms.push_back((wallSeconds() - due) * 1e3);
        using wsva::testsupport::httpGet;
        const bool ok = httpGet(port, "/metrics", "GET", 5.0).status == 200 &&
                        httpGet(port, "/statusz", "GET", 5.0).status == 200;
        stats_.latency_ms.push_back((wallSeconds() - due) * 1e3);
        ++stats_.scrapes;
        if (!ok)
            ++stats_.failed;
    }
}

} // namespace perfbench
