/**
 * @file
 * The benchmark's own spans, recorded around each call it makes into
 * a layer's public API (one transcode, one rung check, one sim run,
 * one arrival batch, one scrape). A span has a name, start, end, the
 * span open on the same thread when it began (its parent), and the
 * id of the clip or run it belongs to. Spans stay in memory and are
 * written out once, at the end of a traced run.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::string name;
    uint64_t id = 0;     //!< 1-based; 0 means "none".
    uint64_t parent = 0; //!< Enclosing span on the same thread.
    uint64_t trace = 0;  //!< Clip or run the span belongs to.
    double start_s = 0.0;
    double end_s = 0.0;
};

/** Thread-safe in-memory span log. Disabled, begin() returns 0 and
 *  records nothing. The log keeps the first kMaxStored spans (a long
 *  traced run would otherwise grow it without bound) but sums the
 *  duration of every span by name. */
class SpanRecorder
{
  public:
    static constexpr size_t kMaxStored = 20000;

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span on the calling thread; returns its id. */
    uint64_t begin(const char *name, uint64_t trace);
    /** Close span @p id (must be the innermost open one). */
    void end(uint64_t id);

    /** Summed duration of the spans named @p name closed since the
     *  last resetTotals(). */
    double seconds(const std::string &name) const;
    void resetTotals();

    /** JSON object: the stored spans and how many were dropped. */
    std::string toJson() const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    uint64_t next_id_ = 1;
    uint64_t dropped_ = 0;
    std::vector<SpanRecord> spans_;
    std::map<std::string, double> totals_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, uint64_t trace)
        : rec_(rec), id_(rec.begin(name, trace))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
