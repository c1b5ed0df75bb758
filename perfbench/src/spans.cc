#include "spans.h"

#include "common/logging.h"
#include "host.h"

namespace perfbench {

namespace {

/** A span open on the calling thread. */
struct OpenSpan
{
    uint64_t id;
    uint64_t parent;
    uint64_t trace;
    const char *name;
    double start_s;
};

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<OpenSpan> t_open;

} // namespace

uint64_t
SpanRecorder::begin(const char *name, uint64_t trace)
{
    if (!enabled_)
        return 0;
    uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = next_id_++;
    }
    t_open.push_back({id, t_open.empty() ? 0 : t_open.back().id, trace,
                      name, wallSeconds()});
    return id;
}

void
SpanRecorder::end(uint64_t id)
{
    if (id == 0 || t_open.empty() || t_open.back().id != id)
        return;
    const OpenSpan open = t_open.back();
    t_open.pop_back();
    const double now = wallSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    totals_[open.name] += now - open.start_s;
    if (spans_.size() < kMaxStored)
        spans_.push_back(
            {open.name, open.id, open.parent, open.trace, open.start_s, now});
    else
        ++dropped_;
}

double
SpanRecorder::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
}

void
SpanRecorder::resetTotals()
{
    std::lock_guard<std::mutex> lock(mu_);
    totals_.clear();
}

std::string
SpanRecorder::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = wsva::strformat(
        "{\"dropped\": %llu, \"spans\": [",
        static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        out += wsva::strformat(
            "%s\n  {\"id\": %llu, \"parent\": %llu, \"trace\": %llu, "
            "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.trace), s.name.c_str(),
            s.start_s, s.end_s);
    }
    out += "\n]}";
    return out;
}

} // namespace perfbench
