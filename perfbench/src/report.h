/**
 * @file
 * Metric tables and the run report: what one benchmark invocation
 * prints, and the exit code it returns.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "host.h"

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The bounded end-to-end metrics: reported by every workload in an
 *  untraced run (the JSON result line carries exactly these). */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics: reported by every workload in a traced
 *  run (a layer a workload bypasses reads 0). */
const std::vector<MetricDef> &layerMetrics();

/** Workload-specific end-to-end metrics, printed by name on the
 *  summary lines of the workloads they apply to. */
const std::vector<MetricDef> &summaryMetrics();

/** Everything one invocation measured and checked. */
struct RunReport
{
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;
    HostStamp host;

    std::map<std::string, double> e2e;     //!< endToEndMetrics()
    std::map<std::string, double> summary; //!< summaryMetrics() subset
    std::map<std::string, double> layers;  //!< layerMetrics()

    uint64_t attempted = 0; //!< Operations checked.
    uint64_t failed = 0;    //!< Operations that failed a check.
    std::vector<std::string> errors; //!< One line per failed check.
    std::string spans_json; //!< Traced runs: every span, as JSON.

    /** Count one failed operation with its reason. */
    void fail(const std::string &why);

    bool correct() const
    {
        return attempted > 0 && failed == 0 && errors.empty();
    }
    double errorRate() const
    {
        return attempted == 0 ? 1.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

/** The final JSON line (no newline): correct, attempted, failed and
 *  the end-to-end (untraced) or per-layer (traced) metrics. */
std::string resultLine(const RunReport &r);

/** Summary lines ("metric <name> <value> <unit>"), then the result
 *  line last. */
void printReport(std::FILE *out, const RunReport &r);

/** 0 when every check passed, 1 otherwise. */
int exitCode(const RunReport &r);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
