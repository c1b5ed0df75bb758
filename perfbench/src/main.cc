/**
 * @file
 * The benchmark command:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * Untraced (--trace 0), it prints every end-to-end metric; traced
 * (--trace 1), every per-layer metric, and it writes the spans and the
 * layer table to <out-dir>/<workload>-seed<n>.json. The last stdout
 * line is the JSON result. The exit code is non-zero when any
 * correctness check fails or the arguments are bad.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sys/stat.h>

#include "common/logging.h"
#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\nworkloads:",
                 why);
    for (const auto &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *s, unsigned long long *out)
{
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    *out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

/** Write the traced run's host stamp, layer table and spans. */
bool
writeTrace(const std::string &dir, const perfbench::RunReport &r)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
    const std::string path =
        dir + "/" + r.workload + "-seed" + std::to_string(r.seed) + ".json";
    std::ofstream out(path);
    out << "{\"workload\": \"" << r.workload << "\", \"seed\": " << r.seed
        << ",\n \"host\": " << r.host.toJson() << ",\n \"layers\": {";
    bool first = true;
    for (const auto &d : perfbench::layerMetrics()) {
        const auto it = r.layers.find(d.name);
        out << (first ? "" : ",") << "\n  \"" << d.name << "\": {\"value\": "
            << wsva::strformat("%.17g",
                               it == r.layers.end() ? 0.0 : it->second)
            << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    out << "\n },\n \"spans\": " << r.spans_json << "\n}\n";
    out.close();
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    std::string out_dir = ".bench_out";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        unsigned long long n = 0;
        if (val == nullptr)
            return usage(("missing value for " + arg).c_str());
        if (arg == "--workload") {
            opts.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseUnsigned(val, &n))
                return usage("--seed takes a non-negative integer");
            opts.seed = n;
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(val, &n) || n < 1 || n > 3600)
                return usage("--seconds takes an integer in [1, 3600]");
            opts.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                return usage("--trace takes 0 or 1");
            opts.trace = val[0] == '1';
            have_trace = true;
        } else if (arg == "--out-dir") {
            out_dir = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        ++i;
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known |= w == opts.workload;
    if (!known)
        return usage(("unknown workload " + opts.workload).c_str());

    // The scraper's client sends without MSG_NOSIGNAL; a server that
    // hangs up early must fail the scrape, not kill the run.
    std::signal(SIGPIPE, SIG_IGN);
    const perfbench::HostStamp host = perfbench::measureHost();
    perfbench::RunReport report = perfbench::runWorkload(opts);
    report.host = host;
    if (opts.trace && !writeTrace(out_dir, report))
        report.fail("could not write the trace to " + out_dir);
    perfbench::printReport(stdout, report);
    return perfbench::exitCode(report);
}
