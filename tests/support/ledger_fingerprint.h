/**
 * @file
 * One-line fingerprint of a finished cluster run: every ledger
 * counter, the conservation snapshot, the trace-log size, and the
 * floating-point results at %.17g (round-trip exact). Two runs with
 * equal fingerprints placed, completed, failed and shed the same
 * steps at the same times; tests compare fingerprints across
 * configurations that must not change behaviour (profiler on/off)
 * and against literal strings captured from a reference build.
 */

#ifndef WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H
#define WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H

#include <string>

#include "cluster/cluster.h"
#include "common/logging.h"

namespace wsva::testsupport {

inline std::string
ledgerFingerprint(const cluster::ClusterMetrics &m,
                  const cluster::ClusterSim &sim)
{
    const cluster::ConservationSnapshot c = sim.conservation();
    return strformat(
        "submitted=%llu completed=%llu failed=%llu retried=%llu "
        "corrupt=%llu escaped=%llu shed=%llu preempted=%llu "
        "placed=%llu rejected=%llu backlog=%zu inflight=%zu "
        "pixels=%.17g util=%.17g "
        "c.submitted=%llu c.completed=%llu c.failed=%llu "
        "c.inflight=%llu c.backlog=%llu c.shed=%llu holds=%d "
        "trace_events=%llu",
        (unsigned long long)m.steps_submitted,
        (unsigned long long)m.steps_completed,
        (unsigned long long)m.steps_failed,
        (unsigned long long)m.steps_retried,
        (unsigned long long)m.corrupt_detected,
        (unsigned long long)m.corrupt_escaped,
        (unsigned long long)m.steps_shed,
        (unsigned long long)m.steps_preempted,
        (unsigned long long)m.sched_placed,
        (unsigned long long)m.sched_rejected, m.backlog_remaining,
        m.steps_in_flight, m.output_pixels, m.encoder_utilization,
        (unsigned long long)c.submitted, (unsigned long long)c.completed,
        (unsigned long long)c.failed_terminal,
        (unsigned long long)c.in_flight, (unsigned long long)c.backlog,
        (unsigned long long)c.shed, c.holds() ? 1 : 0,
        (unsigned long long)sim.traceLog().size());
}

} // namespace wsva::testsupport

#endif // WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H
