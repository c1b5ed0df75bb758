/**
 * @file
 * Golden ledgers: three seeded cluster runs whose fingerprints
 * (every ledger counter, the conservation snapshot, output pixels and
 * encoder utilization at %.17g, the trace-log size) are pinned as
 * literal strings. A refactor of the resource model, the schedulers
 * or either run loop that claims to keep behaviour must reproduce
 * them byte for byte; a deliberate behaviour change updates them and
 * says why.
 *
 * The runs cover the tick engine with bin packing and hard/silent
 * faults, the event engine with bin packing, faults and deadline
 * shedding, and the tick engine with the legacy slot scheduler and
 * software-decode offload (all five resource dimensions non-zero).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "support/ledger_fingerprint.h"

using namespace wsva::cluster;
using wsva::testsupport::ledgerFingerprint;
using wsva::video::codec::CodecType;

namespace {

ClusterConfig
faultyConfig(SimEngine engine)
{
    ClusterConfig cfg;
    cfg.hosts = 4;
    cfg.vcus_per_host = 5;
    cfg.seed = 11;
    cfg.engine = engine;
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.vcu_silent_fault_per_hour = 15.0;
    cfg.failure.host_fault_threshold = 3;
    cfg.failure.repair_seconds = 150.0;
    cfg.failure.repair_cap = 1;
    return cfg;
}

/**
 * Per call: three 720p MOT steps and one 1080p MOT step (two of every
 * three Batch priority), plus, when @p live, a 1080p live segment
 * with an 8 s deadline every fourth call.
 */
ArrivalFn
mixedArrivals(bool live)
{
    auto next_id = std::make_shared<uint64_t>(0);
    auto calls = std::make_shared<uint64_t>(0);
    return [next_id, calls, live](double now, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < 4; ++i) {
            const uint64_t id = (*next_id)++;
            const wsva::video::Resolution res =
                i == 3 ? wsva::video::Resolution{1920, 1080}
                       : wsva::video::Resolution{1280, 720};
            TranscodeStep step = makeMotStep(
                id, id / 8, static_cast<int>(id % 8), res, CodecType::VP9);
            if (id % 3 != 0)
                step.priority = Priority::Batch;
            steps.push_back(step);
        }
        if (live && (*calls)++ % 4 == 0) {
            const uint64_t id = (*next_id)++;
            TranscodeStep step = makeMotStep(id, 100000 + id, 0,
                                             {1920, 1080}, CodecType::VP9);
            step.frames = 60;
            step.two_pass = false;
            step.use_case = UseCase::Live;
            step.priority = Priority::Critical;
            step.deadline_time = now + 8.0;
            steps.push_back(step);
        }
        return steps;
    };
}

std::string
runFingerprint(const ClusterConfig &cfg, bool live)
{
    ClusterSim sim(cfg);
    const ClusterMetrics m = sim.run(600.0, 1.0, mixedArrivals(live));
    return ledgerFingerprint(m, sim);
}

TEST(GoldenLedger, TickBinPackWithFaults)
{
    const ClusterConfig cfg = faultyConfig(SimEngine::Tick);
    EXPECT_EQ(runFingerprint(cfg, /*live=*/false),
              "submitted=2400 completed=2205 failed=42 retried=116 "
              "corrupt=28 escaped=1 shed=0 preempted=0 placed=2334 "
              "rejected=260 backlog=189 inflight=6 "
              "pixels=733741574400 util=0.48192111038411162 "
              "c.submitted=2400 c.completed=2205 c.failed=0 "
              "c.inflight=6 c.backlog=189 c.shed=0 holds=1 "
              "trace_events=4769");
}

TEST(GoldenLedger, EventBinPackWithFaultsAndShedding)
{
    ClusterConfig cfg = faultyConfig(SimEngine::Event);
    cfg.deadline.shed_enabled = true;
    cfg.deadline.slack_guard_seconds = 6.0;
    EXPECT_EQ(runFingerprint(cfg, /*live=*/true),
              "submitted=2550 completed=2538 failed=64 retried=96 "
              "corrupt=16 escaped=2 shed=112 preempted=0 "
              "placed=2652 rejected=129 backlog=0 inflight=12 "
              "pixels=828458985600 util=0.2981138571428571 "
              "c.submitted=2550 c.completed=2538 c.failed=0 "
              "c.inflight=12 c.backlog=0 c.shed=0 holds=1 "
              "trace_events=5446");
}

TEST(GoldenLedger, TickSlotSchedulerWithSoftwareDecode)
{
    ClusterConfig cfg = faultyConfig(SimEngine::Tick);
    cfg.use_binpack = false;
    cfg.mapping.software_decode_fraction = 0.3;
    cfg.numa_aware = false;
    EXPECT_EQ(runFingerprint(cfg, /*live=*/false),
              "submitted=2400 completed=700 failed=17 retried=34 "
              "corrupt=15 escaped=0 shed=0 preempted=0 placed=749 "
              "rejected=575 backlog=1700 inflight=0 "
              "pixels=233039520000 util=0.59923858221449466 "
              "c.submitted=2400 c.completed=700 c.failed=0 "
              "c.inflight=0 c.backlog=1700 c.shed=0 holds=1 "
              "trace_events=1568");
}

} // namespace
