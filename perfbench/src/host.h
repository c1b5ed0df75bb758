/**
 * @file
 * Host clocks, process memory and the host fingerprint stamped on
 * every benchmark output, so figures from different machines are
 * never compared silently.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, seconds. */
double wallSeconds();

/** CPU time of the whole process (all threads), seconds. */
double processCpuSeconds();

/** Current resident set (VmRSS), bytes; 0 when unavailable. */
uint64_t residentBytes();

/** Peak resident set (VmHWM), bytes; 0 when unavailable. */
uint64_t peakResidentBytes();

/**
 * The benchmark's reference kernel: an event loop that pops timers
 * from a binary heap and touches a 4 MiB state table at random, the
 * access pattern of the simulated fleets. It is fixed benchmark code
 * that no change to the code under test reaches, so its time tracks
 * only how fast the shared host runs at the moment. Sampled before
 * each fleet repeat and each vod clip, it turns a measured time into
 * the time at a nominal host speed (see atNominalSpeed).
 */
class ReferenceKernel
{
  public:
    /** Time of one sample on a quiet 4-vCPU VM, seconds. */
    static constexpr double kNominalSeconds = 0.02;

    ReferenceKernel();

    /** Run the kernel once from the same start; its wall seconds. */
    double sample();

  private:
    std::vector<std::array<uint64_t, 8>> table_;
    std::vector<std::pair<uint64_t, uint32_t>> heap_;
    uint64_t sink_ = 0;
};

/**
 * @p seconds, measured while the reference kernel's samples took
 * @p reference_s, rescaled to the nominal host speed: seconds x
 * kNominalSeconds / median(reference_s). When the host runs the
 * kernel slower than usual it runs the measured code slower too, so
 * the rescaled time moves less from run to run than the raw one (on
 * a shared 4-vCPU VM, about half as much). Returns @p seconds when
 * there are no samples.
 */
double atNominalSpeed(double seconds, std::vector<double> reference_s);

/** Who built the binary and what it runs on. */
struct HostStamp
{
    std::string build_type;
    bool native_arch = false;
    int nproc = 0;
    /** ns per iteration of a fixed integer-mixing loop (min of 5). */
    double calib_ns_per_iter = 0.0;

    /** One JSON object, no trailing newline. */
    std::string toJson() const;
};

/** Measure the stamp (runs the ~50 ms calibration loop). */
HostStamp measureHost();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
