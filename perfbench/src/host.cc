#include "host.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <thread>

#include <unistd.h>

#include "common/build_info.h"
#include "common/logging.h"

namespace perfbench {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** A "<key>:   <n> kB" line of /proc/self/status, in bytes. */
uint64_t
statusKiB(const char *key)
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    uint64_t kib = 0;
    const size_t key_len = std::strlen(key);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, key, key_len) == 0 &&
            line[key_len] == ':') {
            unsigned long long v = 0;
            if (std::sscanf(line + key_len + 1, "%llu", &v) == 1)
                kib = v;
            break;
        }
    }
    std::fclose(f);
    return kib * 1024;
}

/** The calibration kernel: a dependent multiply-xorshift chain the
 *  compiler cannot vectorise or fold, so its speed tracks the
 *  core's integer latency and clock. */
uint64_t
calibrationLoop(uint64_t seed, uint64_t iters)
{
    uint64_t x = seed | 1;
    for (uint64_t i = 0; i < iters; ++i) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ULL;
        x += i;
    }
    return x;
}

} // namespace

ReferenceKernel::ReferenceKernel() : table_(1u << 16)
{
    heap_.reserve(1u << 14);
}

double
ReferenceKernel::sample()
{
    constexpr uint32_t kTimers = 1u << 14;
    constexpr int kEvents = 100000;
    const double t0 = wallSeconds();
    const auto later = std::greater<>();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    heap_.clear();
    for (uint32_t id = 0; id < kTimers; ++id) {
        heap_.emplace_back(next() % 1000000, id);
        std::push_heap(heap_.begin(), heap_.end(), later);
    }
    const uint64_t mask = table_.size() - 1;
    uint64_t acc = 0;
    for (int e = 0; e < kEvents; ++e) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const auto [t, id] = heap_.back();
        heap_.pop_back();
        const uint64_t r = next();
        auto &slot = table_[(id * 2654435761ULL + (r & 1023)) & mask];
        if ((slot[0] & 1) != 0)
            slot[1] += t;
        else
            slot[2] ^= r;
        slot[0] += id;
        acc += slot[(r >> 8) & 7];
        heap_.emplace_back(t + 1 + r % 5000, id);
        std::push_heap(heap_.begin(), heap_.end(), later);
    }
    sink_ += acc;
    return wallSeconds() - t0;
}

double
atNominalSpeed(double seconds, std::vector<double> reference_s)
{
    if (reference_s.empty())
        return seconds;
    const size_t mid = reference_s.size() / 2;
    std::nth_element(reference_s.begin(), reference_s.begin() + mid,
                     reference_s.end());
    const double ref = reference_s[mid];
    return ref > 0.0 ? seconds * ReferenceKernel::kNominalSeconds / ref
                     : seconds;
}

uint64_t
residentBytes()
{
    return statusKiB("VmRSS");
}

uint64_t
peakResidentBytes()
{
    return statusKiB("VmHWM");
}

std::string
HostStamp::toJson() const
{
    return wsva::strformat(
        "{\"build_type\": \"%s\", \"native_arch\": %s, \"nproc\": %d, "
        "\"calib_ns_per_iter\": %.6f}",
        build_type.c_str(), native_arch ? "true" : "false", nproc,
        calib_ns_per_iter);
}

HostStamp
measureHost()
{
    HostStamp h;
    h.build_type = wsva::buildType();
    h.native_arch = wsva::buildNativeArch();
    h.nproc = static_cast<int>(std::max<long>(
        1, sysconf(_SC_NPROCESSORS_ONLN)));

    constexpr uint64_t kIters = 1u << 22;
    double best = 1e30;
    volatile uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = wallSeconds();
        sink = sink + calibrationLoop(static_cast<uint64_t>(rep), kIters);
        best = std::min(best, wallSeconds() - t0);
    }
    h.calib_ns_per_iter = best * 1e9 / static_cast<double>(kIters);
    return h;
}

} // namespace perfbench
