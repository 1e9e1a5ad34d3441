#include "host.h"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <ctime>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

namespace {

int
OpenCounter(std::uint32_t type, std::uint64_t config, bool user_only)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.inherit = 1;
    attr.exclude_kernel = user_only ? 1 : 0;
    attr.exclude_hv = user_only ? 1 : 0;
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

/** Full counts first; a host that allows only user-mode counting
 *  (perf_event_paranoid >= 2 without privilege) gets user-only ones. */
int
OpenCounter(std::uint32_t type, std::uint64_t config)
{
    const int fd = OpenCounter(type, config, false);
    return fd >= 0 ? fd : OpenCounter(type, config, true);
}

ProcessTotals
Rusage()
{
    rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    ProcessTotals totals;
    totals.task_clock_s =
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec +
                            usage.ru_stime.tv_usec) /
            1e6;
    totals.context_switches =
        static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
    totals.page_faults =
        static_cast<std::uint64_t>(usage.ru_minflt + usage.ru_majflt);
    return totals;
}

bool
IsSanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#endif
#endif
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
}

}  // namespace

ProcessCounters::ProcessCounters()
{
    const std::uint64_t configs[kNumCounters] = {
        PERF_COUNT_SW_TASK_CLOCK, PERF_COUNT_SW_CONTEXT_SWITCHES,
        PERF_COUNT_SW_CPU_MIGRATIONS, PERF_COUNT_SW_PAGE_FAULTS};
    for (int i = 0; i < kNumCounters; ++i) {
        fds_[i] = OpenCounter(PERF_TYPE_SOFTWARE, configs[i]);
        if (fds_[i] < 0) {
            // All or nothing: mixing perf and rusage totals would make
            // the four figures cover different intervals.
            for (int& fd : fds_) {
                if (fd >= 0) {
                    close(fd);
                }
                fd = -1;
            }
            break;
        }
    }
    const int hw = OpenCounter(PERF_TYPE_HARDWARE,
                               PERF_COUNT_HW_INSTRUCTIONS);
    hw_counters_ = hw >= 0;
    if (hw >= 0) {
        close(hw);
    }
    base_ = Rusage();
}

ProcessCounters::~ProcessCounters()
{
    for (int fd : fds_) {
        if (fd >= 0) {
            close(fd);
        }
    }
}

ProcessTotals
ProcessCounters::Read() const
{
    ProcessTotals totals;
    totals.hw_counters = hw_counters_;
    if (fds_[0] >= 0) {
        std::uint64_t values[kNumCounters] = {0, 0, 0, 0};
        bool ok = true;
        for (int i = 0; i < kNumCounters; ++i) {
            ok = ok && read(fds_[i], &values[i], sizeof(values[i])) ==
                           static_cast<ssize_t>(sizeof(values[i]));
        }
        if (ok) {
            totals.perf_event = true;
            totals.task_clock_s = static_cast<double>(values[0]) / 1e9;
            totals.context_switches = values[1];
            totals.cpu_migrations = values[2];
            totals.page_faults = values[3];
            return totals;
        }
    }
    const ProcessTotals now = Rusage();
    totals.task_clock_s = now.task_clock_s - base_.task_clock_s;
    totals.context_switches = now.context_switches - base_.context_switches;
    totals.page_faults = now.page_faults - base_.page_faults;
    return totals;
}

double
ProcessCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
PeakRssMb()
{
    rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

std::string
BuildType()
{
    return PERFBENCH_BUILD_TYPE;
}

std::string
CompilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
CompileFlags()
{
    return PERFBENCH_CXX_FLAGS;
}

std::string
TimingRefusal()
{
#if !defined(__OPTIMIZE__)
    return "the benchmark was built without optimization";
#elif !defined(NDEBUG)
    return "the benchmark was built with assertions on (not NDEBUG)";
#else
    if (IsSanitized()) {
        return "the benchmark was built with a sanitizer";
    }
    const std::string type = BuildType();
    if (type != "Release" && type != "RelWithDebInfo") {
        return "build type " + type + " is not Release or RelWithDebInfo";
    }
    return "";
#endif
}

}  // namespace perfbench
