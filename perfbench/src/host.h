/**
 * @file
 * Whole-process measurements: software counters through
 * perf_event_open (getrusage when the syscall is denied), a hardware
 * counter probe, CPU time, peak RSS, and the build fingerprint.
 */
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/** Totals since ProcessCounters was constructed (threads included). */
struct ProcessTotals {
    double task_clock_s = 0.0;
    std::uint64_t context_switches = 0;
    std::uint64_t cpu_migrations = 0;
    std::uint64_t page_faults = 0;
    /** True when the software counters came from perf_event_open;
     *  false when they fell back to getrusage (no migration count). */
    bool perf_event = false;
    /** True when a hardware counter (instructions) could be opened. */
    bool hw_counters = false;
};

/**
 * Opens inherited software counters on the calling process. Threads
 * started afterwards are counted once they exit, so read after every
 * worker pool has been joined.
 */
class ProcessCounters
{
  public:
    ProcessCounters();
    ~ProcessCounters();
    ProcessCounters(const ProcessCounters&) = delete;
    ProcessCounters& operator=(const ProcessCounters&) = delete;

    ProcessTotals Read() const;

  private:
    static constexpr int kNumCounters = 4;
    int fds_[kNumCounters] = {-1, -1, -1, -1};
    bool hw_counters_ = false;
    ProcessTotals base_;  ///< getrusage totals at construction.
};

/** CPU seconds consumed by every thread of the process so far. */
double ProcessCpuSeconds();

/** Peak resident set size of the process, in MiB. */
double PeakRssMb();

/** Build type, compiler and flags baked in at compile time. */
std::string BuildType();
std::string CompilerVersion();
std::string CompileFlags();

/** Empty when the build may report timings; otherwise the reason it
 *  may not (not optimized, assertions on, or sanitized). */
std::string TimingRefusal();

}  // namespace perfbench
