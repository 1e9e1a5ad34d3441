/**
 * @file
 * In-memory spans the benchmark records around its own calls into the
 * program's public APIs, kept apart from the program's flight recorder
 * (which is part of the scenario_cascade workload's input).
 *
 * A span has a name, the layer (module) it enters, host start/end
 * times, the span that was open when it began, and the id of the fleet
 * window it belongs to (-1 outside any window). Spans are written out
 * as Chrome/Perfetto JSON when the run ends.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are host nanoseconds since the log began. */
struct Span {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< Index into the log, -1 for a root span.
    std::int64_t window = -1;
};

/** Single-threaded span recorder (the benchmark's main thread only). */
class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Opens a span under the innermost open one; returns its index. */
    int Begin(const char* name, const char* layer, std::int64_t window);

    /** Closes span `id`, which must be the innermost open span. */
    void End(int id);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::int64_t NowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null log makes it a no-op (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, const char* name, const char* layer,
               std::int64_t window = -1)
        : log_(log), id_(log != nullptr ? log->Begin(name, layer, window)
                                        : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            log_->End(id_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog* log_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals (children clipped to
 * the parent, overlaps counted once).
 */
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/** Sum of SelfTimes per layer name. */
std::map<std::string, std::int64_t>
LayerSelfTimes(const std::vector<Span>& spans);

/** Chrome trace_event JSON ("X" events, µs timestamps, one track). */
void WriteChromeJson(const std::vector<Span>& spans, std::ostream& os);

}  // namespace perfbench
