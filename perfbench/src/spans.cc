#include "spans.h"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t
SpanLog::NowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanLog::Begin(const char* name, const char* layer, std::int64_t window)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.window = window;
    spans_.push_back(span);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    // Read the clock last so the span excludes its own bookkeeping.
    spans_.back().start_ns = NowNs();
    return id;
}

void
SpanLog::End(int id)
{
    const std::int64_t now = NowNs();
    if (open_.empty() || open_.back() != id) {
        throw std::logic_error("SpanLog::End: spans must nest");
    }
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<std::int64_t>
SelfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span& span : spans) {
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) < spans.size()) {
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t begin = spans[i].start_ns;
        const std::int64_t end = spans[i].end_ns;
        auto& intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        std::int64_t covered = 0;
        std::int64_t cursor = begin;  // End of the union so far.
        for (auto [lo, hi] : intervals) {
            lo = std::max(lo, cursor);
            hi = std::min(hi, end);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[i] = (end - begin) - covered;
    }
    return self;
}

std::map<std::string, std::int64_t>
LayerSelfTimes(const std::vector<Span>& spans)
{
    const std::vector<std::int64_t> self = SelfTimes(spans);
    std::map<std::string, std::int64_t> layers;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        layers[spans[i].layer] += self[i];
    }
    return layers;
}

void
WriteChromeJson(const std::vector<Span>& spans, std::ostream& os)
{
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << static_cast<double>(s.start_ns) / 1e3
           << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"window\":" << s.window << "}}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    os.flags(flags);
    os.precision(precision);
}

}  // namespace perfbench
