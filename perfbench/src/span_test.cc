// Self-time arithmetic on a small span fixture. Exits non-zero naming
// the first expectation that fails.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void
Expect(const std::string& what, std::int64_t got, std::int64_t want)
{
    if (got != want) {
        std::cerr << "FAIL " << what << ": got " << got << ", want " << want
                  << "\n";
        ++failures;
    }
}

perfbench::Span
Make(const char* layer, std::int64_t start, std::int64_t end, int parent)
{
    perfbench::Span span;
    span.name = layer;
    span.layer = layer;
    span.start_ns = start;
    span.end_ns = end;
    span.parent = parent;
    return span;
}

}  // namespace

int
main()
{
    // fleet [0,100] holds two overlapping cluster children [10,30] and
    // [20,50] (union 40) and a sim child [90,120] that runs past its
    // parent (10 inside it). The first cluster child holds a core span
    // [12,18]; a second root [200,260] has no children.
    const std::vector<perfbench::Span> spans = {
        Make("fleet", 0, 100, -1),    // 0
        Make("cluster", 10, 30, 0),   // 1
        Make("cluster", 20, 50, 0),   // 2
        Make("sim", 90, 120, 0),      // 3
        Make("core", 12, 18, 1),      // 4
        Make("fleet", 200, 260, -1),  // 5
    };

    const auto self = perfbench::SelfTimes(spans);
    Expect("fleet root self", self[0], 100 - 40 - 10);
    Expect("first cluster self", self[1], 20 - 6);
    Expect("second cluster self", self[2], 30);
    Expect("sim self", self[3], 30);
    Expect("core self", self[4], 6);
    Expect("childless root self", self[5], 60);

    auto layers = perfbench::LayerSelfTimes(spans);
    Expect("fleet layer", layers["fleet"], 50 + 60);
    Expect("cluster layer", layers["cluster"], 14 + 30);
    Expect("sim layer", layers["sim"], 30);
    Expect("core layer", layers["core"], 6);

    // Recorded spans nest through Begin/End and serialize one event each.
    perfbench::SpanLog live;
    const int outer = live.Begin("outer", "fleet", 7);
    const int inner = live.Begin("inner", "cluster", 7);
    live.End(inner);
    live.End(outer);
    Expect("inner parent", live.spans()[1].parent, outer);
    Expect("window id", live.spans()[1].window, 7);
    const auto live_self = perfbench::SelfTimes(live.spans());
    Expect("outer self within duration",
           live_self[0] <= live.spans()[0].end_ns - live.spans()[0].start_ns,
           true);
    std::ostringstream json;
    perfbench::WriteChromeJson(live.spans(), json);
    std::size_t events = 0;
    for (std::size_t pos = json.str().find("\"ph\":\"X\"");
         pos != std::string::npos;
         pos = json.str().find("\"ph\":\"X\"", pos + 1)) {
        ++events;
    }
    Expect("chrome events", static_cast<std::int64_t>(events), 2);

    if (failures == 0) {
        std::cout << "span self-time fixture: all checks passed\n";
    }
    return failures == 0 ? 0 : 1;
}
