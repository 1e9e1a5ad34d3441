#include "replays.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/interference_arbiter.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/metric_registry.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using sol::sim::Duration;

constexpr int kRounds = 5;

double
ElapsedNs(Clock::time_point since)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - since)
        .count();
}

double
Median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n == 0 ? 0.0
                  : (n % 2 == 1 ? values[n / 2]
                                : 0.5 * (values[n / 2 - 1] + values[n / 2]));
}

/** Keeps replayed results observable so the calls are not elided. */
volatile double g_sink = 0.0;

struct QueueReplay {
    sol::sim::EventQueue queue;
    std::vector<Duration> periods;
    std::vector<sol::sim::EventHandle> timeouts;
    sol::sim::Rng rng;
    double timeout_probability = 0.0;
};

/** One stream's tick: cancel the previous tick's timeout (the reply
 *  arrived), maybe arm a new one, and reschedule. Fits the queue's
 *  inline closure storage, like the runtime's own closures. */
struct Tick {
    QueueReplay* replay;
    std::size_t stream;

    void
    operator()() const
    {
        QueueReplay& r = *replay;
        const Duration period = r.periods[stream];
        r.timeouts[stream].Cancel();
        if (r.rng.NextBool(r.timeout_probability)) {
            r.timeouts[stream] =
                r.queue.ScheduleAfter(2 * period, [] {});
        }
        r.queue.ScheduleAt(r.queue.Now() + period, Tick{replay, stream});
    }
};

}  // namespace

double
QueueNsPerEvent(const QueueMix& mix, std::uint64_t seed)
{
    QueueReplay r;
    r.rng = sol::sim::Rng(sol::sim::DeriveStreamSeed(seed, 101));
    // Each tick schedules one reschedule and, with probability p, one
    // timeout that is later cancelled: cancelled / scheduled = p/(1+p).
    const double c = std::clamp(mix.cancel_ratio, 0.0, 0.45);
    r.timeout_probability = c / (1.0 - c);

    const sol::cluster::SyntheticAgentConfig& cadence = mix.cadence;
    const double jitter = std::clamp(cadence.period_jitter, 0.0, 0.5);
    const std::size_t depth = std::max<std::size_t>(mix.depth, 1);
    r.periods.resize(depth);
    r.timeouts.resize(depth);
    for (std::size_t i = 0; i < depth; ++i) {
        double period =
            static_cast<double>(cadence.data_collect_interval.count()) *
            (1.0 + jitter * (2.0 * r.rng.NextDouble() - 1.0));
        if (cadence.burst_factor > 1.0 &&
            r.rng.NextBool(cadence.burst_fraction)) {
            period /= cadence.burst_factor;
        }
        r.periods[i] = std::max<Duration>(
            sol::sim::Nanos(static_cast<std::int64_t>(period)),
            sol::sim::Nanos(1));
        // Millisecond-aligned starts keep the same-instant ties that
        // uniform fleets have.
        const auto slots = static_cast<std::uint64_t>(std::max<std::int64_t>(
            r.periods[i] / sol::sim::Millis(1), 1));
        r.queue.ScheduleAt(
            sol::sim::Millis(static_cast<std::int64_t>(
                r.rng.NextBelow(slots))),
            Tick{&r, i});
    }

    const std::uint64_t per_round = 300'000;
    const Duration step = sol::sim::Millis(100);
    r.queue.RunUntil(r.queue.Now() + step);  // Warm the arena.
    std::vector<double> rounds;
    for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t before = r.queue.executed();
        const auto start = Clock::now();
        while (r.queue.executed() - before < per_round) {
            r.queue.RunUntil(r.queue.Now() + step);
        }
        rounds.push_back(ElapsedNs(start) /
                         static_cast<double>(r.queue.executed() - before));
    }
    g_sink = g_sink + static_cast<double>(r.queue.trace_hash() & 0xff);
    return Median(rounds);
}

double
ArbiterAdmitNs(const sol::cluster::MultiAgentNodeConfig& node,
               double expand_share, std::uint64_t seed)
{
    using sol::core::ActuationDomain;
    std::vector<std::pair<std::string, ActuationDomain>> agents;
    if (node.run_overclock) {
        agents.emplace_back(sol::agents::kSmartOverclockName,
                            ActuationDomain::kCpuFrequency);
    }
    if (node.run_harvest) {
        agents.emplace_back(sol::agents::kSmartHarvestName,
                            ActuationDomain::kCpuCores);
    }
    if (node.run_memory) {
        agents.emplace_back(sol::agents::kSmartMemoryName,
                            ActuationDomain::kMemoryPlacement);
    }
    if (node.run_monitor) {
        agents.emplace_back(sol::agents::kSmartMonitorName,
                            ActuationDomain::kTelemetryBudget);
    }
    for (std::size_t i = 0; i < node.synthetic_agents; ++i) {
        agents.emplace_back("synthetic" + std::to_string(i),
                            SyntheticDomain(node, i));
    }

    sol::sim::Rng rng(sol::sim::DeriveStreamSeed(seed, 102));
    std::vector<sol::core::ActuationRequest> requests(100'000);
    for (sol::core::ActuationRequest& request : requests) {
        const auto& [agent, domain] = agents[rng.NextBelow(agents.size())];
        request.agent = agent;
        request.domain = domain;
        request.intent = rng.NextBool(expand_share)
                             ? sol::core::ActuationIntent::kExpand
                             : sol::core::ActuationIntent::kRestore;
        request.magnitude = 1.0;
    }

    sol::telemetry::MetricRegistry registry;
    sol::cluster::InterferenceArbiter arbiter(
        node.arbiter, sol::telemetry::MetricScope(registry, "arbiter"));
    std::vector<double> rounds;
    std::uint64_t admitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const auto start = Clock::now();
        for (const sol::core::ActuationRequest& request : requests) {
            admitted += arbiter.Admit(request).admitted ? 1 : 0;
        }
        rounds.push_back(ElapsedNs(start) /
                         static_cast<double>(requests.size()));
    }
    g_sink = g_sink + static_cast<double>(admitted);
    return Median(rounds);
}

double
DriverQueryNs(const sol::workloads::TraceDriver& driver,
              std::size_t num_tenants, Duration window,
              std::size_t num_windows)
{
    std::vector<double> rounds;
    double sum = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        const auto start = Clock::now();
        for (std::size_t w = 0; w < num_windows; ++w) {
            const sol::sim::TimePoint t =
                window * static_cast<std::int64_t>(w);
            for (std::size_t tenant = 0; tenant < num_tenants; ++tenant) {
                sum += driver.DemandAt(t);
                sum += driver.ExpandFractionAt(tenant, t, 0.25);
                sum += driver.InvalidRateAt(tenant, t, 0.02);
            }
        }
        rounds.push_back(
            ElapsedNs(start) /
            static_cast<double>(3 * num_windows * num_tenants));
    }
    g_sink = g_sink + sum;
    return Median(rounds);
}

AlertReplay
ReplayAlerts(const sol::telemetry::TimeSeriesStore& store, Duration window,
             std::size_t num_windows)
{
    AlertReplay replay;
    std::vector<double> rounds;
    for (int round = 0; round < kRounds; ++round) {
        sol::telemetry::AlertEngine engine;
        engine.AddRules(sol::telemetry::DefaultFleetAlertRules());
        const auto start = Clock::now();
        for (std::size_t w = 1; w <= num_windows; ++w) {
            engine.Evaluate(store, window * static_cast<std::int64_t>(w));
        }
        rounds.push_back(ElapsedNs(start) / 1e3 /
                         static_cast<double>(num_windows));
        replay.events = engine.events();
    }
    replay.us_per_window = Median(rounds);
    return replay;
}

}  // namespace perfbench
