/**
 * @file
 * The repository benchmark's driver: runs one workload (see
 * workloads.h) for a fixed host time and prints its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * --trace 0 measures the end-to-end metrics: repeated fixed-horizon
 * passes (construct the fleet, run N windows, read its counters) until
 * the time is used, with no benchmark spans.
 *
 * --trace 1 measures the per-layer metrics: the same passes alternating
 * with and without the benchmark's spans (and, for scenario_cascade,
 * with the flight recorder or health sampling off), then a serial
 * re-step of the same shards, then single-module replays. Spans are
 * written to <out-dir>/spans_<workload>_seed<n>.json.
 *
 * Every pass checks the program's output: each pass of a seed must
 * reproduce the same fleet trace hash and counters, no event may be
 * dropped, and in the traced run the spans, recorder-off and health-off
 * passes and the serial re-step must reproduce the untraced hashes.
 * The last stdout line is one JSON object the wrapper (run.py) reads.
 */
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "host.h"
#include "replays.h"
#include "spans.h"
#include "telemetry/alerting.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;
using sol::fleet::ShardedFleetRunner;

double
Secs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
Median(const std::vector<double>& values)
{
    return Quantile(values, 0.5);
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
Hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

/** Named correctness checks; a failure names the check that failed. */
class Checks
{
  public:
    void
    Expect(const std::string& name, bool ok, const std::string& detail)
    {
        list_.push_back({name, ok, detail});
    }
    bool
    AllOk() const
    {
        return std::all_of(list_.begin(), list_.end(),
                           [](const Entry& e) { return e.ok; });
    }
    std::string
    Json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < list_.size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += "{\"name\":" + JsonString(list_[i].name) +
                   ",\"ok\":" + (list_[i].ok ? "true" : "false") +
                   ",\"detail\":" + JsonString(list_[i].detail) + "}";
        }
        return out + "]";
    }
    void
    Print(std::ostream& os) const
    {
        for (const Entry& e : list_) {
            os << "check " << (e.ok ? "PASS " : "FAIL ") << e.name << ": "
               << e.detail << "\n";
        }
    }

  private:
    struct Entry {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Entry> list_;
};

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void
    Set(const std::string& name, double value, const std::string& unit)
    {
        list_.push_back({name, value, unit});
    }
    std::string
    Json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < list_.size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += JsonString(list_[i].name) +
                   ":{\"value\":" + JsonNumber(list_[i].value) +
                   ",\"unit\":" + JsonString(list_[i].unit) + "}";
        }
        return out + "}";
    }
    void
    Print(std::ostream& os) const
    {
        for (const Entry& e : list_) {
            os << "metric " << std::left << std::setw(36) << e.name
               << std::right << std::setw(18) << JsonNumber(e.value) << " "
               << e.unit << "\n";
        }
    }

  private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> list_;
};

/** Benchmark spans plus a running window id shared by every pass. */
struct Tracing {
    pb::SpanLog log;
    std::int64_t next_window = 0;
};

struct PassOptions {
    bool recorder = false;
    bool health = false;
    Tracing* tracing = nullptr;
    /** Serialize the flight recorder and the health report (timed). */
    bool export_telemetry = false;
};

/** Everything one fixed-horizon pass observed. */
struct PassResult {
    double setup_s = 0.0;
    double run_s = 0.0;
    double cpu_s = 0.0;
    double virtual_s = 0.0;
    std::vector<double> window_ms;

    std::uint64_t fleet_hash = 0;
    std::uint64_t executed = 0;
    std::vector<std::uint64_t> shard_hashes;
    sol::sim::EventQueueStats queue;
    sol::cluster::FleetStats fleet;
    sol::core::RuntimeStats agents;
    std::uint64_t synthetic_expands = 0;

    std::uint64_t trace_recorded = 0;
    std::uint64_t trace_dropped = 0;
    std::uint64_t trace_bytes = 0;
    double trace_export_ms = 0.0;

    std::uint64_t health_samples = 0;
    std::uint64_t timeline_hash = 0;
    std::vector<sol::telemetry::AlertEvent> alerts;
    double health_report_ms = 0.0;
    std::unique_ptr<sol::telemetry::TimeSeriesStore> health_store;

    double
    EventsPerSecond() const
    {
        return Ratio(static_cast<double>(executed), run_s);
    }
};

PassResult
RunPass(const pb::Workload& w, const PassOptions& options)
{
    pb::SpanLog* log =
        options.tracing != nullptr ? &options.tracing->log : nullptr;
    sol::fleet::FleetConfig config = w.fleet;
    sol::telemetry::trace::TraceSession session;
    auto store = std::make_unique<sol::telemetry::TimeSeriesStore>();
    sol::telemetry::AlertEngine engine;
    if (options.recorder) {
        config.trace = &session;
    }
    if (options.health) {
        engine.AddRules(sol::telemetry::DefaultFleetAlertRules());
        config.health = store.get();
        config.alerts = &engine;
    }

    PassResult r;
    std::unique_ptr<ShardedFleetRunner> runner;
    {
        pb::ScopedSpan span(log, "ShardedFleetRunner()", "fleet");
        const auto start = Clock::now();
        runner = std::make_unique<ShardedFleetRunner>(config);
        r.setup_s = Secs(start, Clock::now());
    }

    r.window_ms.reserve(w.windows_per_pass);
    const double cpu_start = pb::ProcessCpuSeconds();
    const auto run_start = Clock::now();
    for (std::size_t k = 0; k < w.windows_per_pass; ++k) {
        const std::int64_t id = options.tracing != nullptr
                                    ? options.tracing->next_window++
                                    : static_cast<std::int64_t>(k);
        pb::ScopedSpan span(log, "ShardedFleetRunner::Run", "fleet", id);
        const auto start = Clock::now();
        runner->Run(config.window);
        r.window_ms.push_back(Secs(start, Clock::now()) * 1e3);
    }
    r.run_s = Secs(run_start, Clock::now());
    r.cpu_s = pb::ProcessCpuSeconds() - cpu_start;
    r.virtual_s = sol::sim::ToSeconds(runner->Now());

    {
        pb::ScopedSpan span(log, "ShardedFleetRunner::QueueStats", "sim");
        r.queue = runner->QueueStats();
        r.executed = runner->total_executed();
        r.fleet_hash = runner->fleet_trace_hash();
        for (std::size_t s = 0; s < runner->num_shards(); ++s) {
            r.shard_hashes.push_back(runner->shard(s).queue().trace_hash());
        }
    }
    {
        pb::ScopedSpan span(log, "ShardedFleetRunner::Stats", "cluster");
        r.fleet = runner->Stats();
    }
    {
        pb::ScopedSpan span(log, "MultiAgentNode::AggregateStats", "core");
        for (std::size_t i = 0; i < runner->num_nodes(); ++i) {
            sol::cluster::MultiAgentNode& node = runner->node(i);
            r.agents.Accumulate(node.AggregateStats());
            for (std::size_t j = 0; j < node.num_synthetic_agents(); ++j) {
                const auto& actuator = node.synthetic_agent(j).actuator();
                r.synthetic_expands +=
                    actuator.expands_admitted() + actuator.expands_denied();
            }
        }
    }
    if (options.recorder) {
        r.trace_recorded = session.total_recorded();
        r.trace_dropped = session.total_dropped();
        if (options.export_telemetry) {
            pb::ScopedSpan span(log, "ChromeTraceWriter::ToString",
                                "telemetry");
            const auto start = Clock::now();
            r.trace_bytes = sol::telemetry::trace::ChromeTraceWriter::
                                ToString(session)
                                    .size();
            r.trace_export_ms = Secs(start, Clock::now()) * 1e3;
        }
    }
    if (options.health) {
        r.health_samples = store->total_appended();
        r.timeline_hash = store->timeline_hash();
        r.alerts = engine.events();
        if (options.export_telemetry) {
            pb::ScopedSpan span(log, "HealthReportWriter::ToString",
                                "telemetry");
            const auto start = Clock::now();
            const std::string report =
                sol::telemetry::HealthReportWriter::ToString(w.name, *store,
                                                             engine);
            r.health_report_ms = Secs(start, Clock::now()) * 1e3;
        }
    }
    {
        pb::ScopedSpan span(log, "~ShardedFleetRunner()", "fleet");
        runner->Stop();
        runner.reset();
    }
    if (options.health) {
        r.health_store = std::move(store);
    }
    return r;
}

/** Per-shard host times of a serial re-step of the workload's shards. */
struct Restep {
    std::vector<std::vector<double>> shard_ms;  ///< [window][shard]
    std::vector<std::uint64_t> shard_hashes;
    std::vector<std::uint64_t> shard_executed;
};

Restep
RunRestep(const pb::Workload& w, Tracing& tracing)
{
    sol::fleet::FleetConfig config = w.fleet;
    config.num_threads = 1;
    ShardedFleetRunner runner(config);
    Restep r;
    for (std::size_t k = 0; k < w.windows_per_pass; ++k) {
        const sol::sim::TimePoint horizon =
            config.window * static_cast<std::int64_t>(k + 1);
        const std::int64_t id = tracing.next_window++;
        pb::ScopedSpan window(&tracing.log, "serial re-step window",
                              "fleet", id);
        std::vector<double> times;
        times.reserve(runner.num_shards());
        for (std::size_t s = 0; s < runner.num_shards(); ++s) {
            pb::ScopedSpan span(&tracing.log, "NodeShard::RunUntil",
                                "cluster", id);
            const auto start = Clock::now();
            runner.shard(s).RunUntil(horizon);
            times.push_back(Secs(start, Clock::now()) * 1e3);
        }
        r.shard_ms.push_back(std::move(times));
    }
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        r.shard_hashes.push_back(runner.shard(s).queue().trace_hash());
        r.shard_executed.push_back(runner.shard(s).queue().executed());
    }
    runner.Stop();
    return r;
}

/** Runs `body` repeatedly until `seconds` have passed (at least once). */
template <typename Body>
void
RepeatFor(double seconds, Body&& body)
{
    const auto start = Clock::now();
    do {
        body();
    } while (Secs(start, Clock::now()) < seconds);
}

std::string
AlertLine(const sol::telemetry::AlertEvent& e)
{
    std::ostringstream os;
    os << sol::sim::ToMillis(e.at) << "ms " << e.rule << " "
       << (e.firing ? "firing" : "resolved") << " " << e.value;
    return os.str();
}

/** Behaviour counters the default-seed goldens pin (run.py compares). */
std::string
ObservedJson(const pb::Workload& w, const PassResult& p)
{
    std::ostringstream os;
    os << "{\"fleet_hash\":" << JsonString(Hex(p.fleet_hash))
       << ",\"events\":" << p.executed << ",\"epochs\":" << p.fleet.total_epochs
       << ",\"actions\":" << p.fleet.total_actions
       << ",\"safeguard_triggers\":" << p.fleet.safeguard_triggers
       << ",\"arbiter_requests\":" << p.fleet.arbiter_requests
       << ",\"conflicts_observed\":" << p.fleet.conflicts_observed
       << ",\"conflicts_resolved\":" << p.fleet.conflicts_resolved;
    if (w.health) {
        os << ",\"health_samples\":" << p.health_samples
           << ",\"timeline_hash\":" << JsonString(Hex(p.timeline_hash))
           << ",\"alert_log\":[";
        for (std::size_t i = 0; i < p.alerts.size(); ++i) {
            os << (i ? "," : "") << JsonString(AlertLine(p.alerts[i]));
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

/**
 * True when two passes of one seed agree on everything checked. The
 * recorder and health outputs are compared when both passes ran them
 * (the recorder-off and health-off passes must still match the rest).
 * Alert transitions land on the recorder's fleet track, so recorder
 * counts compare only between passes that agree on health sampling.
 */
bool
SameOutput(const PassResult& a, const PassResult& b)
{
    const bool both_sampled = a.health_samples != 0 && b.health_samples != 0;
    const bool both_recorded = a.trace_recorded != 0 &&
                               b.trace_recorded != 0 &&
                               (a.health_samples != 0) ==
                                   (b.health_samples != 0);
    return a.fleet_hash == b.fleet_hash && a.executed == b.executed &&
           a.shard_hashes == b.shard_hashes &&
           a.fleet.total_epochs == b.fleet.total_epochs &&
           a.fleet.total_actions == b.fleet.total_actions &&
           a.fleet.safeguard_triggers == b.fleet.safeguard_triggers &&
           a.fleet.arbiter_requests == b.fleet.arbiter_requests &&
           a.fleet.conflicts_resolved == b.fleet.conflicts_resolved &&
           (!both_recorded || (a.trace_recorded == b.trace_recorded &&
                               a.trace_dropped == b.trace_dropped)) &&
           (!both_sampled || (a.health_samples == b.health_samples &&
                              a.timeline_hash == b.timeline_hash &&
                              a.alerts == b.alerts));
}

void
CheckPasses(const std::string& name, const std::vector<PassResult>& passes,
            const PassResult& reference, Checks& checks)
{
    std::size_t mismatches = 0;
    for (const PassResult& p : passes) {
        mismatches += SameOutput(p, reference) ? 0 : 1;
    }
    checks.Expect(name, mismatches == 0,
                  std::to_string(passes.size() - mismatches) + "/" +
                      std::to_string(passes.size()) +
                      " passes reproduce fleet hash " +
                      Hex(reference.fleet_hash));
}

void
CheckNoDrops(const std::vector<PassResult>& passes, Checks& checks)
{
    std::uint64_t dropped = 0;
    for (const PassResult& p : passes) {
        dropped += p.queue.dropped;
    }
    checks.Expect("queue.no_drops", dropped == 0,
                  std::to_string(dropped) + " events dropped by backpressure");
}

struct Outcome {
    Metrics metrics;
    Checks checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string observed = "{}";
    std::map<std::string, std::int64_t> self_ns;
    std::string spans_file;
};

void
Tally(const std::vector<PassResult>& passes, Outcome& out)
{
    for (const PassResult& p : passes) {
        out.attempted += p.queue.scheduled;
        out.failed += p.queue.dropped;
    }
}

void
MeasureEndToEnd(const pb::Workload& w, const Args& args, Outcome& out)
{
    std::vector<PassResult> passes;
    RepeatFor(args.seconds, [&] {
        passes.push_back(RunPass(w, {w.recorder, w.health, nullptr, false}));
        passes.back().health_store.reset();
    });
    const double peak_rss_mb = pb::PeakRssMb();

    CheckPasses("passes.reproduce", passes, passes.front(), out.checks);
    CheckNoDrops(passes, out.checks);
    Tally(passes, out);
    out.observed = ObservedJson(w, passes.front());

    std::vector<double> events_per_s;
    std::vector<double> cpu_us_per_agent_s;
    std::vector<double> setup_s;
    std::vector<double> window_ms;
    for (const PassResult& p : passes) {
        events_per_s.push_back(p.EventsPerSecond());
        const double agent_s =
            static_cast<double>(p.fleet.total_agents) * p.virtual_s;
        cpu_us_per_agent_s.push_back(Ratio(p.cpu_s * 1e6, agent_s));
        setup_s.push_back(p.setup_s);
        window_ms.insert(window_ms.end(), p.window_ms.begin(),
                         p.window_ms.end());
    }
    out.metrics.Set("events_per_s", Median(events_per_s), "1/s");
    out.metrics.Set("cpu_us_per_agent_s", Median(cpu_us_per_agent_s),
                    "us/agent-s");
    out.metrics.Set("window_ms_p50", Quantile(window_ms, 0.5), "ms");
    out.metrics.Set("window_ms_p90", Quantile(window_ms, 0.9), "ms");
    out.metrics.Set("setup_s", Median(setup_s), "s");
    out.metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
    std::cout << "passes " << passes.size() << ", windows "
              << window_ms.size() << ", events per pass "
              << passes.front().executed << ", failed_ratio "
              << JsonNumber(Ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)))
              << "\n";
}

void
MeasureLayers(const pb::Workload& w, const Args& args,
              const pb::ProcessCounters& counters, Outcome& out)
{
    Tracing tracing;
    std::vector<PassResult> plain;
    std::vector<PassResult> spanned;
    std::vector<PassResult> recorder_off;
    std::vector<PassResult> health_off;
    RepeatFor(args.seconds, [&] {
        plain.push_back(RunPass(w, {w.recorder, w.health, nullptr, false}));
        spanned.push_back(RunPass(
            w, {w.recorder, w.health, &tracing, spanned.empty()}));
        if (w.recorder) {
            recorder_off.push_back(
                RunPass(w, {false, w.health, nullptr, false}));
        }
        if (w.health) {
            health_off.push_back(
                RunPass(w, {w.recorder, false, nullptr, false}));
        }
    });
    const Restep restep = RunRestep(w, tracing);
    const PassResult& ref = plain.front();
    const PassResult& exported = spanned.front();

    CheckPasses("passes.reproduce", plain, ref, out.checks);
    CheckPasses("spans.reproduce_untraced", spanned, ref, out.checks);
    if (w.recorder) {
        CheckPasses("recorder_off.reproduce", recorder_off, ref, out.checks);
    }
    if (w.health) {
        CheckPasses("health_off.reproduce", health_off, ref, out.checks);
    }
    CheckNoDrops(plain, out.checks);
    std::size_t shard_mismatches = 0;
    for (std::size_t s = 0; s < ref.shard_hashes.size(); ++s) {
        shard_mismatches +=
            s < restep.shard_hashes.size() &&
                    restep.shard_hashes[s] == ref.shard_hashes[s]
                ? 0
                : 1;
    }
    out.checks.Expect("restep.shard_hashes",
                      shard_mismatches == 0 &&
                          restep.shard_hashes.size() ==
                              ref.shard_hashes.size(),
                      std::to_string(shard_mismatches) + " of " +
                          std::to_string(ref.shard_hashes.size()) +
                          " shards differ after the serial re-step");
    Tally(plain, out);
    Tally(spanned, out);
    out.observed = ObservedJson(w, ref);

    // --- fleet and cluster: window wall time against the critical path
    // of the round-robin shard assignment, from the serial re-step.
    const std::size_t shards = ref.shard_hashes.size();
    const std::size_t threads =
        std::max<std::size_t>(std::min(w.fleet.num_threads, shards), 1);
    std::vector<double> critical_ms;
    std::vector<double> imbalance;
    std::vector<double> shard_ms;
    double shard_total_ms = 0.0;
    for (const std::vector<double>& window : restep.shard_ms) {
        std::vector<double> load(threads, 0.0);
        for (std::size_t s = 0; s < window.size(); ++s) {
            load[s % threads] += window[s];
            shard_ms.push_back(window[s]);
            shard_total_ms += window[s];
        }
        const double max_load = *std::max_element(load.begin(), load.end());
        double sum = 0.0;
        for (const double l : load) {
            sum += l;
        }
        critical_ms.push_back(max_load);
        imbalance.push_back(
            Ratio(max_load, sum / static_cast<double>(threads)));
    }
    std::vector<double> overhead_ms;
    std::vector<double> pass_wall_ms;
    std::size_t windows = 0;
    for (const PassResult& p : spanned) {
        double wall = 0.0;
        for (std::size_t k = 0; k < p.window_ms.size(); ++k) {
            overhead_ms.push_back(p.window_ms[k] - critical_ms[k]);
            wall += p.window_ms[k];
        }
        pass_wall_ms.push_back(wall);
        windows += p.window_ms.size();
    }
    double events_max = 0.0;
    double events_sum = 0.0;
    for (const std::uint64_t e : restep.shard_executed) {
        events_max = std::max(events_max, static_cast<double>(e));
        events_sum += static_cast<double>(e);
    }
    out.metrics.Set("fleet.windows", static_cast<double>(windows), "count");
    out.metrics.Set("fleet.critical_path_ms_p50", Median(critical_ms), "ms");
    out.metrics.Set("fleet.overhead_ms_p50", Median(overhead_ms), "ms");
    out.metrics.Set(
        "fleet.parallel_efficiency",
        Ratio(shard_total_ms,
              static_cast<double>(threads) * Median(pass_wall_ms)),
        "ratio");
    out.metrics.Set("cluster.shard_step_ms_p50", Quantile(shard_ms, 0.5),
                    "ms");
    out.metrics.Set("cluster.shard_step_ms_p90", Quantile(shard_ms, 0.9),
                    "ms");
    out.metrics.Set("cluster.shard_imbalance_p90", Quantile(imbalance, 0.9),
                    "ratio");
    out.metrics.Set(
        "cluster.shard_events_max_over_mean",
        Ratio(events_max,
              events_sum / static_cast<double>(
                               std::max<std::size_t>(shards, 1))),
        "ratio");

    // --- cluster: arbiter counts, then a bare arbiter replaying the
    // node's agent/domain mix at the measured expand share.
    const double requests = static_cast<double>(ref.fleet.arbiter_requests);
    out.metrics.Set("cluster.arbiter_requests", requests, "count");
    out.metrics.Set("cluster.arbiter_conflicts_observed",
                    static_cast<double>(ref.fleet.conflicts_observed),
                    "count");
    out.metrics.Set("cluster.arbiter_conflicts_resolved",
                    static_cast<double>(ref.fleet.conflicts_resolved),
                    "count");
    out.metrics.Set(
        "cluster.arbiter_denial_ratio",
        Ratio(static_cast<double>(ref.fleet.conflicts_resolved), requests),
        "ratio");
    double admit_ns = 0.0;
    {
        pb::ScopedSpan span(&tracing.log, "InterferenceArbiter::Admit replay",
                            "cluster");
        admit_ns = pb::ArbiterAdmitNs(
            w.fleet.node,
            Ratio(static_cast<double>(ref.synthetic_expands), requests),
            w.fleet.base_seed);
    }
    out.metrics.Set("cluster.arbiter_admit_ns", admit_ns, "ns");

    // --- sim: queue counters, then a bare queue at the measured depth.
    const sol::sim::EventQueueStats& q = ref.queue;
    out.metrics.Set("sim.scheduled", static_cast<double>(q.scheduled),
                    "count");
    out.metrics.Set("sim.executed", static_cast<double>(q.executed),
                    "count");
    out.metrics.Set("sim.cancelled", static_cast<double>(q.cancelled),
                    "count");
    out.metrics.Set("sim.dropped", static_cast<double>(q.dropped), "count");
    out.metrics.Set("sim.peak_pending", static_cast<double>(q.peak_pending),
                    "count");
    out.metrics.Set("sim.arena_slots", static_cast<double>(q.arena_capacity),
                    "count");
    const double cancel_ratio = Ratio(static_cast<double>(q.cancelled),
                                      static_cast<double>(q.scheduled));
    out.metrics.Set("sim.cancel_ratio", cancel_ratio, "ratio");
    double queue_ns = 0.0;
    {
        pb::ScopedSpan span(&tracing.log, "EventQueue replay", "sim");
        pb::QueueMix mix;
        mix.depth = q.peak_pending / std::max<std::size_t>(shards, 1);
        mix.cancel_ratio = cancel_ratio;
        mix.cadence = w.fleet.node.synthetic;
        queue_ns = pb::QueueNsPerEvent(mix, w.fleet.base_seed);
    }
    out.metrics.Set("sim.queue_ns_per_event", queue_ns, "ns");

    // --- core: runtime and epoch-engine counters through the runner.
    const double executed = static_cast<double>(ref.executed);
    out.metrics.Set("core.epochs", static_cast<double>(ref.fleet.total_epochs),
                    "count");
    out.metrics.Set("core.actions",
                    static_cast<double>(ref.fleet.total_actions), "count");
    out.metrics.Set("core.safeguard_triggers",
                    static_cast<double>(ref.fleet.safeguard_triggers),
                    "count");
    out.metrics.Set(
        "core.events_per_epoch",
        Ratio(executed, static_cast<double>(ref.fleet.total_epochs)),
        "events/epoch");
    out.metrics.Set(
        "core.collect_share",
        Ratio(static_cast<double>(ref.agents.samples_collected), executed),
        "ratio");

    // --- telemetry: flight recorder and health path (scenario_cascade;
    // 0 where the workload runs neither).
    auto median_run_s = [](const std::vector<PassResult>& passes) {
        std::vector<double> run_s;
        for (const PassResult& p : passes) {
            run_s.push_back(p.run_s);
        }
        return Median(run_s);
    };
    const double recorded = static_cast<double>(ref.trace_recorded);
    const double dropped = static_cast<double>(ref.trace_dropped);
    out.metrics.Set("telemetry.trace_recorded", recorded, "count");
    out.metrics.Set("telemetry.trace_dropped", dropped, "count");
    out.metrics.Set("telemetry.trace_kept_ratio",
                    Ratio(recorded, recorded + dropped), "ratio");
    out.metrics.Set("telemetry.trace_export_ms", exported.trace_export_ms,
                    "ms");
    out.metrics.Set("telemetry.trace_bytes",
                    static_cast<double>(exported.trace_bytes), "bytes");
    out.metrics.Set(
        "telemetry.trace_cost_ratio",
        w.recorder ? Ratio(median_run_s(plain), median_run_s(recorder_off))
                   : 0.0,
        "ratio");
    out.metrics.Set("telemetry.health_samples",
                    static_cast<double>(ref.health_samples), "count");
    out.metrics.Set("telemetry.alert_transitions",
                    static_cast<double>(ref.alerts.size()), "count");
    double alert_us = 0.0;
    if (w.health && exported.health_store != nullptr) {
        pb::ScopedSpan span(&tracing.log, "AlertEngine::Evaluate replay",
                            "telemetry");
        const pb::AlertReplay replay = pb::ReplayAlerts(
            *exported.health_store, w.fleet.window, w.windows_per_pass);
        alert_us = replay.us_per_window;
        out.checks.Expect("alerts.replay_matches_log",
                          replay.events == ref.alerts,
                          std::to_string(replay.events.size()) +
                              " replayed transitions vs " +
                              std::to_string(ref.alerts.size()) +
                              " recorded");
    }
    out.metrics.Set("telemetry.alert_eval_us", alert_us, "us");
    out.metrics.Set("telemetry.health_report_ms", exported.health_report_ms,
                    "ms");
    out.metrics.Set(
        "telemetry.health_cost_ratio",
        w.health ? Ratio(median_run_s(plain), median_run_s(health_off))
                 : 0.0,
        "ratio");

    // --- workloads: TraceDriver queries over the tenant x window grid.
    double driver_ns = 0.0;
    if (w.driver != nullptr) {
        pb::ScopedSpan span(&tracing.log, "TraceDriver replay", "workloads");
        driver_ns = pb::DriverQueryNs(*w.driver,
                                      w.driver->config().num_tenants,
                                      w.fleet.window, w.windows_per_pass);
    }
    out.metrics.Set("workloads.driver_query_ns", driver_ns, "ns");

    // --- proc: whole-process software counters (every runner joined).
    const pb::ProcessTotals proc = counters.Read();
    out.metrics.Set("proc.task_clock_s", proc.task_clock_s, "s");
    out.metrics.Set("proc.context_switches",
                    static_cast<double>(proc.context_switches), "count");
    out.metrics.Set("proc.cpu_migrations",
                    static_cast<double>(proc.cpu_migrations), "count");
    out.metrics.Set("proc.page_faults", static_cast<double>(proc.page_faults),
                    "count");
    out.metrics.Set("proc.hw_counters", proc.hw_counters ? 1.0 : 0.0,
                    "flag");
    std::cout << "proc counters from "
              << (proc.perf_event ? "perf_event_open" : "getrusage")
              << "; hardware counters "
              << (proc.hw_counters ? "available" : "unavailable") << "\n";

    // --- bench: cost of the benchmark's own spans, and failures.
    std::vector<double> plain_eps;
    std::vector<double> spanned_eps;
    for (const PassResult& p : plain) {
        plain_eps.push_back(p.EventsPerSecond());
    }
    for (const PassResult& p : spanned) {
        spanned_eps.push_back(p.EventsPerSecond());
    }
    out.metrics.Set("bench.span_overhead_ratio",
                    Ratio(Median(plain_eps), Median(spanned_eps)), "ratio");
    out.metrics.Set("bench.failed_ratio",
                    Ratio(static_cast<double>(out.failed),
                          static_cast<double>(out.attempted)),
                    "ratio");

    out.self_ns = pb::LayerSelfTimes(tracing.log.spans());
    out.spans_file = args.out_dir + "/spans_" + w.name + "_seed" +
                     std::to_string(w.fleet.base_seed) + ".json";
    std::ofstream file(out.spans_file);
    pb::WriteChromeJson(tracing.log.spans(), file);
    file.close();
    if (!file) {
        out.checks.Expect("spans.written", false,
                          "could not write " + out.spans_file);
    }
    for (const auto& [layer, ns] : out.self_ns) {
        std::cout << "self time " << std::left << std::setw(10) << layer
                  << std::right << std::setw(12)
                  << JsonNumber(static_cast<double>(ns) / 1e6) << " ms\n";
    }
}

bool
ParseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                args.trace = value == "1";
            } else if (key == "--out-dir") {
                args.out_dir = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!ParseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
        return 2;
    }
    const std::string refusal = pb::TimingRefusal();
    if (!refusal.empty()) {
        std::cerr << "perfbench: refusing to report timings: " << refusal
                  << "\n";
        return 2;
    }
#ifdef __GLIBC__
    // glibc raises its mmap threshold each time a large mmapped block is
    // freed, so the first ~6 fleet constructions of a run page-fault
    // their large blocks and later ones do not: set-up time would step
    // down mid-run. Fixing the threshold at glibc's dynamic maximum keeps
    // one allocator policy for the whole run.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
    // Open the counters before any worker thread exists: threads
    // inherit them only when created afterwards.
    const pb::ProcessCounters counters;
    const std::unique_ptr<pb::Workload> workload =
        pb::MakeWorkload(args.workload, args.seed);
    if (workload == nullptr) {
        std::cerr << "perfbench: unknown workload " << args.workload << "\n";
        return 2;
    }

    Outcome out;
    try {
        if (args.trace) {
            MeasureLayers(*workload, args, counters, out);
        } else {
            MeasureEndToEnd(*workload, args, out);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    const bool correct = out.checks.AllOk();
    if (!correct) {
        out.failed = out.attempted;  // A run that fails a check fails whole.
    }
    out.metrics.Print(std::cout);
    out.checks.Print(std::cout);

    std::string self = "{";
    for (const auto& [layer, ns] : out.self_ns) {
        if (self.size() > 1) {
            self += ',';
        }
        self += JsonString(layer) + ":" +
                JsonNumber(static_cast<double>(ns) / 1e6);
    }
    self += "}";
    std::cout << "{\"workload\":" << JsonString(args.workload)
              << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
              << ",\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed
              << ",\"checks\":" << out.checks.Json()
              << ",\"metrics\":" << out.metrics.Json()
              << ",\"observed\":" << out.observed
              << ",\"self_ms\":" << self
              << ",\"spans_file\":" << JsonString(out.spans_file)
              << ",\"build\":{\"type\":" << JsonString(pb::BuildType())
              << ",\"compiler\":" << JsonString(pb::CompilerVersion())
              << ",\"flags\":" << JsonString(pb::CompileFlags()) << "}}"
              << std::endl;
    return correct ? 0 : 1;
}
