/**
 * @file
 * Single-module replays for the traced run: each drives one public API
 * on the main thread with a mix measured from the workload's fleet run,
 * so a layer's cost per call is known apart from the rest of the fleet.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "sim/time.h"
#include "telemetry/alerting.h"
#include "telemetry/timeseries.h"
#include "workloads/trace_driver.h"

namespace perfbench {

/** What the bare EventQueue replay reproduces. */
struct QueueMix {
    std::size_t depth = 1;      ///< Periodic streams (pending depth).
    double cancel_ratio = 0.0;  ///< Cancelled / scheduled.
    /** Stream periods follow the workload's synthetic collect cadence,
     *  including its jitter and burst settings. */
    sol::cluster::SyntheticAgentConfig cadence;
};

/**
 * Host ns per executed event of a bare sol::sim::EventQueue driven
 * through ScheduleAt, Cancel and RunUntil: `depth` self-rescheduling
 * streams, each tick also scheduling and cancelling a timeout at the
 * mix's cancel ratio.
 */
double QueueNsPerEvent(const QueueMix& mix, std::uint64_t seed);

/**
 * Host ns per InterferenceArbiter::Admit on one thread, replaying one
 * node's agents (the four real agents and every synthetic, each on its
 * own domain) with the given share of expand intents.
 */
double ArbiterAdmitNs(const sol::cluster::MultiAgentNodeConfig& node,
                      double expand_share, std::uint64_t seed);

/** Host ns per TraceDriver query (DemandAt, ExpandFractionAt and
 *  InvalidRateAt) over every tenant x window of `horizon`. */
double DriverQueryNs(const sol::workloads::TraceDriver& driver,
                     std::size_t num_tenants, sol::sim::Duration window,
                     std::size_t num_windows);

/** Result of replaying the default alert pack over a recorded store. */
struct AlertReplay {
    double us_per_window = 0.0;
    std::vector<sol::telemetry::AlertEvent> events;
};

/** Times AlertEngine::Evaluate at every window boundary of `store`. */
AlertReplay ReplayAlerts(const sol::telemetry::TimeSeriesStore& store,
                         sol::sim::Duration window,
                         std::size_t num_windows);

}  // namespace perfbench
