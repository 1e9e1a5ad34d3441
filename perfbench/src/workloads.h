/**
 * @file
 * The benchmark's three workloads, generated from the seed argument.
 *
 * - fleet_sharded: the headline fleet (64 nodes x 77 agents, one shard
 *   per node, jittered and bursty synthetic periods, 4 workers). Barrier
 *   and straggler cost, shard imbalance, 64 shallow queues.
 * - fleet_serial: 8 nodes x 77 agents on one shard and one worker,
 *   uniform periods. One deep queue and no barrier work, so the
 *   sim-core hot path dominates.
 * - scenario_cascade: the library's cascading_safeguards scenario at
 *   its full shape with TraceDriver demand, health sampling plus the
 *   default alert pack every window, and the flight recorder on. The
 *   observability and safeguard path.
 *
 * The seed feeds FleetConfig::base_seed and nothing else; every other
 * setting is fixed here.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/actuation.h"
#include "fleet/fleet_runner.h"
#include "workloads/scenarios.h"
#include "workloads/trace_driver.h"

namespace perfbench {

struct Workload {
    std::string name;
    /** Fleet shape; trace/health/alerts stay null here and are attached
     *  per pass when `recorder` / `health` are set. */
    sol::fleet::FleetConfig fleet;
    /** Windows of FleetConfig::window one measured pass runs. */
    std::size_t windows_per_pass = 0;
    /** Flight recorder on (a TraceSession per pass). */
    bool recorder = false;
    /** Health sampling plus the default alert pack every window. */
    bool health = false;
    /** Demand oracle the nodes consult (scenario_cascade only). */
    std::unique_ptr<sol::workloads::TraceDriver> driver;

    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
};

/** The named workload for `seed`; nullptr when the name is unknown. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

/**
 * Actuation domain of synthetic agent `i` on a node built from
 * `node`: the node's alternating telemetry/memory assignment, then the
 * config's customize_synthetic override. Used to replay a workload's
 * agent/domain mix against a bare arbiter.
 */
sol::core::ActuationDomain
SyntheticDomain(const sol::cluster::MultiAgentNodeConfig& node,
                std::size_t i);

}  // namespace perfbench
