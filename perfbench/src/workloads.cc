#include "workloads.h"

#include <algorithm>
#include <thread>

namespace perfbench {

namespace {

/** Per-shard guard rail: a drop is counted as a failed event. */
constexpr std::size_t kQueuePendingLimit = std::size_t{1} << 20;

/** The parallel workloads use 4 workers, capped at the host's cores so
 *  the load never exceeds nproc threads. */
std::size_t
ParallelWorkers()
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw, 1, 4);
}

void
FillFleetSharded(Workload& w)
{
    w.fleet.num_nodes = 64;
    w.fleet.num_shards = 64;
    w.fleet.num_threads = ParallelWorkers();
    w.fleet.node.synthetic_agents = 73;
    w.fleet.node.synthetic.period_jitter = 0.15;
    w.fleet.node.synthetic.burst_fraction = 0.125;
    w.windows_per_pass = 40;
}

void
FillFleetSerial(Workload& w)
{
    w.fleet.num_nodes = 8;
    w.fleet.num_shards = 1;
    w.fleet.num_threads = 1;
    w.fleet.node.synthetic_agents = 73;
    w.windows_per_pass = 100;
}

bool
FillScenarioCascade(Workload& w)
{
    const sol::workloads::Scenario* scenario =
        sol::workloads::FindScenario("cascading_safeguards");
    if (scenario == nullptr) {
        return false;
    }
    const sol::workloads::ScenarioShape& shape = scenario->full;
    const std::size_t tenants = shape.num_nodes * shape.synthetic_agents;
    sol::workloads::TraceDriverConfig driver =
        scenario->build_driver(shape, tenants);
    driver.num_tenants = tenants;
    w.driver = std::make_unique<sol::workloads::TraceDriver>(driver);

    w.fleet.num_nodes = shape.num_nodes;
    w.fleet.num_shards = shape.num_nodes;
    w.fleet.num_threads = ParallelWorkers();
    w.fleet.node.synthetic_agents = shape.synthetic_agents;
    w.fleet.node.trace_driver = w.driver.get();
    if (scenario->customize_node) {
        scenario->customize_node(w.fleet.node);
    }
    w.windows_per_pass = static_cast<std::size_t>(
        shape.horizon / w.fleet.window);
    w.recorder = true;
    w.health = true;
    return true;
}

}  // namespace

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, std::uint64_t seed)
{
    auto w = std::make_unique<Workload>();
    w->name = name;
    w->fleet.base_seed = seed;
    w->fleet.window = sol::sim::Millis(100);
    w->fleet.queue_pending_limit = kQueuePendingLimit;
    if (name == "fleet_sharded") {
        FillFleetSharded(*w);
    } else if (name == "fleet_serial") {
        FillFleetSerial(*w);
    } else if (name != "scenario_cascade" || !FillScenarioCascade(*w)) {
        return nullptr;
    }
    return w;
}

sol::core::ActuationDomain
SyntheticDomain(const sol::cluster::MultiAgentNodeConfig& node,
                std::size_t i)
{
    sol::cluster::SyntheticAgentConfig cfg = node.synthetic;
    cfg.domain = i % 2 == 0 ? sol::core::ActuationDomain::kTelemetryBudget
                            : sol::core::ActuationDomain::kMemoryPlacement;
    if (node.customize_synthetic) {
        node.customize_synthetic(i, cfg);
    }
    return cfg.domain;
}

}  // namespace perfbench
