/**
 * @file
 * The benchmark's three workloads and the ops that drive them
 * through the simulator's public entry points.
 *
 *  - chat-resident: one llama13b wafer, 384 short chats (prompts of
 *    16-32 tokens, 64-96 output tokens). Every sequence fits one
 *    128-token KV block, so the whole batch is resident from t = 0:
 *    no evictions, an empty wait queue, time spent in the cohort
 *    decode ring and the timing cache. The bypass case for any
 *    admission or KV-pressure change (prediction: no change).
 *  - wikitext-saturated: one wafer, 384 wikiText2Like requests up to
 *    2048 tokens. Peak residency stalls below the request count, so
 *    the wait queue stays non-empty and the pool full: MRU eviction,
 *    re-prefill and the admission retry loop. The production regime.
 *  - storm-fleet: four wafers behind runFleetServing serving a
 *    one-hour DayTrace window of about 1000 requests, wafer 1 taking
 *    a 16-failure FailureInjector storm, throughput bins on. The only
 *    workload through the router, the storm resolution and the KV
 *    pool's mid-run dropCore/adoptCore mutations.
 *
 * Instance k of a workload is a pure function of (seed, k); the
 * simulator receives only the generated requests.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/fleet.hh"
#include "sim/system.hh"

namespace perfbench
{

enum class Kind
{
    ChatResident,
    WikitextSaturated,
    StormFleet,
};

std::optional<Kind> parseKind(const std::string &name);
const char *kindName(Kind kind);

/**
 * Instances pooled into the modelled metrics: a fixed set (indices
 * 0..n-1) independent of run length, large enough that p99 has at
 * least ten samples beyond it and that seed-to-seed spread stays
 * small.
 */
std::size_t modelInstanceCount(Kind kind);

/** The llama13b deployment every workload runs on. */
ouro::OuroborosSystem buildSystem();

/** One generated input of a workload. */
struct Instance
{
    ouro::Workload workload;
    /** Fleet configuration (storm-fleet only). */
    ouro::FleetOptions fleet;
};

Instance makeInstance(Kind kind, std::uint64_t seed, std::uint64_t index);

/** What one op produced, reduced to what metrics and checks need. */
struct OpOutcome
{
    /** Served stats: the wafer's run, or the fleet's fold. */
    ouro::PipelineStats stats;
    /** Modelled energy of the op (joules). */
    double energyJoules = 0.0;
    /** Digest over every PipelineStats the op produced (fleet: each
     *  wafer, then the fold) and the resolved storm events. */
    std::uint64_t digest = 0;
    std::uint64_t requests = 0;
    /** Skipped requests, or every request when a check failed. */
    std::uint64_t failedRequests = 0;
    std::vector<std::string> violations;
};

/**
 * One op: a single call into the workload's entry point
 * (OuroborosSystem::run or runFleetServing) followed by the per-op
 * checks. @p wall receives the host seconds of the entry-point call
 * alone.
 */
OpOutcome runOp(Kind kind, const ouro::OuroborosSystem &sys,
                const Instance &inst, double &wall);

/**
 * The traced op: the entry point once untraced and once inside an
 * "op" span, then the layer calls it makes re-issued with the same
 * inputs as child spans (runPipeline on a harness-owned
 * BlockKvManager; resolveStormSchedule, fleetDispatch and the
 * per-wafer simulation for the fleet). Every re-issued result must
 * equal the entry point's bit for bit. @p layer receives the op's
 * per-layer counts, read at those boundaries.
 */
OpOutcome runTracedOp(Kind kind, const ouro::OuroborosSystem &sys,
                      const Instance &inst, Tracer &tracer,
                      std::int64_t op,
                      std::map<std::string, double> &layer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
