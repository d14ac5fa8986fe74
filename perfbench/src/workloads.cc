#include "workloads.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "sim/stage_model.hh"
#include "sim/storm_run.hh"
#include "workload/trace.hh"

namespace perfbench
{

using ouro::PipelineStats;

namespace
{

constexpr std::size_t kWaferRequests = 384;
constexpr std::uint32_t kFleetWafers = 4;
constexpr std::uint32_t kStormWafer = 1;
constexpr std::uint64_t kStormFailures = 16;

/** SplitMix64 finaliser: decorrelates (seed, stream, index). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
streamSeed(std::uint64_t seed, Kind kind, std::uint64_t index,
           std::uint64_t stream)
{
    return mix(mix(mix(seed) ^ static_cast<std::uint64_t>(kind)) ^
               mix(index) ^ stream);
}

/** The popts OuroborosSystem::run gives its engine. */
ouro::PipelineOptions
systemRunOptions(const ouro::OuroborosSystem &sys)
{
    ouro::PipelineOptions popts;
    popts.kind = sys.options().tokenGrained
                     ? ouro::PipelineKind::TokenGrained
                     : ouro::PipelineKind::SequenceGrained;
    popts.staticKvAllocation = !sys.options().dynamicKv;
    popts.maxContext = sys.model().maxContext;
    popts.attentionParallelism = 16.0;
    return popts;
}

/** The popts runFleetServing gives wafer @p w's engine. */
ouro::PipelineOptions
fleetWaferOptions(const ouro::FleetOptions &fo, std::uint32_t w,
                  const std::vector<ouro::KvPoolEvent> &events)
{
    ouro::PipelineOptions popts;
    popts.kind = ouro::PipelineKind::TokenGrained;
    popts.attentionParallelism = fo.attentionParallelism;
    popts.cohortFastPath = fo.cohortFastPath;
    popts.throughputBinSeconds = fo.throughputBinSeconds;
    if (w == fo.stormWafer && !events.empty())
        popts.stormSchedule = &events;
    return popts;
}

/** A KV manager configured exactly as the entry points build theirs. */
ouro::BlockKvManager
makeKv(const ouro::OuroborosSystem &sys)
{
    return ouro::BlockKvManager(sys.model(), sys.scorePool(),
                                sys.contextPool(), 128,
                                sys.options().kvThreshold);
}

void
prefixed(std::vector<std::string> &out, const std::string &prefix,
         const std::vector<std::string> &msgs)
{
    for (const std::string &m : msgs)
        out.push_back(prefix + m);
}

OpOutcome
checkWafer(Kind kind, const Instance &inst,
           const ouro::OuroborosReport &rep)
{
    const ouro::Workload &w = inst.workload;
    const PipelineStats &s = rep.pipeline;
    OpOutcome o;
    o.stats = s;
    o.requests = w.requests.size();
    o.digest = statsDigest(s);
    o.energyJoules = rep.result.energyPerToken.total() *
                     static_cast<double>(s.outputTokens);
    o.violations = conservationViolations(s, Demand::of(w));
    const double n = static_cast<double>(o.requests);
    if (kind == Kind::ChatResident &&
        (s.evictions != 0 || rep.kvEvictions != 0 ||
         s.peakConcurrency != n)) {
        o.violations.push_back(
                "chat-resident left the all-resident regime: " +
                std::to_string(s.evictions) + " evictions, peak " +
                formatNumber(s.peakConcurrency));
    }
    if (kind == Kind::WikitextSaturated && !(s.peakConcurrency < n)) {
        o.violations.push_back(
                "wikitext-saturated is not saturated: peak " +
                formatNumber(s.peakConcurrency));
    }
    o.failedRequests = o.violations.empty() ? s.skippedRequests
                                            : o.requests;
    return o;
}

/**
 * Fleet energy: each wafer priced as OuroborosSystem::run prices a
 * CIM wafer - per-token energy at the wafer's mean context times its
 * processed tokens, plus fabric static power over its makespan.
 */
double
fleetEnergyJoules(const ouro::OuroborosSystem &sys,
                  const ouro::FleetResult &fr)
{
    const ouro::FabricFlags flags{sys.options().useCim,
                                  sys.options().waferScale};
    const double static_watts = ouro::fabricStaticPower(
            sys.model(), sys.params(), sys.activeCores());
    double joules = 0.0;
    for (const PipelineStats &s : fr.wafers) {
        joules += ouro::perTokenEnergy(sys.model(), sys.params(),
                                       sys.distances(), flags,
                                       s.avgContext, 0.0)
                          .total() *
                      static_cast<double>(s.tokensProcessed) +
                  static_watts * s.makespanSeconds;
    }
    return joules;
}

std::uint64_t
fleetDigest(const ouro::FleetResult &fr)
{
    Digest d;
    for (const std::uint32_t a : fr.assignment)
        d.u64(a);
    for (const PipelineStats &s : fr.wafers)
        d.u64(statsDigest(s));
    d.u64(statsDigest(fr.fleet)).u64(eventsDigest(fr.events));
    return d.value();
}

OpOutcome
checkFleet(const ouro::OuroborosSystem &sys, const Instance &inst,
           const ouro::FleetResult &fr)
{
    const ouro::Workload &w = inst.workload;
    OpOutcome o;
    o.stats = fr.fleet;
    o.requests = w.requests.size();
    o.digest = fleetDigest(fr);
    o.energyJoules = fleetEnergyJoules(sys, fr);
    const std::vector<ouro::Workload> shards = ouro::splitByAssignment(
            w, fr.assignment, inst.fleet.numWafers);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        prefixed(o.violations, "wafer " + std::to_string(i) + ": ",
                 conservationViolations(fr.wafers[i],
                                        Demand::of(shards[i])));
    }
    prefixed(o.violations, "fleet: ",
             conservationViolations(fr.fleet, Demand::of(w)));
    if (fr.failuresHandled == 0)
        o.violations.push_back("storm-fleet: the storm resolved no "
                               "failures");
    o.failedRequests = o.violations.empty()
                           ? fr.fleet.skippedRequests
                           : o.requests;
    return o;
}

double
hitRate(const PipelineStats &s)
{
    const double total =
        static_cast<double>(s.timingCacheHits + s.timingCacheMisses);
    return total > 0.0 ? static_cast<double>(s.timingCacheHits) / total
                       : 0.0;
}

/**
 * Share of processed tokens the workload asked for; the rest is
 * re-prefill after evictions. Taken from the demand rather than as
 * 1 - recomputedTokens / tokensProcessed: recomputedTokens books the
 * whole re-prefill at every eviction, also when an eviction strikes
 * a re-prefill that is still under way, so under thrashing it can
 * exceed tokensProcessed.
 */
double
usefulTokenFrac(const PipelineStats &s, const ouro::Workload &w)
{
    return s.tokensProcessed > 0
               ? static_cast<double>(w.totalTokens()) /
                     static_cast<double>(s.tokensProcessed)
               : 0.0;
}

/** KV getters of one harness-owned manager after its run. */
struct KvReadout
{
    std::uint64_t vSpills = 0;
    std::uint64_t admissions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t usedBlocks = 0;
    std::uint64_t totalBlocks = 0;

    static KvReadout of(const ouro::BlockKvManager &kv)
    {
        return {kv.vSpills(), kv.admissionCount(), kv.evictionCount(),
                kv.usedBlocks(), kv.totalBlocks()};
    }

    KvReadout &operator+=(const KvReadout &o)
    {
        vSpills += o.vSpills;
        admissions += o.admissions;
        evictions += o.evictions;
        usedBlocks += o.usedBlocks;
        totalBlocks += o.totalBlocks;
        return *this;
    }
};

void
pipelineLayer(std::map<std::string, double> &layer,
              const PipelineStats &s, const ouro::Workload &w,
              double utilization, double run_seconds)
{
    const double items = static_cast<double>(s.itemsProcessed);
    layer["pipeline.items"] = items;
    layer["pipeline.items_per_s"] =
        run_seconds > 0.0 ? items / run_seconds : 0.0;
    layer["pipeline.timing_cache_hit_rate"] = hitRate(s);
    layer["pipeline.peak_concurrency"] = s.peakConcurrency;
    layer["pipeline.utilization"] = utilization;
    layer["pipeline.useful_token_frac"] = usefulTokenFrac(s, w);
}

void
kvLayer(std::map<std::string, double> &layer, const KvReadout &kv,
        std::uint64_t requests)
{
    layer["kvcache.v_spills"] = static_cast<double>(kv.vSpills);
    layer["kvcache.admissions_per_request"] =
        static_cast<double>(kv.admissions) /
        static_cast<double>(requests);
    layer["kvcache.evictions"] = static_cast<double>(kv.evictions);
    layer["kvcache.utilization"] =
        kv.totalBlocks > 0 ? static_cast<double>(kv.usedBlocks) /
                                 static_cast<double>(kv.totalBlocks)
                           : 0.0;
}

OpOutcome
tracedWaferOp(Kind kind, const ouro::OuroborosSystem &sys,
              const Instance &inst, Tracer &tracer, std::int64_t op,
              std::map<std::string, double> &layer)
{
    const ouro::Workload &w = inst.workload;
    double t0 = nowSeconds();
    const ouro::OuroborosReport untraced = sys.run(w);
    const double untraced_wall = nowSeconds() - t0;

    ouro::OuroborosReport rep;
    ouro::BlockKvManager kv = makeKv(sys);
    PipelineStats again;
    double traced_wall = 0.0;
    double run_wall = 0.0;
    {
        Tracer::Scope op_span(tracer, "op", op);
        t0 = nowSeconds();
        {
            Tracer::Scope s(tracer, "sim.run", op);
            rep = sys.run(w);
        }
        traced_wall = nowSeconds() - t0;
        t0 = nowSeconds();
        {
            Tracer::Scope s(tracer, "pipeline.run", op);
            again = ouro::runPipeline(w, sys.model(), sys.stageTiming(),
                                      kv, systemRunOptions(sys));
        }
        run_wall = nowSeconds() - t0;
    }

    OpOutcome o = checkWafer(kind, inst, rep);
    if (statsDigest(untraced.pipeline) != o.digest)
        o.violations.push_back("replay: the untraced run's stats differ");
    if (statsDigest(again) != o.digest)
        o.violations.push_back("re-issued runPipeline differs from "
                               "OuroborosSystem::run");
    if (!o.violations.empty())
        o.failedRequests = o.requests;

    layer["trace.overhead_s"] = traced_wall - untraced_wall;
    pipelineLayer(layer, again, w, again.utilization, run_wall);
    kvLayer(layer, KvReadout::of(kv), o.requests);
    return o;
}

OpOutcome
tracedFleetOp(const ouro::OuroborosSystem &sys, const Instance &inst,
              Tracer &tracer, std::int64_t op,
              std::map<std::string, double> &layer)
{
    const ouro::Workload &w = inst.workload;
    const ouro::FleetOptions &fo = inst.fleet;
    double t0 = nowSeconds();
    const ouro::FleetResult untraced =
        ouro::runFleetServing(sys, w, fo);
    const double untraced_wall = nowSeconds() - t0;

    ouro::FleetResult fr;
    ouro::ResolvedStorm storm;
    std::vector<std::uint32_t> assignment;
    std::vector<PipelineStats> wafers(fo.numWafers);
    std::vector<KvReadout> kv(fo.numWafers);
    double traced_wall = 0.0;
    double simulate_wall = 0.0;
    {
        Tracer::Scope op_span(tracer, "op", op);
        t0 = nowSeconds();
        {
            Tracer::Scope s(tracer, "sim.fleet", op);
            fr = ouro::runFleetServing(sys, w, fo);
        }
        traced_wall = nowSeconds() - t0;
        {
            Tracer::Scope s(tracer, "runtime.resolve_storm", op);
            storm = ouro::resolveStormSchedule(sys, fo.injector,
                                               fo.recovery);
        }
        std::vector<ouro::Workload> shards;
        {
            Tracer::Scope s(tracer, "sim.fleet.dispatch", op);
            ouro::FleetDispatchConfig cfg;
            cfg.numWafers = fo.numWafers;
            cfg.affinity = fo.affinity;
            cfg.capacityWeight = fr.dispatchWeight;
            assignment = ouro::fleetDispatch(w, cfg);
            shards = ouro::splitByAssignment(w, assignment,
                                             fo.numWafers);
        }
        t0 = nowSeconds();
        {
            Tracer::Scope s(tracer, "sim.fleet.simulate", op);
            ouro::parallelFor(fo.numWafers, [&](std::size_t i) {
                const auto wafer = static_cast<std::uint32_t>(i);
                ouro::BlockKvManager manager = makeKv(sys);
                wafers[i] = ouro::runPipeline(
                        shards[i], sys.model(), sys.stageTiming(),
                        manager,
                        fleetWaferOptions(fo, wafer, storm.events));
                kv[i] = KvReadout::of(manager);
            });
        }
        simulate_wall = nowSeconds() - t0;
    }

    OpOutcome o = checkFleet(sys, inst, fr);
    if (fleetDigest(untraced) != o.digest)
        o.violations.push_back("replay: the untraced fleet run differs");
    if (eventsDigest(storm.events) != eventsDigest(fr.events) ||
        storm.failuresInjected != fr.failuresInjected ||
        storm.failuresHandled != fr.failuresHandled ||
        storm.failuresSkipped != fr.failuresSkipped ||
        storm.kvCoresLost != fr.kvCoresLost ||
        storm.kvCoresAdopted != fr.kvCoresAdopted ||
        storm.borrows != fr.borrows) {
        o.violations.push_back("re-issued resolveStormSchedule differs "
                               "from runFleetServing's");
    }
    if (assignment != fr.assignment)
        o.violations.push_back("re-issued fleetDispatch differs from "
                               "runFleetServing's");
    PipelineStats fold = wafers[0];
    for (std::size_t i = 1; i < wafers.size(); ++i)
        fold.mergeConcurrent(wafers[i]);
    bool same_wafers = statsDigest(fold) == statsDigest(fr.fleet);
    for (std::size_t i = 0; i < wafers.size(); ++i)
        same_wafers = same_wafers &&
                      statsDigest(wafers[i]) == statsDigest(fr.wafers[i]);
    if (!same_wafers)
        o.violations.push_back("re-issued per-wafer runPipeline differs "
                               "from runFleetServing's");
    if (!o.violations.empty())
        o.failedRequests = o.requests;

    layer["trace.overhead_s"] = traced_wall - untraced_wall;
    double util = 0.0;
    double lo = wafers[0].makespanSeconds;
    double hi = lo;
    KvReadout kv_total;
    for (std::size_t i = 0; i < wafers.size(); ++i) {
        util += wafers[i].utilization / static_cast<double>(wafers.size());
        lo = std::min(lo, wafers[i].makespanSeconds);
        hi = std::max(hi, wafers[i].makespanSeconds);
        kv_total += kv[i];
    }
    pipelineLayer(layer, fold, w, util, simulate_wall);
    kvLayer(layer, kv_total, o.requests);
    layer["runtime.failures_handled"] =
        static_cast<double>(storm.failuresHandled);
    layer["runtime.kv_cores_lost"] = static_cast<double>(storm.kvCoresLost);
    layer["runtime.borrows"] = static_cast<double>(storm.borrows);
    layer["sim.fleet.makespan_spread"] = hi > 0.0 ? (hi - lo) / hi : 0.0;
    layer["sim.fleet.storm_evictions"] =
        static_cast<double>(fr.fleet.stormEvictions);
    return o;
}

} // namespace

std::optional<Kind>
parseKind(const std::string &name)
{
    for (const Kind k : {Kind::ChatResident, Kind::WikitextSaturated,
                         Kind::StormFleet}) {
        if (name == kindName(k))
            return k;
    }
    return std::nullopt;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::ChatResident:
        return "chat-resident";
    case Kind::WikitextSaturated:
        return "wikitext-saturated";
    case Kind::StormFleet:
        return "storm-fleet";
    }
    return "?";
}

std::size_t
modelInstanceCount(Kind kind)
{
    // Sized so that seed-to-seed spread of the modelled metrics stays
    // small: a saturated wikitext instance occasionally thrashes, so
    // that workload needs many.
    switch (kind) {
    case Kind::ChatResident:
        return 9;
    case Kind::WikitextSaturated:
        return 39;
    case Kind::StormFleet:
        return 24;
    }
    return 0;
}

ouro::OuroborosSystem
buildSystem()
{
    auto sys = ouro::OuroborosSystem::build(ouro::llama13b(),
                                            ouro::OuroborosParams{},
                                            ouro::OuroborosOptions{});
    if (!sys)
        ouro::fatal("perfbench: llama13b does not fit the wafer");
    // One replica chain, so OuroborosSystem::run serves the whole
    // workload on one engine - the re-issued runPipeline relies on it.
    if (sys->replicas() != 1)
        ouro::fatal("perfbench: expected one replica chain, got ",
                    sys->replicas());
    return std::move(*sys);
}

Instance
makeInstance(Kind kind, std::uint64_t seed, std::uint64_t index)
{
    Instance inst;
    const std::uint64_t s = streamSeed(seed, kind, index, 0);
    switch (kind) {
    case Kind::ChatResident: {
        ouro::Rng rng(s);
        inst.workload.name = "chat-resident";
        for (std::size_t i = 0; i < kWaferRequests; ++i) {
            ouro::Request r;
            r.id = i;
            r.prefillLen = rng.uniformInt(16, 32);
            r.decodeLen = rng.uniformInt(64, 96);
            inst.workload.requests.push_back(r);
        }
        break;
    }
    case Kind::WikitextSaturated:
        inst.workload = ouro::wikiText2Like(kWaferRequests, 2048, s);
        break;
    case Kind::StormFleet: {
        // One hour at the 10:00 peak (weight 1.0 of a 15.43 daily
        // total) of a 15800-request day: ~1024 requests, ~256 per
        // wafer, every one admitted at 512 tokens max.
        ouro::DayTraceParams tp;
        tp.requests = 15800;
        tp.seed = s;
        tp.maxLen = 512;
        inst.workload = ouro::DayTrace(tp).window(10 * 3600.0,
                                                  11 * 3600.0);
        ouro::FleetOptions &fo = inst.fleet;
        fo.numWafers = kFleetWafers;
        fo.stormWafer = kStormWafer;
        fo.throughputBinSeconds = 0.01;
        // Wafer makespans run ~0.45-0.65 s: the storm lands in the
        // first half of the run, while the pool is full.
        fo.injector.failures = kStormFailures;
        fo.injector.stormStart = 0.15;
        fo.injector.stormDuration = 0.1;
        fo.injector.seed = streamSeed(seed, kind, index, 1);
        break;
    }
    }
    return inst;
}

OpOutcome
runOp(Kind kind, const ouro::OuroborosSystem &sys, const Instance &inst,
      double &wall)
{
    const double t0 = nowSeconds();
    if (kind == Kind::StormFleet) {
        const ouro::FleetResult fr =
            ouro::runFleetServing(sys, inst.workload, inst.fleet);
        wall = nowSeconds() - t0;
        return checkFleet(sys, inst, fr);
    }
    const ouro::OuroborosReport rep = sys.run(inst.workload);
    wall = nowSeconds() - t0;
    return checkWafer(kind, inst, rep);
}

OpOutcome
runTracedOp(Kind kind, const ouro::OuroborosSystem &sys,
            const Instance &inst, Tracer &tracer, std::int64_t op,
            std::map<std::string, double> &layer)
{
    return kind == Kind::StormFleet
               ? tracedFleetOp(sys, inst, tracer, op, layer)
               : tracedWaferOp(kind, sys, inst, tracer, op, layer);
}

} // namespace perfbench
