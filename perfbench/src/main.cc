/**
 * @file
 * The benchmark program. One run measures one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-file <path>]
 *
 * --trace 0 (end to end): set up several times (system build plus
 * generation of the fixed instance set) and report the median, then
 * run ops for --seconds on a pool of host threads (one op at a time
 * for the fleet, which parallelises its wafers itself). Host metrics
 * come from the ops started within --seconds, each timed around its
 * entry-point call alone; the modelled metrics come from the fixed
 * instances 0..n-1 only, so they repeat exactly for a seed whatever
 * the run length.
 *
 * --trace 1 (per layer): ops run one at a time with spans around the
 * entry point and around the re-issued layer calls; spans stay in
 * memory and are written to --trace-file at exit.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed (requests) and the metrics with their units.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

constexpr int kSetupReps = 21;

struct Args
{
    Kind kind = Kind::ChatResident;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<chat-resident|wikitext-saturated|storm-fleet> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            const auto kind = parseKind(value);
            if (!kind)
                usage("unknown workload '" + value + "'");
            a.kind = *kind;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad seed '" + value + "'");
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("bad seconds '" + value + "'");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (key == "--trace-file") {
            a.traceFile = value;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (!have_workload || !have_seed || a.seconds <= 0.0)
        usage("--workload, --seed and --seconds are required");
    return a;
}

/** Pin OURO_THREADS to at most the detected cores (and 4). */
unsigned
pinThreads()
{
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    unsigned n = std::min(cores, 4u);
    if (const char *env = std::getenv("OURO_THREADS")) {
        const long req = std::atol(env);
        if (req >= 1)
            n = std::min<unsigned>(n, static_cast<unsigned>(req));
    }
    setenv("OURO_THREADS", std::to_string(n).c_str(), 1);
    return n;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
medianOf(const std::vector<double> &v)
{
    return ouro::percentileOf(v, 50.0);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Tally of requests attempted / failed and check messages. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;

    void add(const OpOutcome &o, std::uint64_t index)
    {
        attempted += o.requests;
        failed += o.failedRequests;
        for (const std::string &v : o.violations)
            violations.push_back("instance " + std::to_string(index) +
                                 ": " + v);
    }
};

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    for (std::size_t i = 0; i < tally.violations.size() && i < 20; ++i)
        std::cerr << "perfbench: check failed: " << tally.violations[i]
                  << "\n";
    const bool correct = tally.failed == 0 && tally.violations.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << formatNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

struct Setup
{
    std::vector<double> setupSeconds;
    std::vector<double> buildSeconds;
    std::vector<double> generateSeconds;
};

struct OpRecord
{
    double wall = 0.0;
    std::uint64_t requests = 0;
};

/** The untraced run: end-to-end metrics. */
void
runEndToEnd(const Args &args, const ouro::OuroborosSystem &sys,
            const std::vector<Instance> &fixed, const Setup &setup,
            unsigned threads)
{
    const std::size_t n_model = fixed.size();
    std::vector<std::optional<OpOutcome>> model(n_model);
    const unsigned workers =
        args.kind == Kind::StormFleet ? 1 : threads;
    std::vector<std::vector<OpRecord>> records(workers);
    std::vector<Tally> tallies(workers);
    std::atomic<std::uint64_t> next{0};

    // Ops that start before the deadline are timed. After it, the
    // workers only finish the fixed instance set, untimed.
    const double start = nowSeconds();
    const double deadline = start + args.seconds;
    const auto worker = [&](unsigned wi) {
        while (true) {
            const bool timed = nowSeconds() < deadline;
            const std::uint64_t k = next.fetch_add(1);
            if (!timed && k >= n_model)
                break;
            const Instance generated =
                k < n_model ? Instance{}
                            : makeInstance(args.kind, args.seed, k);
            const Instance &inst = k < n_model ? fixed[k] : generated;
            double wall = 0.0;
            OpOutcome o = runOp(args.kind, sys, inst, wall);
            if (timed)
                records[wi].push_back({wall, o.requests});
            tallies[wi].add(o, k);
            if (k < n_model)
                model[k] = std::move(o);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned wi = 1; wi < workers; ++wi)
        pool.emplace_back(worker, wi);
    worker(0);
    for (std::thread &t : pool)
        t.join();

    Tally tally;
    std::vector<double> walls;
    double timed_requests = 0.0;
    double timed_seconds = 0.0;
    for (unsigned wi = 0; wi < workers; ++wi) {
        for (const OpRecord &r : records[wi]) {
            walls.push_back(r.wall);
            timed_requests += static_cast<double>(r.requests);
            timed_seconds += r.wall;
        }
    }
    if (walls.empty())
        tally.violations.push_back("no op started inside the window");
    for (const Tally &t : tallies) {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.violations.insert(tally.violations.end(),
                                t.violations.begin(), t.violations.end());
    }

    // Modelled metrics: the fixed instance set only.
    std::vector<ouro::PipelineStats> stats;
    std::vector<double> joules;
    Digest digest;
    for (const std::optional<OpOutcome> &o : model) {
        stats.push_back(o->stats);
        joules.push_back(o->energyJoules);
        digest.u64(o->digest);
    }
    const ModelSummary m = summarizeModel(stats, joules);
    if (m.p99BatchSize == 0)
        tally.violations.push_back(
                "p99 unsupported: " + std::to_string(m.ttftSamples) +
                " TTFT samples");

    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(digest.value()));
    std::cout << "perfbench: workload=" << kindName(args.kind)
              << " seed=" << args.seed << " threads=" << threads
              << " workers=" << workers << " timed_ops=" << walls.size()
              << " model_instances=" << n_model
              << " ttft_samples=" << m.ttftSamples
              << " itl_samples=" << m.itlSamples
              << " p99_batch_instances=" << m.p99BatchSize
              << " p99_batches=" << m.p99Batches << "\n"
              << "model_stats_digest=" << digest_hex << "\n";

    const double failed_frac =
        tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                  static_cast<double>(tally.attempted)
                            : 1.0;
    printResult(
            tally,
            {
                    {"sim_requests_per_s", timed_requests / timed_seconds,
                     "1/s"},
                    {"op_wall_s_p50", medianOf(walls), "s"},
                    {"setup_s", medianOf(setup.setupSeconds), "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"model_output_tokens_per_s",
                     m.outputTokensPerSecond, "1/s"},
                    {"model_ttft_s_p50", m.ttftP50, "s"},
                    {"model_ttft_s_p99", m.ttftP99, "s"},
                    {"model_itl_s_p50", m.itlP50, "s"},
                    {"model_itl_s_p99", m.itlP99, "s"},
                    {"model_energy_mj_per_token", m.energyMjPerToken,
                     "mJ"},
                    {"requests_ok_frac", 1.0 - failed_frac, "frac"},
            });
}

/** Per-layer metrics in output order, with their units. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
        {"workload.generate_s", "s"},
        {"sim.build_s", "s"},
        {"mapping.byte_hops", "byte-hop"},
        {"sim.kv_pool_cores", "count"},
        {"pipeline.run_s", "s"},
        {"pipeline.items", "count"},
        {"pipeline.items_per_s", "1/s"},
        {"pipeline.timing_cache_hit_rate", "frac"},
        {"pipeline.peak_concurrency", "count"},
        {"pipeline.utilization", "frac"},
        {"pipeline.useful_token_frac", "frac"},
        {"kvcache.v_spills", "count"},
        {"kvcache.admissions_per_request", "count"},
        {"kvcache.evictions", "count"},
        {"kvcache.utilization", "frac"},
        {"runtime.resolve_storm_s", "s"},
        {"runtime.failures_handled", "count"},
        {"runtime.kv_cores_lost", "count"},
        {"runtime.borrows", "count"},
        {"sim.fleet.dispatch_s", "s"},
        {"sim.fleet.simulate_s", "s"},
        {"sim.fleet.makespan_spread", "frac"},
        {"sim.fleet.storm_evictions", "count"},
        {"trace.overhead_s", "s"},
};

/** The traced run: per-layer metrics and the span file. */
void
runTraced(const Args &args, const ouro::OuroborosSystem &sys,
          const std::vector<Instance> &fixed, const Setup &setup,
          Tracer &tracer, unsigned threads)
{
    Tally tally;
    std::map<std::string, double> first;
    std::vector<double> overhead;
    std::vector<double> items_per_s;
    const double deadline = nowSeconds() + args.seconds;
    std::int64_t op = 0;
    do {
        const auto k = static_cast<std::uint64_t>(op);
        const Instance generated =
            k < fixed.size() ? Instance{}
                             : makeInstance(args.kind, args.seed, k);
        const Instance &inst = k < fixed.size() ? fixed[k] : generated;
        std::map<std::string, double> layer;
        tally.add(runTracedOp(args.kind, sys, inst, tracer, op, layer),
                  k);
        overhead.push_back(layer["trace.overhead_s"]);
        items_per_s.push_back(layer["pipeline.items_per_s"]);
        if (op == 0)
            first = std::move(layer);
        ++op;
    } while (nowSeconds() < deadline);

    // Counts are instance 0's (deterministic in the seed); host
    // times are medians over the traced ops.
    std::map<std::string, double> values = first;
    values["workload.generate_s"] = medianOf(setup.generateSeconds);
    values["sim.build_s"] = medianOf(setup.buildSeconds);
    values["mapping.byte_hops"] = sys.totalMappingByteHops();
    values["sim.kv_pool_cores"] = static_cast<double>(
            sys.scorePool().size() + sys.contextPool().size());
    values["pipeline.items_per_s"] = medianOf(items_per_s);
    values["trace.overhead_s"] = medianOf(overhead);
    for (const char *span :
         {"pipeline.run", "runtime.resolve_storm", "sim.fleet.dispatch",
          "sim.fleet.simulate"}) {
        values[std::string(span) + "_s"] = tracer.medianSelfTime(span);
    }

    std::vector<Metric> metrics;
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = values.find(name);
        metrics.push_back({name, it == values.end() ? 0.0 : it->second,
                           unit});
    }
    if (!args.traceFile.empty()) {
        const std::map<std::string, std::string> meta = {
                {"workload", kindName(args.kind)},
                {"seed", std::to_string(args.seed)},
                {"threads", std::to_string(threads)},
                {"ops", std::to_string(op)},
        };
        if (!tracer.write(args.traceFile, meta))
            tally.violations.push_back("cannot write trace file " +
                                       args.traceFile);
    }
    std::cout << "perfbench: workload=" << kindName(args.kind)
              << " seed=" << args.seed << " threads=" << threads
              << " traced_ops=" << op << " spans="
              << tracer.spans().size() << "\n";
    printResult(tally, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    ouro::setQuiet(true);
    const unsigned threads = pinThreads();
    Tracer tracer(args.trace);

    // Set-up, repeated so its median is steady: the system build and
    // the generation of the fixed instance set.
    Setup setup;
    std::optional<ouro::OuroborosSystem> sys;
    std::vector<Instance> fixed;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Tracer::Scope span(tracer, "setup", Tracer::kSetupOp);
        const double t0 = nowSeconds();
        {
            Tracer::Scope s(tracer, "sim.build", Tracer::kSetupOp);
            sys.emplace(buildSystem());
        }
        const double t1 = nowSeconds();
        {
            Tracer::Scope s(tracer, "workload.generate",
                            Tracer::kSetupOp);
            fixed.clear();
            for (std::size_t k = 0; k < modelInstanceCount(args.kind);
                 ++k)
                fixed.push_back(makeInstance(args.kind, args.seed, k));
        }
        const double t2 = nowSeconds();
        setup.setupSeconds.push_back(t2 - t0);
        setup.buildSeconds.push_back(t1 - t0);
        setup.generateSeconds.push_back(t2 - t1);
    }

    if (args.trace)
        runTraced(args, *sys, fixed, setup, tracer, threads);
    else
        runEndToEnd(args, *sys, fixed, setup, threads);
    return 0;
}
