/**
 * @file
 * Saturation sweep: host cost of the engine as the KV pool goes from
 * idle to full. One llama13b wafer serves wikiText2Like(n) for n from
 * 64 up to argv[1] (default 2048) requests. Below roughly 350
 * requests every request is resident at once; above it the wait
 * queue stays non-empty, the pool stays full, and every engine event
 * retries the queue head's admission (Section 4.4.4 suspends new
 * scheduling rather than evicting).
 *
 * Per point, BENCH_saturation.json records engine items/s (median
 * of three runs), peak residency, capacity evictions and successful
 * admissions, keyed by the request count.
 *
 * Asserted on EVERY run: the sweep reaches both regimes, and the
 * slowest saturated point still runs at >= 0.25x the items/s of the
 * fastest unsaturated one. A failed admission must stay cheap; before
 * admission planning became read-only and memoized this ratio was
 * about 1/75.
 */

#include <algorithm>

#include "bench_util.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

constexpr double kMinSaturatedRatio = 0.25;
constexpr int kRepeats = 3;

struct Point
{
    std::size_t requests = 0;
    double itemsPerSec = 0.0;
    double peakResidency = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t admissions = 0;

    bool saturated() const
    {
        return peakResidency < static_cast<double>(requests);
    }
};

Point
measure(const OuroborosSystem &sys, std::size_t requests)
{
    const Workload w = wikiText2Like(requests, 2048, 20260311);
    PipelineOptions popts;
    popts.attentionParallelism = 16.0;
    std::vector<double> rates;
    Point p;
    p.requests = requests;
    for (int r = 0; r < kRepeats; ++r) {
        BlockKvManager kv(sys.model(), sys.scorePool(),
                          sys.contextPool(), 128,
                          sys.options().kvThreshold);
        const WallTimer timer;
        const PipelineStats s = runPipeline(
                w, sys.model(), sys.stageTiming(), kv, popts);
        rates.push_back(static_cast<double>(s.itemsProcessed) /
                        timer.seconds());
        ouroAssert(s.skippedRequests == 0,
                   "saturation: request skipped at n=", requests);
        p.peakResidency = s.peakConcurrency;
        p.evictions = s.evictions;
        p.admissions = kv.admissionCount();
    }
    std::sort(rates.begin(), rates.end());
    p.itemsPerSec = rates[rates.size() / 2];
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t max_requests = requestCount(argc, argv, 2048);
    const WallTimer total_timer;

    std::cout << "=== Saturation sweep: llama13b, one wafer, "
                 "wikiText2Like(64.."
              << max_requests << ") ===\n";

    const OuroborosSystem sys = buildOuroboros(llama13b());
    std::vector<std::size_t> counts;
    for (std::size_t n : {64, 128, 256, 320, 384, 512, 768, 1024,
                          1536, 2048}) {
        if (n <= max_requests)
            counts.push_back(n);
    }

    Table table({"requests", "items/s", "peak resident", "evictions",
                 "admissions", "regime"});
    std::vector<Point> points;
    for (const std::size_t n : counts) {
        points.push_back(measure(sys, n));
        const Point &p = points.back();
        table.row()
            .cell(static_cast<std::uint64_t>(n))
            .cell(p.itemsPerSec, 0)
            .cell(p.peakResidency, 0)
            .cell(p.evictions)
            .cell(p.admissions)
            .cell(p.saturated() ? "saturated" : "resident");
    }
    table.print(std::cout);

    double best_unsaturated = 0.0;
    double worst_saturated = 0.0;
    bool any_saturated = false;
    for (const Point &p : points) {
        if (!p.saturated()) {
            best_unsaturated = std::max(best_unsaturated,
                                        p.itemsPerSec);
        } else if (!any_saturated ||
                   p.itemsPerSec < worst_saturated) {
            worst_saturated = p.itemsPerSec;
            any_saturated = true;
        }
    }
    ouroAssert(best_unsaturated > 0.0 && any_saturated,
               "saturation: the sweep must reach both regimes "
               "(raise argv[1])");
    const double ratio = worst_saturated / best_unsaturated;
    std::cout << "\nslowest saturated / fastest resident items/s: "
              << formatDouble(ratio, 3) << " (asserted >= "
              << kMinSaturatedRatio << ")\n";
    ouroAssert(ratio >= kMinSaturatedRatio,
               "saturation: saturated items/s fell to ", ratio,
               "x the unsaturated rate");

    BenchReport report("saturation");
    report.metric("wall_seconds", total_timer.seconds())
        .metric("saturated_items_per_sec_ratio", ratio)
        .metric("best_unsaturated_items_per_sec", best_unsaturated)
        .metric("worst_saturated_items_per_sec", worst_saturated);
    for (const Point &p : points) {
        const std::string n = std::to_string(p.requests);
        report.metric("items_per_sec_n" + n, p.itemsPerSec)
            .metric("peak_residency_n" + n, p.peakResidency)
            .metric("evictions_n" + n, p.evictions)
            .metric("admissions_n" + n, p.admissions);
    }
    report.write();
    return 0;
}
