/**
 * @file
 * Tests of the benchmark harness's own helpers: the percentile
 * sample-count rule, the stats digest and the conservation checks,
 * each fed deliberately broken PipelineStats.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness.hh"

using perfbench::conservationViolations;
using perfbench::percentileSupported;
using perfbench::statsDigest;
using ouro::PipelineStats;

namespace
{

/** A consistent run: 3 requests, 2 completed, 1 skipped; the
 *  demands below ask for 200 tokens, 55 of them decode. */
PipelineStats
consistentStats()
{
    PipelineStats s;
    s.makespanSeconds = 1.5;
    s.tokensProcessed = 300;
    s.outputTokens = 40;
    s.skippedRequests = 1;
    s.recomputedTokens = 12;
    s.stormReprefilledTokens = 8;
    s.ttftSamples = {0.1, 0.2};
    s.interTokenSamples = {0.01, 0.02};
    s.throughputBinSeconds = 0.5;
    s.outputTokenBins = {10, 25, 5};
    return s;
}

} // namespace

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    EXPECT_FALSE(percentileSupported(999, 99.0));
    EXPECT_TRUE(percentileSupported(1000, 99.0));
    EXPECT_FALSE(percentileSupported(19, 50.0));
    EXPECT_TRUE(percentileSupported(20, 50.0));
    EXPECT_FALSE(percentileSupported(9999, 99.9));
    EXPECT_TRUE(percentileSupported(10000, 99.9));
    EXPECT_FALSE(percentileSupported(0, 50.0));
}

/** An instance with @p n requests, TTFT i+base and ITL 1/(i+1). */
PipelineStats
instanceStats(std::size_t n, double base)
{
    PipelineStats s;
    s.makespanSeconds = 2.0;
    s.outputTokens = 10 * n;
    for (std::size_t i = 0; i < n; ++i) {
        s.ttftSamples.push_back(base + static_cast<double>(i));
        s.interTokenSamples.push_back(1.0 / static_cast<double>(i + 1));
    }
    return s;
}

TEST(PercentileRule, P99IsTheMedianOverSupportedBatches)
{
    // Two 384-request instances cannot support p99.
    const std::vector<PipelineStats> two = {instanceStats(384, 0.0),
                                            instanceStats(384, 0.0)};
    EXPECT_EQ(perfbench::summarizeModel(two, {1.0, 1.0}).p99BatchSize, 0u);

    // Eight calm instances and one thrashing one: p99 batches take 3
    // instances (1152 samples), 56 of the 84 batches miss the
    // thrasher, so the median batch p99 is a calm batch's.
    std::vector<PipelineStats> nine(8, instanceStats(384, 0.0));
    nine.push_back(instanceStats(384, 1e6));
    const std::vector<double> joules(9, 3.0);
    const perfbench::ModelSummary m = perfbench::summarizeModel(nine, joules);
    EXPECT_EQ(m.p99BatchSize, 3u);
    EXPECT_EQ(m.p99Batches, 84u);
    EXPECT_EQ(m.ttftSamples, 9u * 384u);
    std::vector<double> calm;
    for (int rep = 0; rep < 3; ++rep)
        for (std::size_t i = 0; i < 384; ++i)
            calm.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(m.ttftP99, ouro::percentileOf(calm, 99.0));
    // Rates and energy pool every instance back to back.
    EXPECT_DOUBLE_EQ(m.outputTokensPerSecond, 9.0 * 3840.0 / 18.0);
    EXPECT_DOUBLE_EQ(m.energyMjPerToken, 27.0 / (9.0 * 3840.0) * 1e3);

    // One instance of 1000 samples is a batch on its own.
    const std::vector<PipelineStats> big = {instanceStats(1000, 0.0),
                                            instanceStats(1000, 5.0)};
    const perfbench::ModelSummary b =
        perfbench::summarizeModel(big, {1.0, 1.0});
    EXPECT_EQ(b.p99BatchSize, 1u);
    EXPECT_EQ(b.p99Batches, 2u);
}

TEST(StatsDigest, CoversEveryField)
{
    // A new PipelineStats field must be added to statsDigest (and
    // the mutations below) before this size is updated.
    EXPECT_EQ(sizeof(PipelineStats), 224u)
            << "PipelineStats changed: extend statsDigest";

    const PipelineStats base = consistentStats();
    const std::uint64_t d0 = statsDigest(base);
    EXPECT_EQ(d0, statsDigest(consistentStats()));

    const std::vector<std::function<void(PipelineStats &)>> breaks = {
            [](PipelineStats &s) { s.makespanSeconds += 1e-12; },
            [](PipelineStats &s) { ++s.tokensProcessed; },
            [](PipelineStats &s) { ++s.outputTokens; },
            [](PipelineStats &s) { s.bottleneckBusySeconds = 1.0; },
            [](PipelineStats &s) { s.utilization = 0.5; },
            [](PipelineStats &s) { s.bubbleFraction = 0.5; },
            [](PipelineStats &s) { ++s.evictions; },
            [](PipelineStats &s) { ++s.recomputedTokens; },
            [](PipelineStats &s) { ++s.stormEvictions; },
            [](PipelineStats &s) { ++s.stormReprefilledTokens; },
            [](PipelineStats &s) { ++s.skippedRequests; },
            [](PipelineStats &s) { s.peakConcurrency = 3.0; },
            [](PipelineStats &s) { s.avgContext = 7.0; },
            [](PipelineStats &s) { ++s.timingCacheHits; },
            [](PipelineStats &s) { ++s.timingCacheMisses; },
            [](PipelineStats &s) { ++s.itemsProcessed; },
            [](PipelineStats &s) { s.contextTokensSum = 9.0; },
            [](PipelineStats &s) { s.stageBusySumSeconds = 2.0; },
            [](PipelineStats &s) { s.ttftSamples[1] = 0.25; },
            [](PipelineStats &s) { s.ttftSamples.push_back(0.0); },
            [](PipelineStats &s) { s.interTokenSamples[0] = -0.0; },
            [](PipelineStats &s) { s.interTokenSamples.clear(); },
            [](PipelineStats &s) { s.outputTokenBins[2] = 6; },
            [](PipelineStats &s) { s.outputTokenBins.push_back(0); },
            [](PipelineStats &s) { s.throughputBinSeconds = 0.25; },
    };
    for (std::size_t i = 0; i < breaks.size(); ++i) {
        PipelineStats s = consistentStats();
        breaks[i](s);
        EXPECT_NE(statsDigest(s), d0) << "mutation " << i;
    }
}

TEST(StatsDigest, SignedZeroIsNotIdentical)
{
    PipelineStats a;
    PipelineStats b;
    b.makespanSeconds = -0.0;
    EXPECT_NE(statsDigest(a), statsDigest(b));
}

TEST(Conservation, ConsistentStatsPass)
{
    EXPECT_TRUE(conservationViolations(consistentStats(), {3, 200, 55}).empty());
    // Nothing skipped: output tokens must match the decode demand.
    PipelineStats s = consistentStats();
    s.skippedRequests = 0;
    EXPECT_TRUE(conservationViolations(s, {2, 200, 40}).empty());
}

TEST(Conservation, MissingRequestIsCaught)
{
    PipelineStats s = consistentStats();
    s.ttftSamples.pop_back();
    EXPECT_EQ(conservationViolations(s, {3, 200, 55}).size(), 1u);
    EXPECT_EQ(conservationViolations(consistentStats(), {4, 200, 55}).size(),
              1u);
}

TEST(Conservation, LostOutputTokensAreCaught)
{
    PipelineStats s = consistentStats();
    s.skippedRequests = 0;
    s.ttftSamples.push_back(0.3);
    const auto v = conservationViolations(s, {3, 200, 41});
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("output tokens"), std::string::npos);
}

TEST(Conservation, UnprocessedTokensAreCaught)
{
    PipelineStats s = consistentStats();
    s.skippedRequests = 0;
    const auto v = conservationViolations(s, {2, 301, 40});
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("processed tokens"), std::string::npos);
}

TEST(Conservation, BinsMustSumToOutputTokens)
{
    PipelineStats s = consistentStats();
    s.outputTokenBins[0] += 1;
    EXPECT_EQ(conservationViolations(s, {3, 200, 55}).size(), 1u);

    // Bins without a bin width are inconsistent too.
    PipelineStats unbinned = consistentStats();
    unbinned.throughputBinSeconds = 0.0;
    EXPECT_EQ(conservationViolations(unbinned, {3, 200, 55}).size(), 1u);
    unbinned.outputTokenBins.clear();
    EXPECT_TRUE(conservationViolations(unbinned, {3, 200, 55}).empty());
}

TEST(Conservation, RecomputeCoversStormReprefill)
{
    PipelineStats s = consistentStats();
    s.stormReprefilledTokens = s.recomputedTokens + 1;
    EXPECT_EQ(conservationViolations(s, {3, 200, 55}).size(), 1u);
}

TEST(Conservation, EveryViolationIsReported)
{
    PipelineStats s = consistentStats();
    s.skippedRequests = 0;
    s.outputTokenBins.push_back(1);
    s.stormReprefilledTokens = 100;
    EXPECT_EQ(conservationViolations(s, {5, 1000, 1}).size(), 5u);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    perfbench::Tracer tracer(true);
    {
        perfbench::Tracer::Scope outer(tracer, "outer", 0);
        perfbench::Tracer::Scope inner(tracer, "inner", 0);
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    const auto &spans = tracer.spans();
    EXPECT_EQ(spans[0].parent, perfbench::Tracer::kNoParent);
    EXPECT_EQ(spans[1].parent, 0);
    const std::vector<double> self = tracer.selfTimes();
    EXPECT_NEAR(self[0] + self[1], spans[0].end - spans[0].start, 1e-12);
    EXPECT_GE(self[0], 0.0);

    perfbench::Tracer off(false);
    {
        perfbench::Tracer::Scope s(off, "ignored", 0);
    }
    EXPECT_TRUE(off.spans().empty());
}
