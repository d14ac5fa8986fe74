#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <type_traits>

#include "common/stats.hh"

namespace perfbench
{

Digest &
Digest::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

namespace
{

template <typename T>
void
hashVector(Digest &d, const std::vector<T> &v)
{
    d.u64(v.size());
    for (const T &x : v) {
        if constexpr (std::is_floating_point_v<T>)
            d.f64(x);
        else
            d.u64(x);
    }
}

} // namespace

std::uint64_t
statsDigest(const ouro::PipelineStats &s)
{
    Digest d;
    d.f64(s.makespanSeconds)
        .u64(s.tokensProcessed)
        .u64(s.outputTokens)
        .f64(s.bottleneckBusySeconds)
        .f64(s.utilization)
        .f64(s.bubbleFraction)
        .u64(s.evictions)
        .u64(s.recomputedTokens)
        .u64(s.stormEvictions)
        .u64(s.stormReprefilledTokens)
        .u64(s.skippedRequests)
        .f64(s.peakConcurrency)
        .f64(s.avgContext)
        .u64(s.timingCacheHits)
        .u64(s.timingCacheMisses)
        .u64(s.itemsProcessed)
        .f64(s.contextTokensSum)
        .f64(s.stageBusySumSeconds);
    hashVector(d, s.ttftSamples);
    hashVector(d, s.interTokenSamples);
    hashVector(d, s.outputTokenBins);
    d.f64(s.throughputBinSeconds);
    return d.value();
}

std::uint64_t
eventsDigest(const std::vector<ouro::KvPoolEvent> &events)
{
    Digest d;
    d.u64(events.size());
    for (const ouro::KvPoolEvent &ev : events) {
        d.f64(ev.time).u64(ev.dropCores.size());
        for (const ouro::CoreCoord &c : ev.dropCores)
            d.u64(c.row).u64(c.col);
        d.u64(ev.adopts.size());
        for (const ouro::KvPoolEvent::Adopt &a : ev.adopts) {
            d.u64(a.info.coord.row)
                .u64(a.info.coord.col)
                .u64(a.info.crossbars)
                .u64(a.info.blocksPerCrossbar)
                .u64(a.scoreDuty ? 1 : 0);
        }
    }
    return d.value();
}

Demand
Demand::of(const ouro::Workload &workload)
{
    return {workload.requests.size(), workload.totalTokens(),
            workload.totalOutputTokens()};
}

std::vector<std::string>
conservationViolations(const ouro::PipelineStats &s, const Demand &demand)
{
    std::vector<std::string> out;
    const auto str = [](std::uint64_t v) { return std::to_string(v); };
    if (s.ttftSamples.size() + s.skippedRequests != demand.requests) {
        out.push_back("ttft samples (" + str(s.ttftSamples.size()) +
                      ") + skipped (" + str(s.skippedRequests) +
                      ") != requests (" + str(demand.requests) + ")");
    }
    if (s.skippedRequests == 0 && s.outputTokens != demand.decodeTokens) {
        out.push_back("output tokens (" + str(s.outputTokens) +
                      ") != requested decode tokens (" +
                      str(demand.decodeTokens) + ")");
    }
    if (s.skippedRequests == 0 && s.tokensProcessed < demand.tokens) {
        out.push_back("processed tokens (" + str(s.tokensProcessed) +
                      ") < requested tokens (" + str(demand.tokens) +
                      ")");
    }
    const std::uint64_t binned =
        std::accumulate(s.outputTokenBins.begin(),
                        s.outputTokenBins.end(), std::uint64_t{0});
    if (s.throughputBinSeconds > 0.0 ? binned != s.outputTokens
                                     : !s.outputTokenBins.empty()) {
        out.push_back("throughput bins sum (" + str(binned) +
                      ") != output tokens (" + str(s.outputTokens) +
                      ")");
    }
    if (s.recomputedTokens < s.stormReprefilledTokens) {
        out.push_back("recomputed tokens (" + str(s.recomputedTokens) +
                      ") < storm re-prefilled tokens (" +
                      str(s.stormReprefilledTokens) + ")");
    }
    return out;
}

bool
percentileSupported(std::size_t samples, double pct)
{
    // The tolerance absorbs the rounding of (100 - pct) so that the
    // boundary case itself qualifies (p99.9 at exactly n = 10000).
    const double beyond =
        static_cast<double>(samples) * (100.0 - pct) / 100.0;
    return beyond >= 10.0 - 1e-9;
}

ModelSummary
summarizeModel(const std::vector<ouro::PipelineStats> &stats,
               const std::vector<double> &joules)
{
    ModelSummary m;
    if (stats.empty())
        return m;
    ouro::PipelineStats pooled = stats.front();
    for (std::size_t k = 1; k < stats.size(); ++k)
        pooled.merge(stats[k]);
    const double total_joules =
        std::accumulate(joules.begin(), joules.end(), 0.0);
    m.outputTokensPerSecond = pooled.outputTokensPerSecond();
    m.ttftP50 = ouro::percentileOf(pooled.ttftSamples, 50.0);
    m.itlP50 = ouro::percentileOf(pooled.interTokenSamples, 50.0);
    m.energyMjPerToken =
        total_joules /
        std::max(1.0, static_cast<double>(pooled.outputTokens)) * 1e3;
    m.ttftSamples = pooled.ttftSamples.size();
    m.itlSamples = pooled.interTokenSamples.size();

    // The smallest sample sets bound every batch from below.
    std::vector<std::size_t> ttft_sizes;
    std::vector<std::size_t> itl_sizes;
    for (const ouro::PipelineStats &s : stats) {
        ttft_sizes.push_back(s.ttftSamples.size());
        itl_sizes.push_back(s.interTokenSamples.size());
    }
    std::sort(ttft_sizes.begin(), ttft_sizes.end());
    std::sort(itl_sizes.begin(), itl_sizes.end());
    std::size_t ttft_n = 0;
    std::size_t itl_n = 0;
    for (std::size_t g = 1; g <= stats.size(); ++g) {
        ttft_n += ttft_sizes[g - 1];
        itl_n += itl_sizes[g - 1];
        if (percentileSupported(ttft_n, 99.0) &&
            percentileSupported(itl_n, 99.0)) {
            m.p99BatchSize = g;
            break;
        }
    }
    if (m.p99BatchSize == 0)
        return m;

    // Every g-subset, enumerated through a selection mask.
    std::vector<bool> pick(stats.size(), false);
    std::fill(pick.begin(), pick.begin() + m.p99BatchSize, true);
    std::vector<double> ttft_p99;
    std::vector<double> itl_p99;
    std::vector<double> ttft;
    std::vector<double> itl;
    do {
        ttft.clear();
        itl.clear();
        for (std::size_t k = 0; k < stats.size(); ++k) {
            if (!pick[k])
                continue;
            ttft.insert(ttft.end(), stats[k].ttftSamples.begin(),
                        stats[k].ttftSamples.end());
            itl.insert(itl.end(), stats[k].interTokenSamples.begin(),
                       stats[k].interTokenSamples.end());
        }
        ttft_p99.push_back(ouro::percentileOf(ttft, 99.0));
        itl_p99.push_back(ouro::percentileOf(itl, 99.0));
    } while (std::prev_permutation(pick.begin(), pick.end()));
    m.p99Batches = ttft_p99.size();
    m.ttftP99 = ouro::percentileOf(ttft_p99, 50.0);
    m.itlP99 = ouro::percentileOf(itl_p99, 50.0);
    return m;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::int64_t op)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<std::int64_t>(tracer_.spans_.size());
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? kNoParent
                                        : tracer_.open_.back();
    span.op = op;
    span.start = nowSeconds();
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ == kNoParent)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end = nowSeconds();
    tracer_.open_.pop_back();
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
}

double
Tracer::medianSelfTime(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    std::map<std::int64_t, double> per_op;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            per_op[spans_[i].op] += self[i];
    }
    std::vector<double> v;
    for (const auto &[op, t] : per_op)
        v.push_back(t);
    return ouro::percentileOf(v, 50.0);
}

bool
Tracer::write(const std::string &path,
              const std::map<std::string, std::string> &meta) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"meta\": {";
    bool first = true;
    for (const auto &[key, value] : meta) {
        out << (first ? "" : ", ") << "\"" << key << "\": \"" << value
            << "\"";
        first = false;
    }
    out << "},\n  \"spans\": [\n";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "    {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_s\": " << formatNumber(s.start - origin)
            << ", \"end_s\": " << formatNumber(s.end - origin)
            << ", \"parent\": " << s.parent << ", \"op\": " << s.op
            << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"self_seconds\": {";
    const std::vector<double> self = selfTimes();
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        totals[spans_[i].name] += self[i];
    first = true;
    for (const auto &[name, t] : totals) {
        out << (first ? "" : ", ") << "\"" << name
            << "\": " << formatNumber(t);
        first = false;
    }
    out << "}\n}\n";
    return static_cast<bool>(out);
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
