/**
 * @file
 * Helpers of the benchmark harness: the field-complete stats digest,
 * the per-op conservation checks, the percentile sample-count rule,
 * and the in-memory span tracer of the traced run.
 *
 * Everything here is pure bookkeeping around the simulator's public
 * entry points; nothing reaches into the simulator's internals.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/engine.hh"
#include "workload/requests.hh"

namespace perfbench
{

/** 64-bit FNV-1a accumulator over raw value bits. */
class Digest
{
  public:
    Digest &bytes(const void *data, std::size_t n);
    Digest &u64(std::uint64_t v) { return bytes(&v, sizeof v); }
    /** Hashes the bit pattern, so -0.0 != 0.0 and NaNs compare by
     *  payload - "identical" means bit-identical. */
    Digest &f64(double v) { return bytes(&v, sizeof v); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Hash of EVERY PipelineStats field in declaration order, latency
 * samples and throughput bins included (vectors hash their length
 * first). Two stats with equal digests are treated as bit-identical.
 * The self-test pins sizeof(PipelineStats), so a field added to the
 * struct fails the test until it is added here too.
 */
std::uint64_t statsDigest(const ouro::PipelineStats &stats);

/** Hash of a resolved storm schedule (every event field). */
std::uint64_t eventsDigest(const std::vector<ouro::KvPoolEvent> &events);

/** What a workload asks the engine for. */
struct Demand
{
    std::uint64_t requests = 0;
    std::uint64_t tokens = 0;       ///< prefill + decode
    std::uint64_t decodeTokens = 0;

    static Demand of(const ouro::Workload &workload);
};

/**
 * Conservation invariants of one engine run against its demand.
 * Returns one message per violated invariant (empty = all hold):
 *  - every request is either completed (one TTFT sample) or skipped;
 *  - when no request was skipped, outputTokens equals the decode
 *    tokens asked for, and every asked-for token was processed at
 *    least once (tokensProcessed >= tokens);
 *  - the throughput bins sum to outputTokens (and are empty when
 *    binning is off);
 *  - recomputedTokens (all causes) >= stormReprefilledTokens.
 */
std::vector<std::string>
conservationViolations(const ouro::PipelineStats &stats,
                       const Demand &demand);

/**
 * The percentile rule: a percentile is reported only when at least
 * ten samples lie beyond it, i.e. n * (1 - pct / 100) >= 10 (p99
 * needs n >= 1000).
 */
bool percentileSupported(std::size_t samples, double pct);

/** Modelled (simulated-time) metrics of a fixed set of instances. */
struct ModelSummary
{
    double outputTokensPerSecond = 0.0;
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double itlP50 = 0.0;
    double itlP99 = 0.0;
    double energyMjPerToken = 0.0;
    std::size_t ttftSamples = 0;
    std::size_t itlSamples = 0;
    /** Instances per p99 batch; 0 means p99 is unsupported. */
    std::size_t p99BatchSize = 0;
    /** Batches the p99 median is taken over. */
    std::size_t p99Batches = 0;
};

/**
 * Summarise per-instance stats (and their energy in joules). Rates,
 * energy and medians pool every instance back to back. A p99 needs
 * more samples than one instance may hold, so it is taken per batch:
 * the fewest instances g whose samples support p99 (>= 1000 TTFT and
 * ITL samples, whichever g instances are picked). Every way to pick
 * g of the instances is one batch, and the median of the batches'
 * p99s is reported. The saturated regime's tail is set by a few
 * thrashing instances; the median over all batches keeps one such
 * instance from setting the whole run's p99, and taking every batch
 * rather than one partition removes the partition's own noise.
 */
ModelSummary summarizeModel(const std::vector<ouro::PipelineStats> &stats,
                            const std::vector<double> &joules);

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSeconds();

/**
 * In-memory span recorder. Spans are appended on open and closed in
 * LIFO order on one thread; they stay in memory until write().
 * A disabled tracer records nothing (the untraced run).
 */
class Tracer
{
  public:
    static constexpr std::int64_t kNoParent = -1;
    static constexpr std::int64_t kSetupOp = -1;

    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::int64_t parent = kNoParent;
        std::int64_t op = kSetupOp;
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        std::int64_t index_ = kNoParent;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the time its
     *  direct children cover (children never overlap: one thread). */
    std::vector<double> selfTimes() const;

    /** Median over ops of the per-op summed self time of spans
     *  named @p name (0 when no span has that name). */
    double medianSelfTime(const std::string &name) const;

    /** Write every span, then the per-name self-time totals, as
     *  JSON. Returns false when the file cannot be written. */
    bool write(const std::string &path,
               const std::map<std::string, std::string> &meta) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** Format a double with all its significant digits. */
std::string formatNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
