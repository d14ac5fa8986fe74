/**
 * @file
 * Memoized per-item stage timing for the pipeline engines.
 *
 * Profiling the figure harnesses shows the engine spends most of its
 * time rebuilding identical ItemTiming records: every decode token of
 * every concurrent sequence at the same position, every prefill of
 * the same length, and every deferred-attention prefix recompute the
 * same six stage times from the same StageTiming coefficients. The
 * TimingCache memoizes the three item shapes the engines build:
 *
 *  - token items, keyed on the attended-context bucket
 *    (bucket = ctx >> ctxBucketShift; the default shift of 0 makes
 *    the bucket the exact context, so a hit is bit-identical to a
 *    fresh computation — larger shifts trade exactness for memory on
 *    huge-context scans);
 *  - whole-prefill sequence items, keyed on (mask, prefill length);
 *  - TGP-with-block items (deferred and final-token), keyed on
 *    (mask, prefill length).
 *
 * Token items live in a flat table indexed by bucket (grown on
 * demand): a prefill token's lookup is an index, not a hash probe.
 * The table's size follows the largest bucket looked up, which a run
 * reaches only by streaming a prompt that long.
 *
 * Invalidation: on every lookup the cache bitwise-compares the
 * StageTiming coefficients against the copy its entries were built
 * from and flushes itself when they differ — a remap
 * (replacement-chain recovery, new placement) rederives StageTiming,
 * so stale entries can never be served. A caller whose coefficients
 * cannot change between lookups (one pipeline run) may instead run
 * that check once through checkCoefficients() and then look token
 * items up with checkedToken(), which skips it. invalidate() also
 * flushes explicitly for callers that reuse one cache across
 * deployments.
 * stageTimingFingerprint() is a diagnostic digest of the same
 * coefficients (handy in tests and logs); the hot-path check itself
 * is the exact compare, not the hash.
 */

#ifndef OURO_PIPELINE_TIMING_CACHE_HH
#define OURO_PIPELINE_TIMING_CACHE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/masks.hh"
#include "pipeline/timing.hh"

namespace ouro
{

/** Per-item service profile on the six stages. */
struct ItemTiming
{
    std::array<double, kStagesPerBlock> stage{};
    double total = 0.0; ///< sum over the six stages (one block)
    std::uint64_t context = 0;
    std::uint64_t tokens = 1;

    void finalize()
    {
        total = 0.0;
        for (const double t : stage)
            total += t;
    }
};

/** One token, pure token-grained (causal path). Uncached builder.
 *  Header-inline: both decode fast paths build one per token, so the
 *  six fused multiply-adds must not hide behind a call. */
inline ItemTiming
freshTokenItem(const StageTiming &timing, std::uint64_t ctx)
{
    ItemTiming item;
    item.context = ctx;
    for (unsigned s = 0; s < kStagesPerBlock; ++s)
        item.stage[s] =
            timing.tokenTime(static_cast<StageKind>(s), ctx);
    item.finalize();
    return item;
}

/**
 * One token whose attention work is deferred/accumulated (TGP with
 * block): dense stages per token; attention stages carry
 * @p attention_positions summed positions (0 for deferred tokens).
 * @p attention_positions arrives pre-divided by the bulk-attention
 * parallelism. Uncached builder.
 */
ItemTiming freshBlockedTokenItem(const StageTiming &timing,
                                 double attention_positions);

/** A whole prefill as one sequence-grained item. Uncached builder. */
ItemTiming freshSequenceItem(const StageTiming &timing,
                             AttentionKind mask,
                             std::uint64_t prefill_len,
                             double attn_parallel);

/**
 * Summed attended positions of a whole prefill under @p mask (the
 * work a TGP-with-block pipeline defers to the final prefill token).
 */
double deferredAttentionPositions(AttentionKind mask,
                                  std::uint64_t prefill_len);

/** Order-independent fingerprint of the twelve timing coefficients. */
std::uint64_t stageTimingFingerprint(const StageTiming &timing);

/** Memoization layer over the fresh*Item builders. */
class TimingCache
{
  public:
    explicit TimingCache(unsigned ctx_bucket_shift = 0)
        : shift_(ctx_bucket_shift)
    {
    }

    /** Token item at attended context @p ctx. The reference is valid
     *  until the next token lookup. */
    const ItemTiming &token(const StageTiming &timing, std::uint64_t ctx)
    {
        checkCoefficients(timing);
        return checkedToken(ctx);
    }

    /**
     * The coefficient check token() runs: flush unless the entries
     * were built on @p timing. The attention parallelism of the
     * sequence and blocked shapes is not compared.
     */
    void checkCoefficients(const StageTiming &timing);

    /**
     * Token item at attended context @p ctx without the coefficient
     * check: the caller ran checkCoefficients() on the coefficients it
     * means, and no lookup on other coefficients has run since. The
     * reference is valid until the next token lookup.
     */
    const ItemTiming &checkedToken(std::uint64_t ctx)
    {
        const std::uint64_t bucket = ctx >> shift_;
        if (bucket < tokens_.size() && tokens_[bucket].tokens != 0) {
            ++hits_;
            return tokens_[bucket];
        }
        return tokenMiss(bucket);
    }

    /** Whole-prefill sequence item. */
    const ItemTiming &sequence(const StageTiming &timing,
                               AttentionKind mask,
                               std::uint64_t prefill_len,
                               double attn_parallel);

    /**
     * TGP-with-block token item: the deferred shape when
     * @p last_token is false, the accumulated final-token shape
     * otherwise.
     */
    const ItemTiming &blockedToken(const StageTiming &timing,
                                   AttentionKind mask,
                                   std::uint64_t prefill_len,
                                   bool last_token,
                                   double attn_parallel);

    /** Drop every entry (e.g. after a remap replaced the timing). */
    void invalidate();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const;
    unsigned ctxBucketShift() const { return shift_; }

  private:
    /** Flush when the StageTiming coefficients or the attention
     *  parallelism changed underneath. */
    void sync(const StageTiming &timing, double attn_parallel);

    /** Build, store and return the token item of @p bucket. */
    const ItemTiming &tokenMiss(std::uint64_t bucket);

    unsigned shift_;
    bool primed_ = false;
    StageTiming stored_{}; ///< coefficients the entries were built on
    double attnParallel_ = 1.0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    /** Token items by bucket; a slot with `tokens == 0` is empty (a
     *  token item always carries one token). */
    std::vector<ItemTiming> tokens_;
    std::size_t tokenCount_ = 0; ///< filled slots of tokens_
    std::unordered_map<std::uint64_t, ItemTiming> sequences_;
    std::unordered_map<std::uint64_t, ItemTiming> blockedFinal_;
    std::optional<ItemTiming> blockedDeferred_;
};

} // namespace ouro

#endif // OURO_PIPELINE_TIMING_CACHE_HH
