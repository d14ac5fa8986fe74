#include "timing_cache.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace ouro
{

namespace
{

/** (mask, prefill_len) packed into one map key. */
std::uint64_t
maskLenKey(AttentionKind mask, std::uint64_t prefill_len)
{
    return (static_cast<std::uint64_t>(mask) << 56) |
           (prefill_len & ((1ULL << 56) - 1));
}

} // namespace

ItemTiming
freshBlockedTokenItem(const StageTiming &timing,
                      double attention_positions)
{
    ItemTiming item;
    item.context = static_cast<std::uint64_t>(attention_positions);
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        const auto kind = static_cast<StageKind>(s);
        double t = timing.fixedSeconds[s];
        if (stageIsAttention(kind))
            t += timing.perContextSeconds[s] * attention_positions;
        item.stage[s] = t;
    }
    item.finalize();
    return item;
}

ItemTiming
freshSequenceItem(const StageTiming &timing, AttentionKind mask,
                  std::uint64_t prefill_len, double attn_parallel)
{
    ItemTiming item;
    item.tokens = prefill_len;
    double ctx_sum = 0.0;
    for (std::uint64_t p = 0; p < prefill_len; ++p) {
        const std::uint64_t ctx =
            attendedContext(mask, p, prefill_len);
        ctx_sum += static_cast<double>(ctx);
        for (unsigned s = 0; s < kStagesPerBlock; ++s) {
            item.stage[s] += timing.fixedSeconds[s];
            // Bulk attention spreads its positions over the KV
            // cores' crossbars concurrently.
            item.stage[s] += timing.perContextSeconds[s] *
                             static_cast<double>(ctx) /
                             std::max(1.0, attn_parallel);
        }
    }
    item.context = static_cast<std::uint64_t>(
            ctx_sum / static_cast<double>(prefill_len));
    item.finalize();
    return item;
}

double
deferredAttentionPositions(AttentionKind mask,
                           std::uint64_t prefill_len)
{
    double positions = 0.0;
    for (std::uint64_t p = 0; p < prefill_len; ++p) {
        positions += static_cast<double>(
                attendedContext(mask, p, prefill_len));
    }
    return positions;
}

std::uint64_t
stageTimingFingerprint(const StageTiming &timing)
{
    // FNV-1a over the raw coefficient bytes: any rederived timing
    // (remap, new placement, new fabric flags) changes the print.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        mix(timing.fixedSeconds[s]);
        mix(timing.perContextSeconds[s]);
    }
    return h;
}

void
TimingCache::invalidate()
{
    tokens_.clear();
    tokenCount_ = 0;
    sequences_.clear();
    blockedFinal_.clear();
    blockedDeferred_.reset();
    primed_ = false;
}

std::size_t
TimingCache::size() const
{
    return tokenCount_ + sequences_.size() + blockedFinal_.size() +
           (blockedDeferred_ ? 1 : 0);
}

void
TimingCache::checkCoefficients(const StageTiming &timing)
{
    // A bitwise compare of the stored coefficients is a handful of ns;
    // hashing here would cost more than the memoized computation
    // saves.
    if (primed_ &&
        std::memcmp(&stored_, &timing, sizeof(StageTiming)) == 0)
        return;
    invalidate();
    stored_ = timing;
    primed_ = true;
}

void
TimingCache::sync(const StageTiming &timing, double attn_parallel)
{
    if (attn_parallel != attnParallel_) {
        invalidate();
        attnParallel_ = attn_parallel;
    }
    checkCoefficients(timing);
}

const ItemTiming &
TimingCache::tokenMiss(std::uint64_t bucket)
{
    ouroAssert(primed_, "TimingCache: checkedToken() before any "
                        "checkCoefficients()");
    ++misses_;
    if (bucket >= tokens_.size()) {
        ItemTiming empty;
        empty.tokens = 0;
        tokens_.resize(bucket + 1, empty);
    }
    ++tokenCount_;
    // The bucket base is its representative context; with the default
    // shift of 0 this is ctx itself and the entry is bit-identical to
    // freshTokenItem(timing, ctx). stored_ holds the checked
    // coefficients bit for bit.
    return tokens_[bucket] = freshTokenItem(stored_, bucket << shift_);
}

const ItemTiming &
TimingCache::sequence(const StageTiming &timing, AttentionKind mask,
                      std::uint64_t prefill_len, double attn_parallel)
{
    sync(timing, attn_parallel);
    const std::uint64_t key = maskLenKey(mask, prefill_len);
    const auto it = sequences_.find(key);
    if (it != sequences_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    return sequences_
        .emplace(key, freshSequenceItem(timing, mask, prefill_len,
                                        attn_parallel))
        .first->second;
}

const ItemTiming &
TimingCache::blockedToken(const StageTiming &timing, AttentionKind mask,
                          std::uint64_t prefill_len, bool last_token,
                          double attn_parallel)
{
    sync(timing, attn_parallel);
    if (!last_token) {
        // Deferred tokens carry no attention work: one shape fits
        // every mask and length.
        if (blockedDeferred_) {
            ++hits_;
            return *blockedDeferred_;
        }
        ++misses_;
        blockedDeferred_ = freshBlockedTokenItem(timing, 0.0);
        return *blockedDeferred_;
    }
    const std::uint64_t key = maskLenKey(mask, prefill_len);
    const auto it = blockedFinal_.find(key);
    if (it != blockedFinal_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    const double positions =
        deferredAttentionPositions(mask, prefill_len) /
        std::max(1.0, attn_parallel);
    return blockedFinal_
        .emplace(key, freshBlockedTokenItem(timing, positions))
        .first->second;
}

} // namespace ouro
