#include "engine.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "pipeline/timing_cache.hh"

namespace ouro
{

namespace
{

/** A request's live progress. */
struct ActiveSeq
{
    std::uint64_t id;
    std::uint64_t prefillLen;     ///< tokens to (re)compute as prompt
    std::uint64_t decodeRemaining;
    std::uint64_t prefillEntered = 0;
    std::uint64_t decoded = 0;
    double nextReady = 0.0;
    /** When this sequence's own KV-ring cores free up: attention
     *  stages are per-sequence resources, not shared servers. */
    double attnFree = 0.0;
    /** Completion time of this residency's first decode token (the
     *  TTFT sample if the residency completes). */
    double firstTokenDone = 0.0;
    std::uint64_t generation = 0; ///< invalidates stale heap entries
    KvHandle kv;                  ///< slot ticket into the KV manager
};

/** Pending (not yet admitted) request. */
struct Pending
{
    std::uint64_t id;
    std::uint64_t prefillLen;
    std::uint64_t decodeRemaining;
    /** Re-admission after eviction resumes past the old generation so
     *  stale heap entries of the previous residency can never match
     *  (they would resurrect already-retired events otherwise). */
    std::uint64_t generation = 0;
};

struct HeapEntry
{
    double ready;
    std::uint64_t seq;
    std::uint64_t generation;

    /** Strict total order: ready, then seq, then generation. The seq
     *  tie-break pins the pop order of simultaneous events, which is
     *  what lets the cohort fast path replay it exactly. */
    bool operator>(const HeapEntry &other) const
    {
        if (ready != other.ready)
            return ready > other.ready;
        if (seq != other.seq)
            return seq > other.seq;
        return generation > other.generation;
    }
};

/** One cohort member in the insertion-sorted decode ring. The hot
 *  per-token state is copied OUT of the ActiveSeq at ring build and
 *  written back lazily (completion, eviction, or cohort exit), so
 *  the token loop touches only this flat slot - never the hash-map
 *  node. */
struct RingMember
{
    double ready;             ///< this member's next event time
    std::uint64_t seq;
    std::uint64_t generation; ///< residency stamp at ring build
    ActiveSeq *as;            ///< stable: rehash never moves nodes
    std::uint64_t allowance;  ///< in-block tokens before a slow grow
    std::uint64_t consumed;   ///< deferred tokens for one growFast
    double attnFree;          ///< ring-local copy of as->attnFree
    std::uint64_t position;   ///< prefillLen + decoded
    std::uint64_t decodeRemaining;
};

bool
ringBefore(double a_ready, std::uint64_t a_seq, double b_ready,
           std::uint64_t b_seq)
{
    if (a_ready != b_ready)
        return a_ready < b_ready;
    return a_seq < b_seq;
}

/**
 * Reject requests the engine would otherwise turn into fake work: a
 * request with neither prompt nor output tokens (it has nothing to
 * run, yet would be scheduled as if it held a KV block), and a
 * repeated id (residency in the KV manager is keyed by id). Ids
 * arrive ascending from every generator, so the common case is one
 * pass; anything else is checked through a sorted copy.
 */
void
checkRequests(const Workload &workload)
{
    const std::vector<Request> &requests = workload.requests;
    bool ascending = true;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        if (r.prefillLen == 0 && r.decodeLen == 0) {
            fatal("runPipeline: request ", r.id,
                  " has no prompt and no output tokens");
        }
        ascending = ascending && (i == 0 || requests[i - 1].id < r.id);
    }
    if (ascending)
        return;
    std::vector<std::uint64_t> ids;
    ids.reserve(requests.size());
    for (const Request &r : requests)
        ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end())
        fatal("runPipeline: duplicate request id ", *dup);
}

} // namespace

PipelineStats &
PipelineStats::merge(const PipelineStats &other)
{
    makespanSeconds += other.makespanSeconds;
    tokensProcessed += other.tokensProcessed;
    outputTokens += other.outputTokens;
    bottleneckBusySeconds += other.bottleneckBusySeconds;
    evictions += other.evictions;
    recomputedTokens += other.recomputedTokens;
    stormEvictions += other.stormEvictions;
    stormReprefilledTokens += other.stormReprefilledTokens;
    skippedRequests += other.skippedRequests;
    peakConcurrency = std::max(peakConcurrency,
                               other.peakConcurrency);
    timingCacheHits += other.timingCacheHits;
    timingCacheMisses += other.timingCacheMisses;
    itemsProcessed += other.itemsProcessed;
    contextTokensSum += other.contextTokensSum;
    stageBusySumSeconds += other.stageBusySumSeconds;
    // Derived means: recomputed from the merged raw aggregates with
    // the engine's own formulas, so a merge of runs reports exactly
    // what one run over the concatenated busy intervals would.
    utilization =
        makespanSeconds > 0.0
            ? std::min(stageBusySumSeconds /
                           (kStagesPerBlock * makespanSeconds),
                       1.0)
            : 0.0;
    bubbleFraction = 1.0 - utilization;
    avgContext = itemsProcessed
                     ? contextTokensSum /
                           static_cast<double>(itemsProcessed)
                     : 0.0;
    ttftSamples.insert(ttftSamples.end(), other.ttftSamples.begin(),
                       other.ttftSamples.end());
    interTokenSamples.insert(interTokenSamples.end(),
                             other.interTokenSamples.begin(),
                             other.interTokenSamples.end());
    // Back-to-back semantics: the other run's clock starts where this
    // one's makespan ended, so its bins append after ours.
    outputTokenBins.insert(outputTokenBins.end(),
                           other.outputTokenBins.begin(),
                           other.outputTokenBins.end());
    if (throughputBinSeconds == 0.0)
        throughputBinSeconds = other.throughputBinSeconds;
    return *this;
}

PipelineStats &
PipelineStats::mergeConcurrent(const PipelineStats &other)
{
    // Aligned bins: side-by-side runs share one clock, so bin b of
    // each run covers the same interval and the fleet curve is the
    // elementwise sum. A sum across different widths is meaningless.
    if (throughputBinSeconds > 0.0 &&
        other.throughputBinSeconds > 0.0) {
        ouroAssert(throughputBinSeconds == other.throughputBinSeconds,
                   "PipelineStats::mergeConcurrent: aligned bin "
                   "merge requires equal throughputBinSeconds (",
                   throughputBinSeconds, " vs ",
                   other.throughputBinSeconds, ")");
    }
    if (throughputBinSeconds == 0.0) {
        ouroAssert(outputTokenBins.empty(),
                   "PipelineStats::mergeConcurrent: bins without a "
                   "bin width");
        throughputBinSeconds = other.throughputBinSeconds;
    }
    if (outputTokenBins.size() < other.outputTokenBins.size())
        outputTokenBins.resize(other.outputTokenBins.size(), 0);
    for (std::size_t b = 0; b < other.outputTokenBins.size(); ++b)
        outputTokenBins[b] += other.outputTokenBins[b];

    // The fleet is done when its slowest member drains.
    makespanSeconds = std::max(makespanSeconds,
                               other.makespanSeconds);
    tokensProcessed += other.tokensProcessed;
    outputTokens += other.outputTokens;
    // Separate conveyors: the fleet's bottleneck occupancy is its
    // busiest member's, not a sum across independent pipelines.
    bottleneckBusySeconds = std::max(bottleneckBusySeconds,
                                     other.bottleneckBusySeconds);
    evictions += other.evictions;
    recomputedTokens += other.recomputedTokens;
    stormEvictions += other.stormEvictions;
    stormReprefilledTokens += other.stormReprefilledTokens;
    skippedRequests += other.skippedRequests;
    // Concurrent residents: every member holds its peak cohort at
    // the same wall time in the worst case.
    peakConcurrency += other.peakConcurrency;
    timingCacheHits += other.timingCacheHits;
    timingCacheMisses += other.timingCacheMisses;
    itemsProcessed += other.itemsProcessed;
    contextTokensSum += other.contextTokensSum;
    stageBusySumSeconds += other.stageBusySumSeconds;
    // Same derived-mean expressions as merge(); fleet utilization
    // saturates at 1.0 by construction (documented in the header).
    utilization =
        makespanSeconds > 0.0
            ? std::min(stageBusySumSeconds /
                           (kStagesPerBlock * makespanSeconds),
                       1.0)
            : 0.0;
    bubbleFraction = 1.0 - utilization;
    avgContext = itemsProcessed
                     ? contextTokensSum /
                           static_cast<double>(itemsProcessed)
                     : 0.0;
    ttftSamples.insert(ttftSamples.end(), other.ttftSamples.begin(),
                       other.ttftSamples.end());
    interTokenSamples.insert(interTokenSamples.end(),
                             other.interTokenSamples.begin(),
                             other.interTokenSamples.end());
    return *this;
}

PipelineStats
runPipeline(const Workload &workload, const ModelConfig &model,
            const StageTiming &timing, BlockKvManager &kv,
            const PipelineOptions &opts)
{
    checkRequests(workload);
    PipelineStats stats;

    const auto blocks = static_cast<double>(model.numBlocks);
    const bool token_grained =
        opts.kind == PipelineKind::TokenGrained;
    const bool pure_tgp =
        token_grained && masksAllowPureTgp(model.attention);

    // Memoized item timings: identical (phase, context, length)
    // items are built once instead of per heap event - the win is on
    // the O(prefill_len) shapes (whole-sequence and blocked-prefill
    // items, plus repeated prefill contexts across sequences); plain
    // decode-token items are cheaper to recompute than to look up.
    // Callers may share a cache across runs; its coefficient check
    // flushes it whenever the StageTiming was rederived (e.g. after
    // a remap).
    TimingCache local_cache(opts.ctxBucketShift);
    TimingCache &cache =
        opts.timingCache ? *opts.timingCache : local_cache;
    const std::uint64_t cache_hits0 = cache.hits();
    const std::uint64_t cache_misses0 = cache.misses();

    std::deque<Pending> queue;
    for (const auto &r : workload.requests)
        queue.push_back({r.id, r.prefillLen, r.decodeLen, 0});

    std::unordered_map<std::uint64_t, ActiveSeq> active;
    active.reserve(workload.requests.size());

    // Min-heap of (ready, seq, generation) owned directly (not a
    // priority_queue) so stale entries can be compacted in place.
    std::vector<HeapEntry> ready_heap;
    ready_heap.reserve(workload.requests.size() + 16);
    std::size_t stale_entries = 0;

    auto heap_push = [&](const HeapEntry &entry) {
        ready_heap.push_back(entry);
        std::push_heap(ready_heap.begin(), ready_heap.end(),
                       std::greater<>{});
    };
    auto heap_pop = [&]() -> HeapEntry {
        std::pop_heap(ready_heap.begin(), ready_heap.end(),
                      std::greater<>{});
        const HeapEntry top = ready_heap.back();
        ready_heap.pop_back();
        return top;
    };

    /** The live ActiveSeq a heap entry refers to, or null if stale. */
    auto live_entry = [&](const HeapEntry &entry) -> ActiveSeq * {
        const auto it = active.find(entry.seq);
        if (it == active.end() ||
            it->second.generation != entry.generation) {
            return nullptr;
        }
        return &it->second;
    };

    // Heap hygiene: evictions leave stale generation entries behind;
    // once they outnumber the live ones, compact in place so the heap
    // stays O(live) instead of O(lifetime evictions).
    auto compact_heap = [&]() {
        if (ready_heap.size() < 32 ||
            stale_entries * 2 <= ready_heap.size()) {
            return;
        }
        ready_heap.erase(
                std::remove_if(ready_heap.begin(), ready_heap.end(),
                               [&](const HeapEntry &entry) {
                                   return live_entry(entry) == nullptr;
                               }),
                ready_heap.end());
        std::make_heap(ready_heap.begin(), ready_heap.end(),
                       std::greater<>{});
        stale_entries = 0;
    };

    // One server per stage kind (the representative block's tandem
    // queue); blocks 2..N add pure latency, not contention - inter-
    // item blocking is already captured at block 1.
    std::array<double, kStagesPerBlock> stage_free{};
    std::array<double, kStagesPerBlock> stage_busy{};
    double makespan = 0.0;

    double ctx_sum = 0.0;
    std::uint64_t ctx_samples = 0;

    /** Resident sequences still streaming prefill tokens; the cohort
     *  fast path is legal only when this is zero. */
    std::size_t prefill_count = 0;

    auto admission_tokens = [&](const Pending &p) -> std::uint64_t {
        return opts.staticKvAllocation ? opts.maxContext
                                       : p.prefillLen;
    };

    // Section 4.4.4: once an eviction happens, new scheduling is
    // suspended until a prior request completes (prevents eviction
    // ping-pong / KV thrashing).
    bool admissions_suspended = false;

    // Admit from the FCFS queue head while the KV pool accepts
    // without evicting (Section 4.4.4: new scheduling never evicts).
    auto pump_admissions = [&](double now) {
        if (admissions_suspended && !active.empty())
            return;
        admissions_suspended = false; // nothing left running: resume
        while (!queue.empty()) {
            const Pending &p = queue.front();
            const KvHandle handle =
                kv.admitNoEvictHandle(p.id, admission_tokens(p));
            if (!handle.valid())
                break;
            ActiveSeq seq;
            seq.id = p.id;
            seq.prefillLen = p.prefillLen;
            seq.decodeRemaining = p.decodeRemaining;
            seq.nextReady = now;
            seq.generation = p.generation;
            seq.kv = handle;
            if (seq.prefillLen > 0)
                ++prefill_count;
            active.emplace(p.id, seq);
            heap_push({now, p.id, p.generation});
            queue.pop_front();
        }
        stats.peakConcurrency = std::max(
                stats.peakConcurrency,
                static_cast<double>(active.size()));
    };

    // Eviction handler: kill the resident sequence and put it back at
    // the FRONT of the wait queue with its grown prefill (recompute).
    // entries_in_heap says whether each victim's live heap entry is
    // still enqueued (true on the slow path; false when the victim's
    // entry lives in the cohort ring or was already popped).
    auto handle_evictions =
            [&](const std::vector<std::uint64_t> &evicted,
                bool entries_in_heap) {
        for (const auto id : evicted) {
            const auto it = active.find(id);
            if (it == active.end())
                continue; // already finished/released
            ActiveSeq &seq = it->second;
            Pending back;
            back.id = id;
            // Everything computed so far must be re-prefilled.
            back.prefillLen = seq.prefillLen + seq.decoded;
            back.decodeRemaining = seq.decodeRemaining;
            back.generation = seq.generation + 1;
            queue.push_front(back);
            stats.evictions += 1;
            stats.recomputedTokens += back.prefillLen;
            if (seq.prefillEntered < seq.prefillLen)
                --prefill_count;
            if (entries_in_heap)
                ++stale_entries;
            active.erase(it);
            admissions_suspended = true;
        }
    };

    // Tandem traversal of the representative block's six stage
    // servers; the remaining N-1 blocks add latency only. Dense
    // stages are shared servers (one set of weight cores); the
    // attention stages run on the sequence's OWN KV-ring cores
    // (Section 4.4.3 spreads sequences across distinct cores),
    // so they serialise within a sequence but overlap across
    // sequences. Returns the item's completion time. @p attn_free
    // is wherever the caller keeps the sequence's attention-server
    // clock (ActiveSeq on the slow path, the ring slot on the
    // cohort path) - ONE implementation, so the two paths cannot
    // drift apart and break their asserted bit-identity.
    auto advance_item = [&](double ready, double &attn_free,
                            const ItemTiming &item) -> double {
        double cursor = ready;
        for (unsigned s = 0; s < kStagesPerBlock; ++s) {
            const auto kind = static_cast<StageKind>(s);
            double start;
            if (stageIsAttention(kind)) {
                start = std::max(cursor, attn_free);
            } else {
                start = std::max(cursor, stage_free[s]);
            }
            const double done = start + item.stage[s];
            if (stageIsAttention(kind))
                attn_free = done;
            else
                stage_free[s] = done;
            stage_busy[s] += item.stage[s];
            cursor = done;
        }
        const double completion =
            cursor + (blocks - 1.0) * item.total;
        makespan = std::max(makespan, completion);
        stats.tokensProcessed += item.tokens;
        ctx_sum += static_cast<double>(item.context);
        ++ctx_samples;
        return completion;
    };
    auto traverse = [&](ActiveSeq &seq,
                        const ItemTiming &item) -> double {
        return advance_item(seq.nextReady, seq.attnFree, item);
    };

    // Serving-latency samples, pushed when a request COMPLETES (all
    // three decode paths - slow, single-stream batch, cohort ring -
    // process completions in the same deterministic event order, so
    // the sample vectors are part of their bit-identity contract).
    auto record_completion = [&](double first_done, double last_done,
                                 std::uint64_t decoded) {
        if (decoded == 0)
            return; // prefill-only request: no decode latencies
        stats.ttftSamples.push_back(first_done);
        if (decoded >= 2) {
            stats.interTokenSamples.push_back(
                    (last_done - first_done) /
                    static_cast<double>(decoded - 1));
        }
    };

    // A decode token left the pipeline at `completion`: count it and,
    // when binning is on, histogram it (all three decode paths call
    // this, so the curve shares their bit-identity contract).
    const double bin_w = opts.throughputBinSeconds;
    auto note_output = [&](double completion) {
        stats.outputTokens += 1;
        if (bin_w <= 0.0)
            return;
        const auto b =
            static_cast<std::size_t>(completion / bin_w);
        if (stats.outputTokenBins.size() <= b)
            stats.outputTokenBins.resize(b + 1, 0);
        stats.outputTokenBins[b] += 1;
    };

    // --- Failure-storm schedule (PR 9) ---
    // Null/empty leaves every code path below bit-identical to a
    // plain run: storm_pending() is constant-false, so neither fast
    // path gains a new bail-out and no event ever applies.
    const std::vector<KvPoolEvent> *storm =
        (opts.stormSchedule && !opts.stormSchedule->empty())
            ? opts.stormSchedule
            : nullptr;
    std::size_t storm_next = 0;
    if (storm) {
        for (std::size_t i = 1; i < storm->size(); ++i) {
            ouroAssert((*storm)[i - 1].time <= (*storm)[i].time,
                       "pipeline: storm schedule not sorted by time");
        }
    }
    auto storm_pending = [&]() {
        return storm != nullptr && storm_next < storm->size();
    };

    // Storm eviction: the victims' KV was already destroyed by
    // dropCore (released, blocks returned, handles invalidated), so
    // unlike handle_evictions there is no pool state to unwind -
    // only the scheduler side: back to the FRONT of the wait queue
    // with everything decoded so far folded into the re-prefill, a
    // fresh generation so the stale heap entry can never resurrect
    // the dead residency, and admissions suspended (the Section
    // 4.4.4 backpressure rule applies to storm losses too).
    auto storm_evict = [&](const std::vector<std::uint64_t> &lost) {
        for (const auto id : lost) {
            const auto it = active.find(id);
            if (it == active.end())
                continue;
            ActiveSeq &seq = it->second;
            Pending back;
            back.id = id;
            back.prefillLen = seq.prefillLen + seq.decoded;
            back.decodeRemaining = seq.decodeRemaining;
            back.generation = seq.generation + 1;
            queue.push_front(back);
            stats.stormEvictions += 1;
            stats.recomputedTokens += back.prefillLen;
            stats.stormReprefilledTokens += back.prefillLen;
            if (seq.prefillEntered < seq.prefillLen)
                --prefill_count;
            ++stale_entries; // victim's heap entry is still enqueued
            active.erase(it);
            admissions_suspended = true;
        }
    };

    auto apply_storm_event = [&](const KvPoolEvent &ev) {
        for (const CoreCoord &c : ev.dropCores)
            storm_evict(kv.dropCore(c));
        for (const auto &a : ev.adopts)
            kv.adoptCore(a.info, a.scoreDuty);
        compact_heap();
        // Adopted capacity may rescue waiting (or just-evicted)
        // requests immediately - subject to the suspension rule.
        pump_admissions(ev.time);
    };

    // Cohort decode fast path: with every resident sequence in steady
    // decode and nothing waiting to be admitted, the heap's pop order
    // is a pure (ready, seq) merge of autoregressive chains. Replay
    // it in an insertion-sorted ring: no heap push/pop, no `active`
    // hash probe, and per-sequence KV growth batched into one
    // growFast per in-block run. Block-boundary allocations happen
    // in ring order via the handle-based grow, so results stay
    // bit-identical to the slow path; the ring is abandoned the
    // moment anything contends (eviction, admission, cohort of one).
    auto cohort_pass = [&]() {
        const bool static_kv = opts.staticKvAllocation;

        // Gather the one live heap entry of every resident sequence,
        // copying the hot per-token state into the flat ring slots.
        std::vector<RingMember> ring;
        ring.reserve(active.size());
        for (const HeapEntry &entry : ready_heap) {
            ActiveSeq *as = live_entry(entry);
            if (as) {
                ring.push_back({entry.ready, entry.seq,
                                entry.generation, as, 0, 0,
                                as->attnFree,
                                as->prefillLen + as->decoded,
                                as->decodeRemaining});
            }
        }
        ouroAssert(ring.size() == active.size(),
                   "cohort: live heap entries != resident sequences");
        ready_heap.clear();
        stale_entries = 0;
        std::sort(ring.begin(), ring.end(),
                  [](const RingMember &a, const RingMember &b) {
                      return ringBefore(a.ready, a.seq, b.ready,
                                        b.seq);
                  });
        for (auto &m : ring) {
            m.allowance = static_kv ? m.decodeRemaining
                                    : kv.growRoom(m.as->kv);
        }

        // Write a member's ring-local progress back to its ActiveSeq
        // (needed whenever slow-path machinery may look at it).
        auto sync_member = [&](const RingMember &m) {
            ActiveSeq &seq = *m.as;
            seq.decoded = m.position - seq.prefillLen;
            seq.decodeRemaining = m.decodeRemaining;
            seq.nextReady = m.ready;
            seq.attnFree = m.attnFree;
        };

        // Circular buffer over `ring`: members [head, head+count).
        const std::size_t cap = ring.size();
        std::size_t head = 0;
        std::size_t count = ring.size();
        auto at = [&](std::size_t k) -> RingMember & {
            return ring[(head + k) % cap];
        };

        bool bail = false;
        while (!bail && count > 1) {
            RingMember m = at(0);
            head = (head + 1) % cap;
            --count;

            bool contended = false;
            if (!static_kv) {
                if (m.allowance == 0) {
                    // Block boundary: flush the deferred in-block
                    // growth, then allocate exactly as the slow path
                    // would for this token. Eviction bookkeeping
                    // reads ActiveSeq progress, so sync everyone
                    // before a grow that may evict.
                    if (m.consumed > 0) {
                        kv.growFast(m.as->kv, m.consumed);
                        m.consumed = 0;
                    }
                    sync_member(m);
                    for (std::size_t k = 0; k < count; ++k)
                        sync_member(at(k));
                    const KvResult grown = kv.grow(m.as->kv);
                    if (!grown.evicted.empty()) {
                        handle_evictions(grown.evicted, false);
                        contended = true; // queue is non-empty now
                    }
                    if (!grown.ok) {
                        // Pool too small even after evicting everyone
                        // else: evict self (slow-path semantics).
                        handle_evictions({m.seq}, false);
                        if (kv.resident(m.seq))
                            kv.release(m.seq);
                        pump_admissions(makespan);
                        bail = true;
                        break; // member dropped, not reinserted
                    }
                    m.allowance = kv.growRoom(m.as->kv);
                } else {
                    --m.allowance;
                    ++m.consumed;
                }
            }

            // Decode step on ring-local state: same builder and the
            // SAME advance_item as the slow path (bit-identity by
            // construction), only the attention clock lives in the
            // ring slot instead of the ActiveSeq.
            const ItemTiming item =
                freshTokenItem(timing, m.position + 1);
            const double entry = std::max(m.ready, stage_free[0]);
            const double completion =
                advance_item(m.ready, m.attnFree, item);

            if (m.position == m.as->prefillLen)
                m.as->firstTokenDone = completion; // first decode
            m.position += 1;
            m.decodeRemaining -= 1;
            note_output(completion);
            m.ready = completion; // autoregressive gating

            if (m.decodeRemaining == 0) {
                record_completion(m.as->firstTokenDone, completion,
                                  m.position - m.as->prefillLen);
                if (!static_kv && m.consumed > 0)
                    kv.growFast(m.as->kv, m.consumed);
                kv.release(m.as->kv);
                active.erase(m.seq);
                admissions_suspended = false; // a request completed
                pump_admissions(entry);
                if (contended)
                    bail = true;
                continue; // member dropped
            }

            // Reinsert at the sorted position. Autoregressive
            // completions almost always land at the back, so scan
            // from the tail; the freed front slot absorbs the shift.
            std::size_t j = count;
            while (j > 0 && ringBefore(m.ready, m.seq,
                                       at(j - 1).ready,
                                       at(j - 1).seq)) {
                at(j) = at(j - 1);
                --j;
            }
            at(j) = m;
            ++count;
            if (contended)
                bail = true; // evictions re-queued work: fall back
        }

        // Survivors sync back and return to the heap with their
        // deferred KV growth committed. Evicted members are skipped:
        // either gone from `active`, or already re-admitted under a
        // NEW generation (their fresh heap entry was pushed by
        // pump_admissions, so re-pushing this stale membership would
        // duplicate them).
        for (std::size_t k = 0; k < count; ++k) {
            const RingMember &m = at(k);
            const auto it = active.find(m.seq);
            if (it == active.end() ||
                it->second.generation != m.generation) {
                continue;
            }
            sync_member(m);
            if (!static_kv && m.consumed > 0)
                kv.growFast(it->second.kv, m.consumed);
            heap_push({m.ready, m.seq, m.generation});
        }
    };

    pump_admissions(0.0);

    while (!ready_heap.empty() || !queue.empty()) {
        // Storm events interleave with heap events on the run clock:
        // pop order is nondecreasing in `ready`, so applying an event
        // once its time is <= the heap front means no item whose
        // ready time FOLLOWS the event can have been processed before
        // it (stale fronts only delay application, never reorder it).
        // With the heap empty the event is the only state change left
        // - apply it before the skip path so adopted capacity can
        // still rescue the queue head.
        if (storm_pending()) {
            const KvPoolEvent &ev = (*storm)[storm_next];
            if (ready_heap.empty() ||
                ev.time <= ready_heap.front().ready) {
                ++storm_next;
                apply_storm_event(ev);
                continue;
            }
        }

        if (ready_heap.empty()) {
            // Nothing runnable but requests remain: every resident
            // sequence finished yet the queue head still does not
            // fit, so the request genuinely exceeds pool capacity.
            const Pending p = queue.front();
            queue.pop_front();
            warn("pipeline: request ", p.id,
                 " exceeds KV pool capacity; skipped");
            stats.skippedRequests += 1;
            pump_admissions(makespan);
            continue;
        }

        // Cohort fast path entry: every resident sequence decoding,
        // nobody waiting for admission, and >1 resident (a cohort of
        // one is the single-stream batch below). O(1) eligibility
        // thanks to the running prefill_count. A pending storm event
        // bails out BEFORE entry: the ring advances members past the
        // event time with no event check in its token loop.
        if (opts.cohortFastPath && prefill_count == 0 &&
            queue.empty() && active.size() > 1 &&
            !storm_pending()) {
            cohort_pass();
            continue;
        }

        const HeapEntry top = heap_pop();
        const auto it = active.find(top.seq);
        if (it == active.end() ||
            it->second.generation != top.generation) {
            // Stale entry drained naturally: keep the hygiene counter
            // honest or compact_heap fires on an already-clean heap.
            if (stale_entries > 0)
                --stale_entries;
            continue;
        }
        ActiveSeq &seq = it->second;

        bool is_prefill = seq.prefillEntered < seq.prefillLen;

        // Decode fast path: with a single resident sequence and an
        // empty admission queue nothing contends for the stage
        // servers or the KV pool, so consecutive autoregressive
        // steps collapse into ONE heap event - the event queue then
        // scales with contention, not token count. Growth stays on
        // the in-block fast path (no allocation, no eviction), so
        // the batch is bounded by the room left in the newest KV
        // blocks.
        // (Bails out while a storm event is pending for the same
        // reason as the cohort ring: the batch would decode past the
        // event against KV the storm is about to destroy.)
        if (!is_prefill && active.size() == 1 && queue.empty() &&
            !storm_pending()) {
            const std::uint64_t room =
                opts.staticKvAllocation ? seq.decodeRemaining
                                        : kv.growRoom(seq.kv);
            const std::uint64_t batch =
                std::min(seq.decodeRemaining, room);
            if (batch > 0) {
                if (!opts.staticKvAllocation)
                    kv.growFast(seq.kv, batch);
                for (std::uint64_t i = 0; i < batch; ++i) {
                    const std::uint64_t pos =
                        seq.prefillLen + seq.decoded;
                    // Contexts inside a batch are monotone and never
                    // revisited (one resident sequence): compute
                    // directly instead of filling the cache with
                    // single-use entries.
                    const ItemTiming item =
                        freshTokenItem(timing, pos + 1);
                    const double completion = traverse(seq, item);
                    if (seq.decoded == 0)
                        seq.firstTokenDone = completion;
                    seq.decoded += 1;
                    seq.decodeRemaining -= 1;
                    note_output(completion);
                    seq.nextReady = completion; // autoregressive
                }
                if (seq.decodeRemaining == 0) {
                    const double finished = seq.nextReady;
                    record_completion(seq.firstTokenDone, finished,
                                      seq.decoded);
                    kv.release(seq.kv);
                    active.erase(it); // invalidates seq
                    admissions_suspended = false;
                    pump_admissions(finished);
                    continue;
                }
                seq.generation += 1;
                heap_push({seq.nextReady, seq.id, seq.generation});
                continue;
            }
            // No in-block room: fall through to the slow path, which
            // allocates the next KV block.
        }

        // Build the next item for this sequence.
        ItemTiming scratch;
        const ItemTiming *item = nullptr;
        bool last_prefill_token = false;
        if (is_prefill) {
            if (token_grained) {
                if (pure_tgp) {
                    item = &cache.token(
                            timing,
                            attendedContext(model.attention,
                                            seq.prefillEntered,
                                            seq.prefillLen));
                } else {
                    // TGP with block: defer attention to the final
                    // prefill token (Fig. 5c).
                    last_prefill_token =
                        seq.prefillEntered + 1 == seq.prefillLen;
                    item = &cache.blockedToken(
                            timing, model.attention, seq.prefillLen,
                            last_prefill_token,
                            opts.attentionParallelism);
                }
            } else {
                item = &cache.sequence(timing, model.attention,
                                       seq.prefillLen,
                                       opts.attentionParallelism);
            }
        } else {
            // Decode token: causal attention over everything so far.
            // A token item is six fused multiply-adds; computing it
            // inline beats a hash lookup, so the cache memoizes only
            // the O(prefill_len) item shapes above.
            const std::uint64_t pos = seq.prefillLen + seq.decoded;
            scratch = freshTokenItem(timing, pos + 1);
            item = &scratch;
        }

        // KV growth for the entering tokens (dynamic mode only).
        if (!opts.staticKvAllocation) {
            if (!is_prefill) {
                const KvResult grow = kv.grow(seq.kv);
                handle_evictions(grow.evicted, true);
                compact_heap();
                if (!grow.ok) {
                    // The grower itself could not fit (pool too small
                    // even after evicting everyone else): evict self.
                    handle_evictions({seq.id}, false);
                    if (kv.resident(seq.id))
                        kv.release(seq.id);
                    pump_admissions(makespan);
                    continue;
                }
            }
            // Prefill KV was reserved at admission.
        }

        const double entry = std::max(seq.nextReady, stage_free[0]);
        const double completion = traverse(seq, *item);

        // Advance the sequence and enqueue its next item.
        if (is_prefill) {
            seq.prefillEntered += item->tokens;
            const bool done_prefill =
                seq.prefillEntered >= seq.prefillLen;
            if (done_prefill) {
                // First decode token depends on the prompt's full
                // traversal of the pipeline.
                --prefill_count;
                seq.nextReady = completion;
            } else {
                // Prefill tokens stream: next is ready at this entry.
                seq.nextReady = entry;
            }
            if (seq.decodeRemaining == 0 && done_prefill) {
                kv.release(seq.kv);
                active.erase(it);
                admissions_suspended = false; // a request completed
                pump_admissions(entry);
                continue;
            }
            seq.generation += 1;
            heap_push({seq.nextReady, seq.id, seq.generation});
        } else {
            if (seq.decoded == 0)
                seq.firstTokenDone = completion;
            seq.decoded += 1;
            seq.decodeRemaining -= 1;
            note_output(completion);
            if (seq.decodeRemaining == 0) {
                // Finished: release KV when the token drains.
                record_completion(seq.firstTokenDone, completion,
                                  seq.decoded);
                kv.release(seq.kv);
                active.erase(it);
                admissions_suspended = false; // a request completed
                pump_admissions(entry);
                continue;
            }
            seq.nextReady = completion; // autoregressive gating
            seq.generation += 1;
            heap_push({seq.nextReady, seq.id, seq.generation});
        }
        pump_admissions(entry);
    }

    stats.makespanSeconds = makespan;
    // Stamp the bin width so mergeConcurrent can check alignment.
    stats.throughputBinSeconds =
        opts.throughputBinSeconds > 0.0 ? opts.throughputBinSeconds
                                        : 0.0;
    double busy_sum = 0.0;
    for (const double b : stage_busy) {
        busy_sum += b;
        stats.bottleneckBusySeconds =
            std::max(stats.bottleneckBusySeconds, b);
    }
    stats.utilization =
        makespan > 0.0
            ? busy_sum / (kStagesPerBlock * makespan)
            : 0.0;
    stats.utilization = std::min(stats.utilization, 1.0);
    stats.bubbleFraction = 1.0 - stats.utilization;
    stats.avgContext =
        ctx_samples ? ctx_sum / static_cast<double>(ctx_samples) : 0.0;
    // Raw aggregates behind the derived means: what merge() needs to
    // recompute utilization/avgContext exactly after folding runs.
    stats.itemsProcessed = ctx_samples;
    stats.contextTokensSum = ctx_sum;
    stats.stageBusySumSeconds = busy_sum;
    // Deltas, not lifetime counters: a shared cache accumulates
    // across runs but each run reports only its own traffic.
    stats.timingCacheHits = cache.hits() - cache_hits0;
    stats.timingCacheMisses = cache.misses() - cache_misses0;
    return stats;
}

} // namespace ouro
