#include "engine.hh"

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "pipeline/timing_cache.hh"

namespace ouro
{

namespace
{

/** A request's live progress, kept in a table indexed by the
 *  request's position in the workload. */
struct ActiveSeq
{
    std::uint64_t id = 0;
    std::uint64_t prefillLen = 0;     ///< tokens to (re)compute as prompt
    std::uint64_t decodeRemaining = 0;
    std::uint64_t prefillEntered = 0;
    std::uint64_t decoded = 0;
    double nextReady = 0.0;
    /** When this sequence's own KV-ring cores free up: attention
     *  stages are per-sequence resources, not shared servers. */
    double attnFree = 0.0;
    /** Completion time of this residency's first decode token (the
     *  TTFT sample if the residency completes). */
    double firstTokenDone = 0.0;
    std::uint32_t generation = 0; ///< invalidates stale heap entries
    bool resident = false;
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
    std::uint32_t generation = 0;
    std::uint32_t pos = 0; ///< position in the workload
};

struct HeapEntry
{
    double ready;
    std::uint64_t seq;
    std::uint32_t generation;
    std::uint32_t pos; ///< residency-table index; not part of the order

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
static_assert(sizeof(HeapEntry) == 24, "keep heap entries compact");

/** One cohort member in the insertion-sorted decode ring. The hot
 *  per-token state is copied OUT of the ActiveSeq at ring build and
 *  written back lazily (completion, eviction, or cohort exit), so
 *  the token loop touches only this flat slot. */
struct RingMember
{
    double ready;             ///< this member's next event time
    std::uint64_t seq;
    std::uint32_t generation; ///< residency stamp at ring build
    std::uint32_t pos;        ///< residency-table index
    ActiveSeq *as;            ///< stable: the table never resizes
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

/** (id, position) of every request, ascending by id. */
using IdIndex = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

/**
 * Reject requests the engine would otherwise turn into fake work: a
 * request with neither prompt nor output tokens (it has nothing to
 * run, yet would be scheduled as if it held a KV block), and a
 * repeated id (residency in the KV manager is keyed by id). Returns
 * the id -> position index the eviction paths resolve KV-manager ids
 * through. Ids arrive ascending from every generator, so the common
 * case is one pass; anything else is sorted.
 */
IdIndex
indexRequests(const Workload &workload)
{
    const std::vector<Request> &requests = workload.requests;
    if (requests.size() > std::numeric_limits<std::uint32_t>::max()) {
        fatal("runPipeline: ", requests.size(),
              " requests exceed the 2^32 positions of one run");
    }
    IdIndex index;
    index.reserve(requests.size());
    bool ascending = true;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        if (r.prefillLen == 0 && r.decodeLen == 0) {
            fatal("runPipeline: request ", r.id,
                  " has no prompt and no output tokens");
        }
        ascending = ascending && (i == 0 || requests[i - 1].id < r.id);
        index.emplace_back(r.id, static_cast<std::uint32_t>(i));
    }
    if (ascending)
        return index;
    std::sort(index.begin(), index.end());
    const auto dup = std::adjacent_find(
            index.begin(), index.end(),
            [](const auto &a, const auto &b) { return a.first == b.first; });
    if (dup != index.end())
        fatal("runPipeline: duplicate request id ", dup->first);
    return index;
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
    const IdIndex id_index = indexRequests(workload);
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
    // `timing` is fixed for the run, so the cache's coefficient check
    // runs once, at the run's first token lookup - where token() would
    // first have flushed - and later lookups skip it. A pure-TGP run
    // looks up no other shape, so nothing re-primes the cache between.
    bool token_coefficients_checked = false;

    std::deque<Pending> queue;
    for (std::size_t i = 0; i < workload.requests.size(); ++i) {
        const Request &r = workload.requests[i];
        queue.push_back({r.id, r.prefillLen, r.decodeLen, 0,
                         static_cast<std::uint32_t>(i)});
    }

    // Residency table: one slot per request position, so a heap entry
    // finds its sequence by index. Ids are needed only where the KV
    // manager reports victims by id (capacity and storm evictions).
    std::vector<ActiveSeq> table(workload.requests.size());
    std::size_t resident_count = 0;
    auto pos_of = [&](std::uint64_t id) -> std::uint32_t {
        const auto it = std::lower_bound(
                id_index.begin(), id_index.end(),
                std::pair<std::uint64_t, std::uint32_t>{id, 0});
        ouroAssert(it != id_index.end() && it->first == id,
                   "pipeline: KV manager reported unknown sequence ",
                   id);
        return it->second;
    };

    // Pending events, ordered by HeapEntry's strict (ready, seq,
    // generation) order, live in two structures that together pop in
    // exactly that order:
    //  - a min-heap owned directly (not a priority_queue) so stale
    //    entries can be compacted in place;
    //  - the prefill lane, a sorted FIFO for streaming-prefill
    //    re-pushes. Such an entry is ready at its own stage-0 entry,
    //    and entry times never decrease in pop order (they strictly
    //    increase while stage 0 takes time), so these pushes arrive
    //    sorted; one that would break the lane's order (equal entry
    //    times can tie-break either way) or finds the lane full goes
    //    to the heap instead. Each structure's front is its minimum,
    //    so popping the smaller front pops the union's minimum - the
    //    heap's own pop sequence by construction - while the common
    //    prefill token skips a heap sift. Everything that looks at
    //    pending events (the storm check, the empty skip path, the
    //    cohort gather, compaction) reads both.
    const std::size_t reserve = workload.requests.size() + 16;
    std::vector<HeapEntry> ready_heap;
    ready_heap.reserve(reserve);
    std::vector<HeapEntry> lane(std::bit_ceil(reserve));
    const std::size_t lane_mask = lane.size() - 1;
    std::size_t lane_head = 0;
    std::size_t lane_size = 0;
    std::size_t stale_entries = 0; // over heap and lane together

    auto heap_push = [&](const HeapEntry &entry) {
        ready_heap.push_back(entry);
        std::push_heap(ready_heap.begin(), ready_heap.end(),
                       std::greater<>{});
    };
    auto lane_push = [&](const HeapEntry &entry) {
        if (lane_size == lane.size() ||
            (lane_size > 0 &&
             !(entry > lane[(lane_head + lane_size - 1) & lane_mask]))) {
            heap_push(entry);
            return;
        }
        lane[(lane_head + lane_size) & lane_mask] = entry;
        ++lane_size;
    };
    auto events_empty = [&]() {
        return ready_heap.empty() && lane_size == 0;
    };
    /** True when the lane's front precedes the heap's. */
    auto lane_first = [&]() {
        return lane_size > 0 &&
               (ready_heap.empty() || ready_heap.front() > lane[lane_head]);
    };
    /** Ready time of the next event; events must be non-empty. */
    auto front_ready = [&]() {
        return lane_first() ? lane[lane_head].ready
                            : ready_heap.front().ready;
    };
    auto pop_event = [&]() -> HeapEntry {
        if (lane_first()) {
            const HeapEntry top = lane[lane_head];
            lane_head = (lane_head + 1) & lane_mask;
            --lane_size;
            return top;
        }
        std::pop_heap(ready_heap.begin(), ready_heap.end(),
                      std::greater<>{});
        const HeapEntry top = ready_heap.back();
        ready_heap.pop_back();
        return top;
    };
    /** Call @p f on every pending event, heap first, then the lane. */
    auto for_each_event = [&](auto &&f) {
        for (const HeapEntry &entry : ready_heap)
            f(entry);
        for (std::size_t k = 0; k < lane_size; ++k)
            f(lane[(lane_head + k) & lane_mask]);
    };
    auto clear_events = [&]() {
        ready_heap.clear();
        lane_head = lane_size = 0;
        stale_entries = 0;
    };

    /** The live ActiveSeq an event refers to, or null if stale. */
    auto live_entry = [&](const HeapEntry &entry) -> ActiveSeq * {
        ActiveSeq &seq = table[entry.pos];
        return seq.resident && seq.generation == entry.generation
                   ? &seq
                   : nullptr;
    };
    auto next_generation = [](std::uint32_t generation) {
        ouroAssert(generation < std::numeric_limits<std::uint32_t>::max(),
                   "pipeline: generation counter overflow");
        return generation + 1;
    };

    // Event hygiene: evictions leave stale generation entries behind;
    // once they outnumber the live ones, compact in place so the heap
    // stays O(live) instead of O(lifetime evictions). The lane merges
    // into the heap only when a compaction actually runs: this check
    // follows every slow-path decode grow.
    auto compact_heap = [&]() {
        const std::size_t pending = ready_heap.size() + lane_size;
        if (pending < 32 || stale_entries * 2 <= pending)
            return;
        for (std::size_t k = 0; k < lane_size; ++k)
            ready_heap.push_back(lane[(lane_head + k) & lane_mask]);
        lane_head = lane_size = 0;
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
        if (admissions_suspended && resident_count > 0)
            return;
        admissions_suspended = false; // nothing left running: resume
        while (!queue.empty()) {
            const Pending &p = queue.front();
            const KvHandle handle =
                kv.admitNoEvictHandle(p.id, admission_tokens(p));
            if (!handle.valid())
                break;
            ActiveSeq &seq = table[p.pos];
            seq = ActiveSeq{};
            seq.id = p.id;
            seq.prefillLen = p.prefillLen;
            seq.decodeRemaining = p.decodeRemaining;
            seq.nextReady = now;
            seq.generation = p.generation;
            seq.resident = true;
            seq.kv = handle;
            if (seq.prefillLen > 0)
                ++prefill_count;
            ++resident_count;
            heap_push({now, p.id, p.generation, p.pos});
            queue.pop_front();
        }
        stats.peakConcurrency = std::max(
                stats.peakConcurrency,
                static_cast<double>(resident_count));
    };

    /** A residency ends (completion or eviction). */
    auto retire = [&](ActiveSeq &seq) {
        seq.resident = false;
        --resident_count;
    };

    // Eviction: kill the resident sequence at @p pos and put it back
    // at the FRONT of the wait queue with everything computed so far
    // folded into its prefill (recompute), under a fresh generation
    // so its stale event can never resurrect the dead residency;
    // admissions suspend (the Section 4.4.4 backpressure rule covers
    // storm losses too). A storm victim's KV was already destroyed
    // by dropCore, so no pool state is unwound here either way.
    // @p entry_enqueued says whether the victim's live event is still
    // pending (true on the slow path; false when it lives in the
    // cohort ring or was just popped).
    auto evict = [&](std::uint32_t pos, bool entry_enqueued,
                     bool storm) {
        ActiveSeq &seq = table[pos];
        if (!seq.resident)
            return; // already finished/released
        Pending back;
        back.id = seq.id;
        back.prefillLen = seq.prefillLen + seq.decoded;
        back.decodeRemaining = seq.decodeRemaining;
        back.generation = next_generation(seq.generation);
        back.pos = pos;
        queue.push_front(back);
        if (storm) {
            stats.stormEvictions += 1;
            stats.stormReprefilledTokens += back.prefillLen;
        } else {
            stats.evictions += 1;
        }
        stats.recomputedTokens += back.prefillLen;
        if (seq.prefillEntered < seq.prefillLen)
            --prefill_count;
        if (entry_enqueued)
            ++stale_entries;
        retire(seq);
        admissions_suspended = true;
    };
    auto handle_evictions =
            [&](const std::vector<std::uint64_t> &evicted,
                bool entries_enqueued) {
        for (const auto id : evicted)
            evict(pos_of(id), entries_enqueued, false);
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

    auto apply_storm_event = [&](const KvPoolEvent &ev) {
        for (const CoreCoord &c : ev.dropCores) {
            // The victims' events are still pending.
            for (const auto id : kv.dropCore(c))
                evict(pos_of(id), true, true);
        }
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
    // it in an insertion-sorted ring: no heap push/pop, no table
    // lookup, and per-sequence KV growth batched into one growFast
    // per in-block run. Block-boundary allocations happen in ring
    // order via the handle-based grow, so results stay bit-identical
    // to the slow path; the ring is abandoned the moment anything
    // contends (eviction, admission, cohort of one).
    auto cohort_pass = [&]() {
        const bool static_kv = opts.staticKvAllocation;

        // Gather the one live event of every resident sequence,
        // copying the hot per-token state into the flat ring slots.
        // (With no sequence in prefill, lane entries are all stale.)
        std::vector<RingMember> ring;
        ring.reserve(resident_count);
        for_each_event([&](const HeapEntry &entry) {
            ActiveSeq *as = live_entry(entry);
            if (as) {
                ring.push_back({entry.ready, entry.seq,
                                entry.generation, entry.pos, as, 0, 0,
                                as->attnFree,
                                as->prefillLen + as->decoded,
                                as->decodeRemaining});
            }
        });
        ouroAssert(ring.size() == resident_count,
                   "cohort: live events != resident sequences");
        clear_events();
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
                        // else: evict self (slow-path semantics). A
                        // failed grow never evicts the grower, so its
                        // handle is still live.
                        const KvHandle self = m.as->kv;
                        evict(m.pos, false, false);
                        kv.release(self);
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
                retire(*m.as);
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
        // either no longer resident, or already re-admitted under a
        // NEW generation (their fresh event was pushed by
        // pump_admissions, so re-pushing this stale membership would
        // duplicate them).
        for (std::size_t k = 0; k < count; ++k) {
            const RingMember &m = at(k);
            if (!m.as->resident || m.as->generation != m.generation)
                continue;
            sync_member(m);
            if (!static_kv && m.consumed > 0)
                kv.growFast(m.as->kv, m.consumed);
            heap_push({m.ready, m.seq, m.generation, m.pos});
        }
    };

    pump_admissions(0.0);

    while (!events_empty() || !queue.empty()) {
        // Storm events interleave with pending events on the run
        // clock: pop order is nondecreasing in `ready`, so applying an
        // event once its time is <= the front's means no item whose
        // ready time FOLLOWS the event can have been processed before
        // it (stale fronts only delay application, never reorder it).
        // With no event pending the storm event is the only state
        // change left - apply it before the skip path so adopted
        // capacity can still rescue the queue head.
        if (storm_pending()) {
            const KvPoolEvent &ev = (*storm)[storm_next];
            if (events_empty() || ev.time <= front_ready()) {
                ++storm_next;
                apply_storm_event(ev);
                continue;
            }
        }

        if (events_empty()) {
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
            queue.empty() && resident_count > 1 && !storm_pending()) {
            cohort_pass();
            continue;
        }

        const HeapEntry top = pop_event();
        ActiveSeq *live = live_entry(top);
        if (!live) {
            // Stale entry drained naturally: keep the hygiene counter
            // honest or compact_heap fires on an already-clean heap.
            if (stale_entries > 0)
                --stale_entries;
            continue;
        }
        ActiveSeq &seq = *live;

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
        if (!is_prefill && resident_count == 1 && queue.empty() &&
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
                    retire(seq);
                    admissions_suspended = false;
                    pump_admissions(finished);
                    continue;
                }
                seq.generation = next_generation(seq.generation);
                heap_push({seq.nextReady, seq.id, seq.generation,
                           top.pos});
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
                    if (!token_coefficients_checked) {
                        cache.checkCoefficients(timing);
                        token_coefficients_checked = true;
                    }
                    item = &cache.checkedToken(
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
                    // A failed grow never evicts the grower, so its
                    // handle is still live.
                    const KvHandle self = seq.kv;
                    evict(top.pos, false, false);
                    kv.release(self);
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
            if (seq.decodeRemaining == 0 && done_prefill) {
                --prefill_count;
                kv.release(seq.kv);
                retire(seq);
                admissions_suspended = false; // a request completed
                pump_admissions(entry);
                continue;
            }
            seq.generation = next_generation(seq.generation);
            if (done_prefill) {
                // First decode token depends on the prompt's full
                // traversal of the pipeline.
                --prefill_count;
                seq.nextReady = completion;
                heap_push({seq.nextReady, seq.id, seq.generation,
                           top.pos});
            } else {
                // Prefill tokens stream: next is ready at this entry.
                seq.nextReady = entry;
                lane_push({seq.nextReady, seq.id, seq.generation,
                           top.pos});
                // No admission retry: it could admit nothing. Whether
                // pump_admissions admits depends only on the KV pool,
                // the wait queue, resident_count and
                // admissions_suspended, and a failed admission changes
                // none of them, so a pump repeated on unchanged inputs
                // admits nothing. This token changed none of them
                // either: its KV was reserved at admission, and it
                // neither completes nor evicts. Every step that does
                // change one pumps before any prefill token can run:
                // completions, self-evictions, storm events and
                // skipped requests pump at once; a slow-path decode grow reaches the
                // pump at the end of its own event; and a cohort pass
                // that ends on an eviction leaves only decode events
                // (it runs with no sequence in prefill and admits
                // nothing after its last pump), each of which pumps.
                continue;
            }
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
                retire(seq);
                admissions_suspended = false; // a request completed
                pump_admissions(entry);
                continue;
            }
            seq.nextReady = completion; // autoregressive gating
            seq.generation = next_generation(seq.generation);
            heap_push({seq.nextReady, seq.id, seq.generation, top.pos});
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
