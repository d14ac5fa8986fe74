#include "manager.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ouro
{

BlockKvManager::CoreState
BlockKvManager::CoreState::empty(const KvCoreInfo &info)
{
    CoreState state;
    state.info = info;
    state.freePerXbar.assign(info.crossbars, info.blocksPerCrossbar);
    state.freeBlocks = info.crossbars * info.blocksPerCrossbar;
    return state;
}

BlockKvManager::BlockKvManager(const ModelConfig &model,
                               std::vector<KvCoreInfo> score_cores,
                               std::vector<KvCoreInfo> context_cores,
                               std::uint32_t tokens_per_block,
                               double threshold)
    : model_(model), tokensPerBlock_(tokens_per_block),
      threshold_(threshold)
{
    ouroAssert(!score_cores.empty() && !context_cores.empty(),
               "BlockKvManager: empty KV core pool");
    ouroAssert(tokens_per_block > 0, "BlockKvManager: zero block size");
    ouroAssert(threshold >= 0.0 && threshold < 1.0,
               "BlockKvManager: threshold out of [0,1)");
    for (auto &info : score_cores) {
        totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                        info.blocksPerCrossbar;
        score_.push_back(CoreState::empty(info));
    }
    for (auto &info : context_cores) {
        totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                        info.blocksPerCrossbar;
        context_.push_back(CoreState::empty(info));
    }
}

std::uint32_t
BlockKvManager::blocksFor(std::uint64_t tokens) const
{
    if (tokens == 0)
        return 1; // a sequence always owns at least its next block
    return static_cast<std::uint32_t>(
            ceilDiv(tokens, tokensPerBlock_));
}

bool
BlockKvManager::allocBlocks(CoreState &core, HeadAlloc &alloc,
                            std::uint32_t blocks, bool is_v)
{
    if (core.totalFree() < blocks)
        return false;
    for (std::uint32_t n = 0; n < blocks; ++n) {
        std::uint32_t chosen = core.info.crossbars;
        if (is_v) {
            // V prefers its home crossbar (single-pass accumulation);
            // spilling to another crossbar costs an extra partial-sum
            // merge, which we count.
            if (core.freePerXbar[alloc.homeXbar] > 0) {
                chosen = alloc.homeXbar;
            } else {
                for (std::uint32_t x = 0; x < core.info.crossbars;
                     ++x) {
                    if (core.freePerXbar[x] > 0) {
                        chosen = x;
                        break;
                    }
                }
                if (alloc.blocks + n > 0)
                    ++vSpills_;
            }
        } else {
            // K grows along output channels: any crossbar works; pick
            // the emptiest to keep write pressure spread.
            std::uint32_t best_free = 0;
            for (std::uint32_t x = 0; x < core.info.crossbars; ++x) {
                if (core.freePerXbar[x] > best_free) {
                    best_free = core.freePerXbar[x];
                    chosen = x;
                }
            }
        }
        ouroAssert(chosen < core.info.crossbars,
                   "allocBlocks: no free crossbar despite free count");
        --core.freePerXbar[chosen];
        --core.freeBlocks;
        ++usedBlocks_;
        // Record ownership for release accounting.
        bool merged = false;
        for (auto &[xbar, count] : alloc.perXbar) {
            if (xbar == chosen) {
                ++count;
                merged = true;
                break;
            }
        }
        if (!merged)
            alloc.perXbar.emplace_back(chosen, 1);
    }
    alloc.blocks += blocks;
    return true;
}

void
BlockKvManager::releaseAlloc(std::vector<CoreState> &ring,
                             const HeadAlloc &alloc)
{
    CoreState &core = ring[alloc.core];
    for (const auto &[xbar, count] : alloc.perXbar) {
        core.freePerXbar[xbar] += count;
        core.freeBlocks += count;
        ouroAssert(core.freePerXbar[xbar] <=
                   core.info.blocksPerCrossbar,
                   "releaseAlloc: double free");
        usedBlocks_ -= count;
    }
    // Freed space may clear the full mark.
    const double capacity = static_cast<double>(core.info.crossbars) *
                            core.info.blocksPerCrossbar;
    if (core.totalFree() > threshold_ * capacity)
        core.markedFull = false;
}

void
BlockKvManager::applyThreshold(CoreState &core)
{
    const double capacity = static_cast<double>(core.info.crossbars) *
                            core.info.blocksPerCrossbar;
    if (static_cast<double>(core.totalFree()) < threshold_ * capacity)
        core.markedFull = true;
}

BlockKvManager::SequenceState &
BlockKvManager::slotRef(KvHandle handle)
{
    ouroAssert(handle.valid() && handle.slot_ < slots_.size() &&
               slots_[handle.slot_].live &&
               slots_[handle.slot_].stamp == handle.stamp_,
               "BlockKvManager: stale or invalid KvHandle");
    return slots_[handle.slot_];
}

const BlockKvManager::SequenceState &
BlockKvManager::slotRef(KvHandle handle) const
{
    ouroAssert(handle.valid() && handle.slot_ < slots_.size() &&
               slots_[handle.slot_].live &&
               slots_[handle.slot_].stamp == handle.stamp_,
               "BlockKvManager: stale or invalid KvHandle");
    return slots_[handle.slot_];
}

void
BlockKvManager::linkMru(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    seq.mruPrev = mruTail_;
    seq.mruNext = kNilSlot;
    if (mruTail_ != kNilSlot)
        slots_[mruTail_].mruNext = slot;
    else
        mruHead_ = slot;
    mruTail_ = slot;
}

void
BlockKvManager::unlinkMru(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    if (seq.mruPrev != kNilSlot)
        slots_[seq.mruPrev].mruNext = seq.mruNext;
    else
        mruHead_ = seq.mruNext;
    if (seq.mruNext != kNilSlot)
        slots_[seq.mruNext].mruPrev = seq.mruPrev;
    else
        mruTail_ = seq.mruPrev;
    seq.mruPrev = kNilSlot;
    seq.mruNext = kNilSlot;
}

bool
BlockKvManager::planRing(const std::vector<CoreState> &ring,
                         std::uint32_t need,
                         std::vector<HeadAlloc> &allocs,
                         std::uint32_t &cursor) const
{
    const auto heads = static_cast<std::uint32_t>(allocs.size());
    const auto ring_size = static_cast<std::uint32_t>(ring.size());
    std::uint32_t placed = 0;
    std::uint32_t probe = cursor;
    std::uint32_t probes = 0;
    while (placed < heads && probes < 2 * ring_size + heads) {
        const std::uint32_t index = probe % ring_size;
        const CoreState &core = ring[index];
        ++probes;
        ++probe;
        if (core.markedFull)
            continue;
        // Admission requires the post-allocation residue to stay
        // above the threshold reserve - small (spare-crossbar) cores
        // therefore only take sequences they can also grow (Section
        // 4.4.4's anti-thrashing rule).
        const double capacity =
            static_cast<double>(core.info.crossbars) *
            core.info.blocksPerCrossbar;
        const auto reserve = static_cast<std::uint32_t>(
                std::ceil(threshold_ * capacity));
        // Blocks this walk already planned on the core: only a walk
        // that has wrapped the ring can revisit one.
        std::uint32_t planned = 0;
        if (probes > ring_size) {
            for (std::uint32_t h = 0; h < placed; ++h)
                planned += allocs[h].core == index ? need : 0;
        }
        if (core.totalFree() >= planned + need + reserve)
            allocs[placed++].core = index;
    }
    cursor = probe % ring_size;
    return placed == heads;
}

void
BlockKvManager::commitRing(std::vector<CoreState> &ring,
                           std::vector<HeadAlloc> &allocs,
                           std::uint32_t need,
                           std::uint64_t initial_tokens, bool is_v)
{
    for (HeadAlloc &alloc : allocs) {
        CoreState &core = ring[alloc.core];
        const bool ok = allocBlocks(core, alloc, need, is_v);
        ouroAssert(ok, "tryAdmitOnce: planned alloc failed");
        alloc.lastBlockFill = static_cast<std::uint32_t>(
                initial_tokens == 0
                    ? 0
                    : initial_tokens -
                      (static_cast<std::uint64_t>(need) - 1) *
                      tokensPerBlock_);
        applyThreshold(core);
    }
}

std::uint32_t
BlockKvManager::tryAdmitOnce(std::uint64_t seq_id,
                             std::uint64_t initial_tokens)
{
    const auto heads = static_cast<std::uint32_t>(model_.numKvHeads);
    const std::uint32_t need = blocksFor(initial_tokens);

    // Why the memo is exact. Whether an admission fits is a function
    // of (need, ring states, cursors) only - never of the sequence id
    // or of the token count beyond its block need. Every state change
    // that can turn a failure into a fit bumps capacityEpoch_:
    //  - releaseSlot returns blocks and may clear markedFull; it is
    //    the one release path (release, MRU eviction in admit/grow,
    //    and dropCore's victims all go through it);
    //  - adoptCore adds a core and changes the ring size, hence the
    //    probe bound and the probe -> core mapping;
    //  - a successful admission moves the cursors.
    // Between bumps only three things run. grow() allocates (fewer
    // free blocks) and may set markedFull; growFast() moves fill
    // counters and touches no capacity; dropCore's fence zeroes free
    // blocks and sets markedFull. A plan is monotone in capacity: the
    // walk probes cursor, cursor + 1, ... up to a bound fixed by the
    // ring size and head count, never by the pool state; a core takes
    // a head on a visit only while it is not marked full and its free
    // blocks minus those already planned on it cover need + reserve,
    // so with fewer free blocks (or the mark set) every core takes at
    // most as many heads by each probe as before, and a walk that
    // fell short of the head count still falls short. Hence a failure
    // memoized at this epoch for this need is exactly the answer a
    // full plan would give now.
    if (need == failedNeed_ && capacityEpoch_ == failedEpoch_)
        return kNilSlot;

    SequenceState seq;
    seq.seqId = seq_id;
    seq.tokens = initial_tokens;
    seq.k.resize(heads);
    seq.v.resize(heads);

    // Plan both rings read-only; commit only when both fit, so a
    // failed admission touches no pool state. The plan replays the
    // allocating walk exactly: committing a head leaves at least the
    // reserve free (free - need >= ceil(threshold * capacity)), so
    // applyThreshold never marks a core full mid-walk, and the
    // per-core tally of planned blocks stands in for the free counts
    // the allocating walk would have decremented.
    std::uint32_t score_cursor = scoreCursor_;
    std::uint32_t context_cursor = contextCursor_;
    if (!planRing(score_, need, seq.k, score_cursor) ||
        !planRing(context_, need, seq.v, context_cursor)) {
        failedNeed_ = need;
        failedEpoch_ = capacityEpoch_;
        return kNilSlot;
    }
    commitRing(score_, seq.k, need, initial_tokens, false);
    commitRing(context_, seq.v, need, initial_tokens, true);
    scoreCursor_ = score_cursor;
    contextCursor_ = context_cursor;
    ++capacityEpoch_;

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    seq.live = true;
    seq.stamp = slots_[slot].stamp; // keep the reuse stamp
    slots_[slot] = std::move(seq);
    linkMru(slot);
    index_.emplace(seq_id, slot);
    ++admissions_;
    return slot;
}

bool
BlockKvManager::evictMru(std::vector<std::uint64_t> &evicted)
{
    if (mruTail_ == kNilSlot)
        return false;
    const std::uint32_t victim = mruTail_;
    const std::uint64_t id = slots_[victim].seqId;
    releaseSlot(victim);
    evicted.push_back(id);
    ++evictions_;
    return true;
}

KvResult
BlockKvManager::admit(std::uint64_t seq_id,
                      std::uint64_t initial_tokens)
{
    ouroAssert(!resident(seq_id), "admit: sequence ", seq_id,
               " already resident");
    KvResult result;
    while (true) {
        if (tryAdmitOnce(seq_id, initial_tokens) != kNilSlot) {
            result.ok = true;
            return result;
        }
        if (!evictMru(result.evicted))
            return result; // pool empty yet still no fit
    }
}

bool
BlockKvManager::admitNoEvict(std::uint64_t seq_id,
                             std::uint64_t initial_tokens)
{
    return admitNoEvictHandle(seq_id, initial_tokens).valid();
}

KvHandle
BlockKvManager::admitNoEvictHandle(std::uint64_t seq_id,
                                   std::uint64_t initial_tokens)
{
    ouroAssert(!resident(seq_id), "admitNoEvict: sequence ", seq_id,
               " already resident");
    const std::uint32_t slot = tryAdmitOnce(seq_id, initial_tokens);
    return slot == kNilSlot ? KvHandle{}
                            : KvHandle{slot, slots_[slot].stamp};
}

KvHandle
BlockKvManager::handleOf(std::uint64_t seq_id) const
{
    const auto it = index_.find(seq_id);
    ouroAssert(it != index_.end(), "handleOf: sequence ", seq_id,
               " not resident");
    return KvHandle{it->second, slots_[it->second].stamp};
}

std::uint64_t
BlockKvManager::growRoom(std::uint64_t seq_id) const
{
    return growRoom(handleOf(seq_id));
}

std::uint64_t
BlockKvManager::growRoom(KvHandle handle) const
{
    const SequenceState &seq = slotRef(handle);
    if (seq.k.empty() || seq.k.front().blocks == 0)
        return 0;
    std::uint32_t room = tokensPerBlock_;
    for (const auto &alloc : seq.k)
        room = std::min(room, tokensPerBlock_ - alloc.lastBlockFill);
    for (const auto &alloc : seq.v)
        room = std::min(room, tokensPerBlock_ - alloc.lastBlockFill);
    return room;
}

void
BlockKvManager::growFast(std::uint64_t seq_id, std::uint64_t n)
{
    growFast(handleOf(seq_id), n);
}

void
BlockKvManager::growFast(KvHandle handle, std::uint64_t n)
{
    SequenceState &seq = slotRef(handle);
    const auto count = static_cast<std::uint32_t>(n);
    for (auto &alloc : seq.k) {
        alloc.lastBlockFill += count;
        ouroAssert(alloc.lastBlockFill <= tokensPerBlock_,
                   "growFast: batch exceeds in-block room");
    }
    for (auto &alloc : seq.v) {
        alloc.lastBlockFill += count;
        ouroAssert(alloc.lastBlockFill <= tokensPerBlock_,
                   "growFast: batch exceeds in-block room");
    }
    seq.tokens += n;
}

KvResult
BlockKvManager::grow(std::uint64_t seq_id)
{
    return grow(handleOf(seq_id));
}

KvResult
BlockKvManager::grow(KvHandle handle)
{
    KvResult result;
    SequenceState &seq = slotRef(handle);

    // Fast path: the newest block of every head still has room.
    if (seq.k.front().lastBlockFill < tokensPerBlock_ &&
        seq.k.front().blocks > 0) {
        bool all_have_room = true;
        for (const auto &alloc : seq.k)
            all_have_room &= alloc.lastBlockFill < tokensPerBlock_;
        for (const auto &alloc : seq.v)
            all_have_room &= alloc.lastBlockFill < tokensPerBlock_;
        if (all_have_room) {
            for (auto &alloc : seq.k)
                ++alloc.lastBlockFill;
            for (auto &alloc : seq.v)
                ++alloc.lastBlockFill;
            ++seq.tokens;
            result.ok = true;
            return result;
        }
    }

    // Need one more block per head (K and V). Evict other residents
    // (most recent first) until it fits; never evict the grower.
    //
    // Several heads of the same sequence may share a core, so demand
    // must be counted per core, not per alloc. Head counts are small
    // (<= numKvHeads), so flat (core, count) vectors with a linear
    // probe beat a per-call hash map.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> k_need;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> v_need;
    k_need.reserve(seq.k.size());
    v_need.reserve(seq.v.size());
    auto count_core = [](std::vector<std::pair<std::uint32_t,
                                               std::uint32_t>> &need,
                         std::uint32_t core) {
        for (auto &[c, n] : need) {
            if (c == core) {
                ++n;
                return;
            }
        }
        need.emplace_back(core, 1);
    };
    for (const auto &alloc : seq.k)
        count_core(k_need, alloc.core);
    for (const auto &alloc : seq.v)
        count_core(v_need, alloc.core);
    while (true) {
        bool fits = true;
        for (const auto &[core, need] : k_need)
            fits &= score_[core].totalFree() >= need;
        for (const auto &[core, need] : v_need)
            fits &= context_[core].totalFree() >= need;
        if (fits)
            break;
        // MRU victim other than ourselves: the list tail, or its
        // predecessor when we ARE the tail.
        std::uint32_t victim = mruTail_;
        if (victim == handle.slot_)
            victim = slots_[victim].mruPrev;
        if (victim == kNilSlot)
            return result; // only us left and still no room
        const std::uint64_t vid = slots_[victim].seqId;
        releaseSlot(victim);
        result.evicted.push_back(vid);
        ++evictions_;
    }

    for (auto &alloc : seq.k) {
        const bool ok = allocBlocks(score_[alloc.core], alloc, 1,
                                    false);
        ouroAssert(ok, "grow: K alloc failed after fit check");
        alloc.lastBlockFill = 1;
        applyThreshold(score_[alloc.core]);
    }
    for (auto &alloc : seq.v) {
        const bool ok = allocBlocks(context_[alloc.core], alloc, 1,
                                    true);
        ouroAssert(ok, "grow: V alloc failed after fit check");
        alloc.lastBlockFill = 1;
        applyThreshold(context_[alloc.core]);
    }
    ++seq.tokens;
    result.ok = true;
    return result;
}

void
BlockKvManager::release(std::uint64_t seq_id)
{
    release(handleOf(seq_id));
}

void
BlockKvManager::release(KvHandle handle)
{
    slotRef(handle); // validates
    releaseSlot(handle.slot_);
}

void
BlockKvManager::releaseSlot(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    for (const auto &alloc : seq.k)
        releaseAlloc(score_, alloc);
    for (const auto &alloc : seq.v)
        releaseAlloc(context_, alloc);
    unlinkMru(slot);
    index_.erase(seq.seqId);
    ++capacityEpoch_; // freed blocks may let a failed admission fit
    seq.k.clear();
    seq.v.clear();
    seq.live = false;
    ++seq.stamp; // invalidate outstanding handles (ABA guard)
    freeSlots_.push_back(slot);
}

bool
BlockKvManager::resident(std::uint64_t seq_id) const
{
    return index_.count(seq_id) > 0;
}

HeadPlacement
BlockKvManager::headPlacement(std::uint64_t seq_id,
                              std::uint32_t head) const
{
    const SequenceState &seq = slotRef(handleOf(seq_id));
    ouroAssert(head < seq.k.size(),
               "headPlacement: head out of range");
    return {seq.k[head].core, seq.v[head].core};
}

CoreCoord
BlockKvManager::scoreCoord(std::uint32_t ring_index) const
{
    ouroAssert(ring_index < score_.size(), "scoreCoord: bad index");
    return score_[ring_index].info.coord;
}

CoreCoord
BlockKvManager::contextCoord(std::uint32_t ring_index) const
{
    ouroAssert(ring_index < context_.size(),
               "contextCoord: bad index");
    return context_[ring_index].info.coord;
}

double
BlockKvManager::utilization() const
{
    return totalBlocks_ == 0
               ? 0.0
               : static_cast<double>(usedBlocks_) /
                     static_cast<double>(totalBlocks_);
}

std::vector<std::uint64_t>
BlockKvManager::dropCore(CoreCoord coord)
{
    std::vector<std::uint64_t> lost;
    auto collect = [&](const std::vector<CoreState> &ring,
                       bool is_score) {
        for (std::uint32_t r = 0; r < ring.size(); ++r) {
            if (!(ring[r].info.coord == coord))
                continue;
            for (const auto &[id, slot] : index_) {
                const SequenceState &seq = slots_[slot];
                const auto &allocs = is_score ? seq.k : seq.v;
                for (const auto &alloc : allocs) {
                    if (alloc.core == r) {
                        lost.push_back(id);
                        break;
                    }
                }
            }
        }
    };
    collect(score_, true);
    collect(context_, false);
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    // Release first (their blocks return to the free lists), THEN
    // fence the core so no future allocation lands on it.
    for (const auto id : lost)
        release(id);
    auto fence = [&](std::vector<CoreState> &ring) {
        for (auto &core : ring) {
            if (!(core.info.coord == coord))
                continue;
            totalBlocks_ -= core.freeBlocks;
            std::fill(core.freePerXbar.begin(), core.freePerXbar.end(),
                      0u);
            core.freeBlocks = 0;
            core.markedFull = true;
        }
    };
    fence(score_);
    fence(context_);
    return lost;
}

std::uint32_t
BlockKvManager::adoptCore(const KvCoreInfo &info, bool score_duty)
{
    // A dropCore()d entry (fenced: zero free, markedFull) with the
    // same coordinate is inert and may be shadowed; anything still
    // holding capacity is a double-adopt.
    for (const auto *ring : {&score_, &context_}) {
        for (const auto &core : *ring) {
            ouroAssert(!(core.info.coord == info.coord) ||
                               (core.totalFree() == 0 &&
                                core.markedFull),
                       "adoptCore: core (", info.coord.row, ",",
                       info.coord.col, ") is already live in the "
                       "pool");
        }
    }
    auto &ring = score_duty ? score_ : context_;
    totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                    info.blocksPerCrossbar;
    ring.push_back(CoreState::empty(info));
    ++capacityEpoch_; // new capacity and a new ring size
    return static_cast<std::uint32_t>(ring.size() - 1);
}

} // namespace ouro
