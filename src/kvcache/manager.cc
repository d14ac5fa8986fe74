#include "manager.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ouro
{

BlockKvManager::BlockKvManager(const ModelConfig &model,
                               std::vector<KvCoreInfo> score_cores,
                               std::vector<KvCoreInfo> context_cores,
                               std::uint32_t tokens_per_block,
                               double threshold)
    : heads_(static_cast<std::uint32_t>(model.numKvHeads)),
      tokensPerBlock_(tokens_per_block), threshold_(threshold)
{
    ouroAssert(!score_cores.empty() && !context_cores.empty(),
               "BlockKvManager: empty KV core pool");
    ouroAssert(heads_ > 0, "BlockKvManager: model has no KV heads");
    ouroAssert(tokens_per_block > 0, "BlockKvManager: zero block size");
    ouroAssert(threshold >= 0.0 && threshold < 1.0,
               "BlockKvManager: threshold out of [0,1)");
    for (auto &info : score_cores) {
        totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                        info.blocksPerCrossbar;
        score_.push_back(emptyCore(info));
    }
    for (auto &info : context_cores) {
        totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                        info.blocksPerCrossbar;
        context_.push_back(emptyCore(info));
    }
    plan_.resize(2 * static_cast<std::size_t>(heads_));
    sizeScratch();
}

void
BlockKvManager::sizeScratch()
{
    demand_.resize(std::max(score_.size(), context_.size()), 0);
}

std::uint32_t
BlockKvManager::blocksFor(std::uint64_t tokens) const
{
    if (tokens == 0)
        return 1; // a sequence always owns at least its next block
    return static_cast<std::uint32_t>(
            ceilDiv(tokens, tokensPerBlock_));
}

BlockKvManager::CoreState
BlockKvManager::emptyCore(const KvCoreInfo &info) const
{
    const double capacity = static_cast<double>(info.crossbars) *
                            info.blocksPerCrossbar;
    CoreState core;
    core.info = info;
    core.freeBlocks = info.crossbars * info.blocksPerCrossbar;
    core.homeFree = info.crossbars > 0 ? info.blocksPerCrossbar : 0;
    // Admission requires the post-allocation residue to stay at or
    // above this reserve - small (spare-crossbar) cores therefore only
    // take sequences they can also grow (Section 4.4.4's
    // anti-thrashing rule).
    core.reserve =
        static_cast<std::uint32_t>(std::ceil(threshold_ * capacity));
    core.fullBelow = threshold_ * capacity;
    return core;
}

void
BlockKvManager::applyThreshold(CoreState &core)
{
    if (static_cast<double>(core.freeBlocks) < core.fullBelow)
        core.markedFull = true;
}

void
BlockKvManager::clearThreshold(CoreState &core)
{
    if (core.freeBlocks > core.fullBelow)
        core.markedFull = false;
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
                         std::uint32_t need, std::uint32_t *cores,
                         std::uint32_t &cursor) const
{
    const std::uint32_t heads = heads_;
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
        // Blocks this walk already planned on the core: only a walk
        // that has wrapped the ring can revisit one.
        std::uint32_t planned = 0;
        if (probes > ring_size) {
            for (std::uint32_t h = 0; h < placed; ++h)
                planned += cores[h] == index ? need : 0;
        }
        if (core.freeBlocks >= planned + need + core.reserve)
            cores[placed++] = index;
    }
    cursor = probe % ring_size;
    return placed == heads;
}

void
BlockKvManager::commitRing(std::vector<CoreState> &ring,
                           SequenceState &seq, std::uint32_t need,
                           bool is_v)
{
    const std::uint32_t base = is_v ? heads_ : 0;
    for (std::uint32_t h = base; h < base + heads_; ++h) {
        CoreState &core = ring[seq.cores[h]];
        ouroAssert(core.freeBlocks >= need,
                   "tryAdmitOnce: planned alloc failed");
        core.freeBlocks -= need;
        if (is_v) {
            // The head's blocks take the home crossbar while it has
            // room, then spill; a spill counts only after the head's
            // first block (need >= 1, so this never underflows).
            const std::uint32_t home = std::min(core.homeFree, need);
            core.homeFree -= home;
            seq.homeBlocks[h - heads_] = home;
            vSpills_ += need - home - (home == 0 ? 1 : 0);
        }
        applyThreshold(core);
    }
    usedBlocks_ += static_cast<std::uint64_t>(need) * heads_;
}

std::uint32_t
BlockKvManager::tryAdmitOnce(std::uint64_t seq_id,
                             std::uint64_t initial_tokens)
{
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

    // Plan both rings read-only; commit only when both fit, so a
    // failed admission touches no pool state. The plan replays the
    // allocating walk exactly: committing a head leaves at least the
    // reserve free (free - need >= ceil(threshold * capacity)), so
    // applyThreshold never marks a core full mid-walk, and the
    // per-core tally of planned blocks stands in for the free counts
    // the allocating walk would have decremented.
    std::uint32_t score_cursor = scoreCursor_;
    std::uint32_t context_cursor = contextCursor_;
    if (!planRing(score_, need, plan_.data(), score_cursor) ||
        !planRing(context_, need, plan_.data() + heads_,
                  context_cursor)) {
        failedNeed_ = need;
        failedEpoch_ = capacityEpoch_;
        return kNilSlot;
    }
    // Only a committing admission can make a sequence resident twice,
    // so the duplicate guard runs here rather than on every retry.
    ouroAssert(!resident(seq_id), "BlockKvManager: sequence ", seq_id,
               " already resident");

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    SequenceState &seq = slots_[slot];
    seq.seqId = seq_id;
    seq.tokens = initial_tokens;
    seq.blocks = need;
    seq.lastBlockFill = static_cast<std::uint32_t>(
            initial_tokens == 0
                ? 0
                : initial_tokens -
                  (static_cast<std::uint64_t>(need) - 1) *
                  tokensPerBlock_);
    seq.cores = plan_;
    seq.homeBlocks.resize(heads_);
    commitRing(score_, seq, need, false);
    commitRing(context_, seq, need, true);
    scoreCursor_ = score_cursor;
    contextCursor_ = context_cursor;
    ++capacityEpoch_;

    seq.live = true;
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
    if (seq.blocks == 0)
        return 0;
    return tokensPerBlock_ - seq.lastBlockFill;
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
    ouroAssert(seq.blocks > 0 &&
               n <= tokensPerBlock_ - seq.lastBlockFill,
               "growFast: batch exceeds in-block room");
    seq.lastBlockFill += static_cast<std::uint32_t>(n);
    seq.tokens += n;
}

KvResult
BlockKvManager::grow(std::uint64_t seq_id)
{
    return grow(handleOf(seq_id));
}

bool
BlockKvManager::ringFits(const std::vector<CoreState> &ring,
                         const std::uint32_t *cores)
{
    // Several heads of the same sequence may share a core, so demand
    // is tallied per core; the tally is zeroed again on the way out.
    for (std::uint32_t h = 0; h < heads_; ++h)
        ++demand_[cores[h]];
    bool fits = true;
    for (std::uint32_t h = 0; h < heads_; ++h)
        fits &= ring[cores[h]].freeBlocks >= demand_[cores[h]];
    for (std::uint32_t h = 0; h < heads_; ++h)
        demand_[cores[h]] = 0;
    return fits;
}

KvResult
BlockKvManager::grow(KvHandle handle)
{
    KvResult result;
    SequenceState &seq = slotRef(handle);

    // Fast path: the newest block (of every head) still has room.
    if (seq.blocks > 0 && seq.lastBlockFill < tokensPerBlock_) {
        ++seq.lastBlockFill;
        ++seq.tokens;
        result.ok = true;
        return result;
    }

    // Need one more block per head (K and V). Evict other residents
    // (most recent first) until it fits; never evict the grower.
    const std::uint32_t *cores = seq.cores.data();
    while (!(ringFits(score_, cores) &&
             ringFits(context_, cores + heads_))) {
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

    // One block per head. A grown block is never a head's first
    // (admission gives every head at least one), so a V block that
    // misses its home crossbar always counts as a spill.
    for (std::uint32_t h = 0; h < heads_; ++h) {
        CoreState &core = score_[cores[h]];
        --core.freeBlocks;
        applyThreshold(core);
    }
    for (std::uint32_t h = 0; h < heads_; ++h) {
        CoreState &core = context_[cores[heads_ + h]];
        --core.freeBlocks;
        if (core.homeFree > 0) {
            --core.homeFree;
            ++seq.homeBlocks[h];
        } else {
            ++vSpills_;
        }
        applyThreshold(core);
    }
    usedBlocks_ += 2 * heads_;
    ++seq.blocks;
    seq.lastBlockFill = 1;
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
    const std::uint32_t stride = 2 * heads_;
    for (std::uint32_t h = 0; h < stride; ++h) {
        const bool is_v = h >= heads_;
        CoreState &core = (is_v ? context_ : score_)[seq.cores[h]];
        core.freeBlocks += seq.blocks;
        if (is_v)
            core.homeFree += seq.homeBlocks[h - heads_];
        ouroAssert(core.freeBlocks <= core.info.crossbars *
                                              core.info.blocksPerCrossbar,
                   "BlockKvManager: double free");
        clearThreshold(core);
    }
    usedBlocks_ -= static_cast<std::uint64_t>(seq.blocks) * stride;
    unlinkMru(slot);
    index_.erase(seq.seqId);
    ++capacityEpoch_; // freed blocks may let a failed admission fit
    // A released slot keeps no per-head storage: peak memory follows
    // the resident set, not every sequence the slot ever held.
    std::vector<std::uint32_t>().swap(seq.cores);
    std::vector<std::uint32_t>().swap(seq.homeBlocks);
    seq.blocks = 0;
    seq.lastBlockFill = 0;
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
    ouroAssert(head < heads_, "headPlacement: head out of range");
    return {seq.cores[head], seq.cores[heads_ + head]};
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
        const std::uint32_t base = is_score ? 0 : heads_;
        for (std::uint32_t r = 0; r < ring.size(); ++r) {
            if (!(ring[r].info.coord == coord))
                continue;
            for (const auto &[id, slot] : index_) {
                const std::uint32_t *cores =
                    slots_[slot].cores.data() + base;
                if (std::find(cores, cores + heads_, r) !=
                    cores + heads_) {
                    lost.push_back(id);
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
            core.freeBlocks = 0;
            core.homeFree = 0;
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
                               (core.freeBlocks == 0 &&
                                core.markedFull),
                       "adoptCore: core (", info.coord.row, ",",
                       info.coord.col, ") is already live in the "
                       "pool");
        }
    }
    auto &ring = score_duty ? score_ : context_;
    totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                    info.blocksPerCrossbar;
    ring.push_back(emptyCore(info));
    sizeScratch();
    ++capacityEpoch_; // new capacity and a new ring size
    return static_cast<std::uint32_t>(ring.size() - 1);
}

} // namespace ouro
