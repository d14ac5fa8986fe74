/**
 * @file
 * Distributed dynamic KV-cache management (paper Section 4.4).
 *
 * Each transformer block manages its own KV cache independently
 * (attention is block-local). The pool consists of the block's
 * dedicated score cores (holding K, computing Q.K^T) and context
 * cores (holding V, computing S.V), plus the *fragmented* spare
 * crossbars of the block's weight cores. Allocation follows the
 * paper's KV-mapping rules (Section 4.4.3):
 *
 *  - the KV cores form a ring; a new sequence takes one core per
 *    attention head starting at the ring cursor, so consecutive
 *    sequences land on distinct cores (compute/write separation) and
 *    heads on distinct cores (no intra-core concat pressure);
 *  - K grows along output channels: new blocks may come from OTHER
 *    crossbars of the core; V grows along input channels: new blocks
 *    prefer the SAME crossbar so accumulation stays single-pass;
 *  - a logical block (128 rows x 1024 bits) holds 128 tokens of one
 *    head (head_dim <= 128), matching "the head dimensions of
 *    prevalent models";
 *  - when the free space of the ring's current core falls below a
 *    threshold the core is marked full, reserving the residue for
 *    decode-phase growth of already-resident sequences (the
 *    anti-thrashing rule of Section 4.4.4).
 *
 * Eviction (Section 4.4.4): when admission fails, the MOST RECENTLY
 * scheduled resident sequence is evicted and must be re-prefetched by
 * the scheduler (it re-enters the wait queue at the front). Residents
 * are kept on an intrusive admission-order list, so the MRU victim is
 * the list tail - O(1) instead of a scan of every resident.
 *
 * Hot-path API (PR 2): admission hands back an opaque KvHandle that
 * addresses the sequence's slot directly. grow/growRoom/growFast/
 * release on the handle skip the seq-id hash probe entirely - the
 * pipeline engine holds one handle per resident sequence and only
 * falls back to the id-keyed calls on rare paths (external eviction,
 * failure handling). Handles die with release(); using a stale one is
 * a checked error.
 */

#ifndef OURO_KVCACHE_MANAGER_HH
#define OURO_KVCACHE_MANAGER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/units.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "model/llm.hh"

namespace ouro
{

/** One KV storage core in the ring. */
struct KvCoreInfo
{
    CoreCoord coord;
    std::uint32_t crossbars;  ///< attention-capable crossbars
    std::uint32_t blocksPerCrossbar;
};

/** Where one head of one sequence lives. */
struct HeadPlacement
{
    std::uint32_t scoreCore;   ///< index into the score ring
    std::uint32_t contextCore; ///< index into the context ring
};

/** Result of an admission/growth attempt. */
struct KvResult
{
    bool ok = false;
    /** Sequences evicted to make room (most-recent-first). */
    std::vector<std::uint64_t> evicted;
};

class BlockKvManager;

/**
 * Opaque ticket for a resident sequence. Obtained from admission (or
 * handleOf()); lets the per-token KV calls index the sequence's slot
 * directly instead of re-probing the seq-id hash. Valid until the
 * sequence is released or evicted.
 */
class KvHandle
{
  public:
    KvHandle() = default;

    bool valid() const { return slot_ != kInvalid; }

    bool operator==(const KvHandle &) const = default;

  private:
    friend class BlockKvManager;
    static constexpr std::uint32_t kInvalid = 0xffffffffu;

    KvHandle(std::uint32_t slot, std::uint32_t stamp)
        : slot_(slot), stamp_(stamp)
    {
    }

    std::uint32_t slot_ = kInvalid;
    /** Slot reuse stamp: detects a stale handle whose slot was
     *  recycled by a later admission (ABA), not just a dead slot. */
    std::uint32_t stamp_ = 0;
};

/**
 * Per-block KV manager. Thread-compatible, deterministic; the
 * multi-level translation (page table -> bitmap -> block registers,
 * Fig. 12) is modelled by the seq -> head placement map, per-core
 * free-block counters, and per-(seq, head, core) block lists.
 */
class BlockKvManager
{
  public:
    /**
     * @param tokens_per_block rows of a logical block usable for
     *        tokens (128 for head_dim <= 128).
     * @param threshold fraction of a core's blocks kept in reserve
     *        for growth once the ring cursor visits it (Fig. 17
     *        sweep).
     */
    BlockKvManager(const ModelConfig &model,
                   std::vector<KvCoreInfo> score_cores,
                   std::vector<KvCoreInfo> context_cores,
                   std::uint32_t tokens_per_block = 128,
                   double threshold = 0.1);

    /**
     * Admit a sequence with @p initial_tokens of KV (its prefill).
     * On capacity shortage evicts most-recently-scheduled residents
     * (never the new sequence's own allocation) until it fits or the
     * pool is empty. ok=false means the sequence cannot fit even in
     * an empty pool slot - caller must defer it.
     */
    KvResult admit(std::uint64_t seq_id, std::uint64_t initial_tokens);

    /**
     * Admission without eviction (Section 4.4.4: scheduling new
     * requests suspends when the cache is full rather than evicting).
     * Returns false when the sequence does not fit as-is.
     */
    bool admitNoEvict(std::uint64_t seq_id,
                      std::uint64_t initial_tokens);

    /**
     * Handle-returning admitNoEvict: the engine's hot path. The
     * returned handle is invalid when the sequence does not fit.
     */
    KvHandle admitNoEvictHandle(std::uint64_t seq_id,
                                std::uint64_t initial_tokens);

    /** Handle of a resident sequence (one hash probe). */
    KvHandle handleOf(std::uint64_t seq_id) const;

    /** Append one decode token's K/V for a resident sequence. */
    KvResult grow(std::uint64_t seq_id);
    KvResult grow(KvHandle handle);

    /**
     * Tokens appendable to a resident sequence through the in-block
     * fast path alone (no block allocation, hence no eviction): the
     * minimum room left in the newest K/V block over all heads. The
     * pipeline engine uses this to batch unconstrained decode steps.
     */
    std::uint64_t growRoom(std::uint64_t seq_id) const;
    std::uint64_t growRoom(KvHandle handle) const;

    /**
     * Append @p n tokens through the fast path; @p n must not exceed
     * growRoom(seq_id). Equivalent to n fast-path grow() calls.
     */
    void growFast(std::uint64_t seq_id, std::uint64_t n);
    void growFast(KvHandle handle, std::uint64_t n);

    /** Release a finished (or externally evicted) sequence. */
    void release(std::uint64_t seq_id);
    void release(KvHandle handle);

    bool resident(std::uint64_t seq_id) const;

    /** Number of resident sequences. */
    std::size_t numResident() const { return index_.size(); }

    /** Placement of head @p h of a resident sequence. */
    HeadPlacement headPlacement(std::uint64_t seq_id,
                                std::uint32_t head) const;

    /** Coordinates for NoC traffic accounting. */
    CoreCoord scoreCoord(std::uint32_t ring_index) const;
    CoreCoord contextCoord(std::uint32_t ring_index) const;

    /** Fraction of all logical blocks currently allocated. */
    double utilization() const;

    /** Total token capacity of the pool (all heads aggregated). */
    std::uint64_t totalBlocks() const { return totalBlocks_; }
    std::uint64_t usedBlocks() const { return usedBlocks_; }

    /** Lifetime counters (for the Fig. 17 thrashing study). */
    std::uint64_t evictionCount() const { return evictions_; }
    std::uint64_t admissionCount() const { return admissions_; }

    /**
     * V-spill count: V growth that could not stay in its preferred
     * crossbar and pays the extra partial-sum hop (Section 4.4.3).
     * Counts committed allocations only: a failed admission is
     * planned read-only and allocates nothing, so it spills nothing.
     */
    std::uint64_t vSpills() const { return vSpills_; }

    /** Remove a failed KV core from the pool (Section 4.3.3);
     *  returns the sequences that lost data and were released. This
     *  IS the mid-run shrinkCapacity path: residents on the core are
     *  released (their handles go stale - using one afterwards is a
     *  checked error), the core's free blocks leave totalBlocks(),
     *  and the fenced entry never takes another allocation. */
    std::vector<std::uint64_t> dropCore(CoreCoord coord);

    /**
     * Graft a core into the pool mid-run (PR 9: KV capacity borrowed
     * from an adjacent block after a failure). The core joins the
     * score or context ring per @p score_duty - the duty it kept
     * across the recovery service's graft - empty, behind the ring
     * cursor (the cursor reaches it on its next wrap; existing
     * allocations and handles are untouched). Adopting a coordinate
     * that still holds live capacity in either ring is a checked
     * error; re-adopting a previously dropCore()d coordinate is fine
     * (the fenced entry stays inert). Returns the new ring index.
     */
    std::uint32_t adoptCore(const KvCoreInfo &info, bool score_duty);

  private:
    /** Free-block accounting for one ring core. */
    struct CoreState
    {
        KvCoreInfo info;
        std::vector<std::uint32_t> freePerXbar; ///< blocks free
        /** Sum of freePerXbar, kept in step by every writer: the
         *  admission walk and the grow fit check read it per probe. */
        std::uint32_t freeBlocks = 0;
        bool markedFull = false;

        std::uint32_t totalFree() const { return freeBlocks; }

        /** An empty core: every crossbar's blocks free. */
        static CoreState empty(const KvCoreInfo &info);
    };

    /** Blocks one (sequence, head) holds on its K or V core. */
    struct HeadAlloc
    {
        std::uint32_t core;          ///< ring index
        std::uint32_t blocks = 0;    ///< logical blocks held
        std::uint32_t lastBlockFill = 0; ///< tokens in newest block
        std::uint32_t homeXbar = 0;  ///< V's preferred crossbar
        /** Crossbar ownership, (crossbar, blocks) pairs, for release
         *  accounting (the Fig. 12c block registers). */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> perXbar;
    };

    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    struct SequenceState
    {
        std::uint64_t seqId = 0;
        std::uint64_t tokens = 0;
        std::vector<HeadAlloc> k;    ///< per head, on score cores
        std::vector<HeadAlloc> v;    ///< per head, on context cores
        /** Intrusive admission-order list (head = LRU, tail = MRU). */
        std::uint32_t mruPrev = kNilSlot;
        std::uint32_t mruNext = kNilSlot;
        /** Bumped on every release so recycled slots refuse handles
         *  from the previous residency. */
        std::uint32_t stamp = 0;
        bool live = false;
    };

    ModelConfig model_;
    std::vector<CoreState> score_;
    std::vector<CoreState> context_;
    std::uint32_t tokensPerBlock_;
    double threshold_;

    std::uint32_t scoreCursor_ = 0;
    std::uint32_t contextCursor_ = 0;
    std::uint64_t totalBlocks_ = 0;
    std::uint64_t usedBlocks_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t admissions_ = 0;
    std::uint64_t vSpills_ = 0;

    /** Bumped by every change that can make a failed admission fit
     *  (release, adoptCore, successful admission); see tryAdmitOnce
     *  for why nothing else needs to bump it. */
    std::uint64_t capacityEpoch_ = 0;
    /** Last failed admission: block need (0 = none; a need is always
     *  >= 1) and the epoch it failed at. */
    std::uint32_t failedNeed_ = 0;
    std::uint64_t failedEpoch_ = 0;

    /** Slot storage: stable while resident, recycled after release. */
    std::vector<SequenceState> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t mruHead_ = kNilSlot; ///< least recently admitted
    std::uint32_t mruTail_ = kNilSlot; ///< most recently admitted

    /** seq id -> slot, for the id-keyed API and duplicate checks. */
    std::unordered_map<std::uint64_t, std::uint32_t> index_;

    SequenceState &slotRef(KvHandle handle);
    const SequenceState &slotRef(KvHandle handle) const;

    /** Blocks needed to hold @p tokens of one head. */
    std::uint32_t blocksFor(std::uint64_t tokens) const;

    /** Evict the most recently scheduled resident; false if none. */
    bool evictMru(std::vector<std::uint64_t> &evicted);

    /** Release by slot (shared by handle/id release and eviction). */
    void releaseSlot(std::uint32_t slot);

    void linkMru(std::uint32_t slot);
    void unlinkMru(std::uint32_t slot);

    /** Returns the new slot on success, kNilSlot when it won't fit.
     *  Plans both rings read-only, then commits; a repeat of the
     *  last failure (same need, same capacity epoch) is O(1). */
    std::uint32_t tryAdmitOnce(std::uint64_t seq_id,
                               std::uint64_t initial_tokens);

    /** Walk @p ring from @p cursor, choosing a core for every entry
     *  of @p allocs (need blocks each) without touching the pool.
     *  Advances @p cursor as the walk did; false if a head found no
     *  core within the probe bound. */
    bool planRing(const std::vector<CoreState> &ring,
                  std::uint32_t need, std::vector<HeadAlloc> &allocs,
                  std::uint32_t &cursor) const;

    /** Allocate a planned ring's blocks, head by head. */
    void commitRing(std::vector<CoreState> &ring,
                    std::vector<HeadAlloc> &allocs, std::uint32_t need,
                    std::uint64_t initial_tokens, bool is_v);

    /** Allocate @p blocks on a ring core; kind selects K/V policy. */
    bool allocBlocks(CoreState &core, HeadAlloc &alloc,
                     std::uint32_t blocks, bool is_v);

    void releaseAlloc(std::vector<CoreState> &ring,
                      const HeadAlloc &alloc);

    /** Apply the anti-thrashing threshold rule to a cursor core. */
    void applyThreshold(CoreState &core);
};

/** Aggregate view over all blocks' managers (model-level stats). */
struct KvPoolStats
{
    double utilization = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t vSpills = 0;
    std::uint64_t residentSequences = 0;
};

} // namespace ouro

#endif // OURO_KVCACHE_MANAGER_HH
