/**
 * @file
 * Unit + property tests for the distributed dynamic KV-cache manager:
 * admission/growth/release accounting, ring placement, the K/V growth
 * policies, MRU eviction, thresholds, and failed-core handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"
#include "kvcache/manager.hh"
#include "model/llm.hh"

namespace ouro
{
namespace
{

/** Small model: 4 KV heads so placements are easy to reason about. */
ModelConfig
kvModel()
{
    ModelConfig cfg;
    cfg.name = "kv-test";
    cfg.numBlocks = 2;
    cfg.hiddenDim = 512;
    cfg.numHeads = 4;
    cfg.numKvHeads = 4;
    cfg.headDim = 128;
    cfg.ffnDim = 1024;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 100;
    cfg.bytesPerParam = 1;
    cfg.attention = AttentionKind::Causal;
    cfg.maxContext = 4096;
    return cfg;
}

std::vector<KvCoreInfo>
pool(std::uint32_t cores, std::uint32_t xbars = 4,
     std::uint32_t blocks = 8, std::uint32_t base_row = 0)
{
    std::vector<KvCoreInfo> infos;
    for (std::uint32_t i = 0; i < cores; ++i)
        infos.push_back({{base_row, i}, xbars, blocks});
    return infos;
}

TEST(KvManager, CapacityAccounting)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    // 8 cores x 4 xbars x 8 blocks = 256 blocks.
    EXPECT_EQ(mgr.totalBlocks(), 256u);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

TEST(KvManager, AdmitAllocatesPerHead)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    const KvResult r = mgr.admit(1, 100); // 100 tokens -> 1 block/head
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.evicted.empty());
    EXPECT_TRUE(mgr.resident(1));
    // 4 heads x 1 block (K) + 4 x 1 (V) = 8 blocks.
    EXPECT_EQ(mgr.usedBlocks(), 8u);
}

TEST(KvManager, MultiBlockPrefill)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    // 300 tokens -> ceil(300/128) = 3 blocks per head per side.
    ASSERT_TRUE(mgr.admit(7, 300).ok);
    EXPECT_EQ(mgr.usedBlocks(), 4u * 3 * 2);
}

TEST(KvManager, HeadsOnDistinctCores)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    std::set<std::uint32_t> score_cores, context_cores;
    for (std::uint32_t h = 0; h < 4; ++h) {
        const HeadPlacement hp = mgr.headPlacement(1, h);
        score_cores.insert(hp.scoreCore);
        context_cores.insert(hp.contextCore);
    }
    // Fig. 12 / Section 4.4.3: distinct heads on separate cores.
    EXPECT_EQ(score_cores.size(), 4u);
    EXPECT_EQ(context_cores.size(), 4u);
}

TEST(KvManager, RingAdvancesBetweenSequences)
{
    // 8 score cores, 4 heads: sequence 2 should start where sequence
    // 1 ended (compute/write separation of Section 4.4.3).
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    ASSERT_TRUE(mgr.admit(2, 64).ok);
    std::set<std::uint32_t> first, second;
    for (std::uint32_t h = 0; h < 4; ++h) {
        first.insert(mgr.headPlacement(1, h).scoreCore);
        second.insert(mgr.headPlacement(2, h).scoreCore);
    }
    for (const auto c : second)
        EXPECT_EQ(first.count(c), 0u)
            << "consecutive sequences share score core " << c;
}

TEST(KvManager, GrowWithinBlockIsFree)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64).ok); // 64 of 128 rows used
    const auto before = mgr.usedBlocks();
    EXPECT_TRUE(mgr.grow(1).ok); // token 65 fits the same block
    EXPECT_EQ(mgr.usedBlocks(), before);
}

TEST(KvManager, GrowRoomAndGrowFastMatchGrowLoop)
{
    // growFast(n) must be exactly n fast-path grow() calls: same
    // block accounting, same room left afterwards.
    BlockKvManager a(kvModel(), pool(4), pool(4, 4, 8, 1));
    BlockKvManager b(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(a.admit(1, 64).ok);
    ASSERT_TRUE(b.admit(1, 64).ok);
    EXPECT_EQ(a.growRoom(1), 64u); // 64 of 128 rows used

    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(a.grow(1).ok);
    b.growFast(1, 40);

    EXPECT_EQ(a.growRoom(1), b.growRoom(1));
    EXPECT_EQ(a.usedBlocks(), b.usedBlocks());
    EXPECT_EQ(a.growRoom(1), 24u);

    // Exhaust the room: the next grow crosses the block boundary.
    b.growFast(1, b.growRoom(1));
    EXPECT_EQ(b.growRoom(1), 0u);
    const auto before = b.usedBlocks();
    EXPECT_TRUE(b.grow(1).ok);
    EXPECT_GT(b.usedBlocks(), before);
}

TEST(KvManager, GrowAcrossBlockBoundaryAllocates)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 128).ok); // exactly one full block
    const auto before = mgr.usedBlocks();
    EXPECT_TRUE(mgr.grow(1).ok); // token 129 -> new block per head
    EXPECT_EQ(mgr.usedBlocks(), before + 4u * 2);
}

TEST(KvManager, ReleaseReturnsBlocks)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 200).ok);
    ASSERT_TRUE(mgr.admit(2, 200).ok);
    const auto used = mgr.usedBlocks();
    mgr.release(1);
    EXPECT_LT(mgr.usedBlocks(), used);
    mgr.release(2);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_FALSE(mgr.resident(1));
}

TEST(KvManager, AdmitEvictsMostRecentFirst)
{
    // Tiny pool: 4 score cores x 1 xbar x 2 blocks; 4 heads ->
    // each sequence takes 1 block per head per side = whole row.
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    ASSERT_TRUE(mgr.admit(2, 64).ok);
    // Pool now full (2 blocks per core used by seq 1+2).
    const KvResult r = mgr.admit(3, 64);
    EXPECT_TRUE(r.ok);
    ASSERT_EQ(r.evicted.size(), 1u);
    EXPECT_EQ(r.evicted[0], 2u); // most recently scheduled
    EXPECT_TRUE(mgr.resident(1));
    EXPECT_FALSE(mgr.resident(2));
    EXPECT_TRUE(mgr.resident(3));
    EXPECT_EQ(mgr.evictionCount(), 1u);
}

TEST(KvManager, AdmitNoEvictSuspends)
{
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admitNoEvict(1, 64));
    ASSERT_TRUE(mgr.admitNoEvict(2, 64));
    EXPECT_FALSE(mgr.admitNoEvict(3, 64));
    // Nobody was evicted.
    EXPECT_TRUE(mgr.resident(1));
    EXPECT_TRUE(mgr.resident(2));
    EXPECT_EQ(mgr.evictionCount(), 0u);
}

TEST(KvManager, GrowEvictsOthersNeverSelf)
{
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 128).ok); // full block each head
    ASSERT_TRUE(mgr.admit(2, 128).ok);
    // Growing 1 needs fresh blocks; pool is full; 2 is the MRU.
    const KvResult r = mgr.grow(1);
    EXPECT_TRUE(r.ok);
    ASSERT_EQ(r.evicted.size(), 1u);
    EXPECT_EQ(r.evicted[0], 2u);
    EXPECT_TRUE(mgr.resident(1));
}

TEST(KvManager, GrowFailsWhenAlone)
{
    // One core, one crossbar, one block per side: sequence 1 fills it.
    BlockKvManager mgr(kvModel(), pool(4, 1, 1), pool(4, 1, 1, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 128).ok);
    const KvResult r = mgr.grow(1);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.evicted.empty());
}

TEST(KvManager, VSpillCountsWhenHomeXbarFull)
{
    // Context cores have 2 crossbars x 2 blocks. A sequence growing
    // past 2 blocks/head must spill V to the second crossbar.
    BlockKvManager mgr(kvModel(), pool(4, 4, 8), pool(4, 2, 2, 1));
    ASSERT_TRUE(mgr.admit(1, 256).ok); // 2 V blocks -> home xbar full
    EXPECT_EQ(mgr.vSpills(), 0u);
    ASSERT_TRUE(mgr.grow(1).ok); // 257th token: V spills
    EXPECT_GT(mgr.vSpills(), 0u);
}

TEST(KvManager, ThresholdReservesSpace)
{
    // threshold 0.25 -> one block of each 4-block core is held in
    // reserve: a second 2-block sequence no longer fits even though
    // raw space exists.
    BlockKvManager strict(kvModel(), pool(4, 1, 4), pool(4, 1, 4, 1),
                          128, 0.25);
    ASSERT_TRUE(strict.admit(1, 256).ok); // 2 of 4 blocks per core
    EXPECT_FALSE(strict.admitNoEvict(2, 256));
    // Growth of the resident sequence still works.
    EXPECT_TRUE(strict.grow(1).ok);

    // With threshold 0 the same admission succeeds.
    BlockKvManager loose(kvModel(), pool(4, 1, 4), pool(4, 1, 4, 1),
                         128, 0.0);
    ASSERT_TRUE(loose.admit(1, 256).ok);
    EXPECT_TRUE(loose.admitNoEvict(2, 256));
}

TEST(KvManager, DropCoreReleasesVictims)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    ASSERT_TRUE(mgr.admit(2, 64).ok);
    const auto total_before = mgr.totalBlocks();
    // Drop the score core of sequence 1's head 0.
    const auto hp = mgr.headPlacement(1, 0);
    const CoreCoord coord = mgr.scoreCoord(hp.scoreCore);
    const auto lost = mgr.dropCore(coord);
    EXPECT_FALSE(lost.empty());
    for (const auto id : lost)
        EXPECT_FALSE(mgr.resident(id));
    EXPECT_LT(mgr.totalBlocks(), total_before);
    // Remaining sequences are intact and the pool still admits.
    EXPECT_TRUE(mgr.admit(10, 64).ok);
}

TEST(KvManager, UtilizationTracksLoad)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 512).ok);
    const double u1 = mgr.utilization();
    ASSERT_TRUE(mgr.admit(2, 512).ok);
    EXPECT_GT(mgr.utilization(), u1);
    mgr.release(1);
    mgr.release(2);
    EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

TEST(KvHandle, EquivalentToIdApi)
{
    // Two managers, one driven by seq ids, one by handles, through
    // the same op sequence: accounting must match at every step.
    BlockKvManager by_id(kvModel(), pool(6), pool(6, 4, 8, 1));
    BlockKvManager by_handle(kvModel(), pool(6), pool(6, 4, 8, 1));

    ASSERT_TRUE(by_id.admitNoEvict(1, 100));
    const KvHandle h1 = by_handle.admitNoEvictHandle(1, 100);
    ASSERT_TRUE(h1.valid());
    ASSERT_TRUE(by_id.admitNoEvict(2, 300));
    const KvHandle h2 = by_handle.admitNoEvictHandle(2, 300);
    ASSERT_TRUE(h2.valid());
    EXPECT_EQ(by_id.usedBlocks(), by_handle.usedBlocks());
    EXPECT_EQ(by_id.growRoom(1), by_handle.growRoom(h1));
    EXPECT_EQ(by_id.growRoom(2), by_handle.growRoom(h2));

    for (int i = 0; i < 60; ++i) {
        ASSERT_TRUE(by_id.grow(1).ok);
        ASSERT_TRUE(by_handle.grow(h1).ok);
    }
    by_id.growFast(2, by_id.growRoom(2));
    by_handle.growFast(h2, by_handle.growRoom(h2));
    EXPECT_EQ(by_id.usedBlocks(), by_handle.usedBlocks());
    EXPECT_EQ(by_id.growRoom(1), by_handle.growRoom(h1));
    EXPECT_EQ(by_id.growRoom(2), by_handle.growRoom(h2));

    // handleOf resolves to the same slot the admission returned.
    EXPECT_EQ(by_handle.growRoom(by_handle.handleOf(1)),
              by_handle.growRoom(h1));

    by_id.release(1);
    by_handle.release(h1);
    EXPECT_EQ(by_id.usedBlocks(), by_handle.usedBlocks());
    EXPECT_FALSE(by_handle.resident(1));
    EXPECT_TRUE(by_handle.resident(2));
    by_id.release(2);
    by_handle.release(h2);
    EXPECT_EQ(by_handle.usedBlocks(), 0u);
}

TEST(KvHandle, SlotReuseAfterRelease)
{
    // Released slots recycle; a fresh admission gets a live handle
    // and the pool accounting stays exact.
    BlockKvManager mgr(kvModel(), pool(6), pool(6, 4, 8, 1));
    const KvHandle a = mgr.admitNoEvictHandle(1, 64);
    ASSERT_TRUE(a.valid());
    mgr.release(a);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    const KvHandle b = mgr.admitNoEvictHandle(2, 64);
    ASSERT_TRUE(b.valid());
    EXPECT_TRUE(mgr.resident(2));
    EXPECT_EQ(mgr.growRoom(b), 64u);
    mgr.release(b);
    EXPECT_EQ(mgr.numResident(), 0u);
}

TEST(KvManager, MruOrderTracksReleases)
{
    // The intrusive MRU list must keep admission order even as
    // residents leave: after releasing the most recent sequence, the
    // next eviction victim is the previous tail.
    BlockKvManager mgr(kvModel(), pool(4, 1, 3), pool(4, 1, 3, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    ASSERT_TRUE(mgr.admit(2, 64).ok);
    ASSERT_TRUE(mgr.admit(3, 64).ok);
    mgr.release(3); // tail leaves voluntarily
    // Pool: 1 block free per core. Admitting a 3-block sequence
    // forces evictions: victim order must be 2 (new tail), then 1.
    const KvResult r = mgr.admit(9, 300);
    EXPECT_TRUE(r.ok);
    ASSERT_EQ(r.evicted.size(), 2u);
    EXPECT_EQ(r.evicted[0], 2u);
    EXPECT_EQ(r.evicted[1], 1u);
}

TEST(KvManager, DropCoreInvalidatesHandles)
{
    // Mid-run pool shrink (PR 9): a resident whose KV lived on the
    // dropped core is released, and its handle goes stale - using it
    // afterwards is a checked error, not silent corruption. Handles
    // of surviving residents stay live.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    const KvHandle victim = mgr.admitNoEvictHandle(1, 64);
    const KvHandle survivor = mgr.admitNoEvictHandle(2, 64);
    ASSERT_TRUE(victim.valid() && survivor.valid());
    // 8 cores, 4 heads: seq 1 occupies score cores 0-3, seq 2 cores
    // 4-7, so dropping seq 1's head-0 core only evicts seq 1.
    const auto hp = mgr.headPlacement(1, 0);
    const auto lost = mgr.dropCore(mgr.scoreCoord(hp.scoreCore));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0], 1u);
    EXPECT_TRUE(mgr.resident(2));
    EXPECT_EQ(mgr.growRoom(survivor), 64u);
    EXPECT_DEATH({ mgr.growRoom(victim); },
                 "stale or invalid KvHandle");
    EXPECT_DEATH({ mgr.grow(victim); }, "stale or invalid KvHandle");
    EXPECT_DEATH({ mgr.release(victim); },
                 "stale or invalid KvHandle");
}

TEST(KvManager, AdoptCoreGrowsCapacity)
{
    // adoptCore grafts an empty core behind the ring cursor: the
    // capacity is immediately visible in totalBlocks() and becomes
    // allocatable once the cursor wraps to it.
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 4, 8, 1),
                       128, 0.0);
    // Score side: 4 cores x 1 xbar x 2 blocks. One 128-token seq
    // takes 1 block per head on each of the 4 cores.
    ASSERT_TRUE(mgr.admit(1, 128).ok);
    ASSERT_TRUE(mgr.admit(2, 128).ok);
    const auto total_before = mgr.totalBlocks();
    // Score ring is now full: a third admission would evict. Graft
    // one core per head (head placement probes at most one head per
    // ring pass onto a given core, so a single graft cannot host a
    // whole sequence while the rest of the ring is full).
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::uint32_t idx =
            mgr.adoptCore({{0, 100 + i}, 4, 8}, true);
        EXPECT_EQ(idx, 4u + i);
        EXPECT_EQ(mgr.scoreCoord(idx), (CoreCoord{0, 100 + i}));
    }
    EXPECT_EQ(mgr.totalBlocks(), total_before + 4u * 4u * 8u);
    // The grafted cores absorb the next admission without eviction.
    const KvResult r = mgr.admit(3, 128);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.evicted.empty());
    EXPECT_TRUE(mgr.resident(1) && mgr.resident(2));
}

TEST(KvManager, AdoptCoreReAdoptsFencedCoord)
{
    // Drop then re-adopt the same coordinate: the fenced entry stays
    // inert and the fresh entry carries the capacity.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64).ok);
    const CoreCoord coord =
        mgr.scoreCoord(mgr.headPlacement(1, 0).scoreCore);
    const auto total_before = mgr.totalBlocks();
    mgr.dropCore(coord);
    EXPECT_LT(mgr.totalBlocks(), total_before);
    mgr.adoptCore({coord, 4, 8}, true);
    EXPECT_EQ(mgr.totalBlocks(), total_before);
    // Pool still serves admissions with the re-grafted core present.
    EXPECT_TRUE(mgr.admit(2, 64).ok);
}

TEST(KvManager, AdoptCoreRejectsLiveDuplicate)
{
    // Grafting a coordinate that still holds live capacity in the
    // pool is a checked error (it would double-count blocks).
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    EXPECT_DEATH({ mgr.adoptCore({{0, 0}, 4, 8}, true); },
                 "already live in the pool");
    EXPECT_DEATH({ mgr.adoptCore({{1, 2}, 4, 8}, false); },
                 "already live in the pool");
}

/** Everything observable about @p mgr, placements of @p ids
 *  included: two managers in lockstep must agree on all of it. */
std::vector<std::uint64_t>
kvView(const BlockKvManager &mgr, const std::vector<std::uint64_t> &ids)
{
    std::vector<std::uint64_t> view = {
        mgr.usedBlocks(),      mgr.totalBlocks(), mgr.evictionCount(),
        mgr.admissionCount(), mgr.vSpills(),     mgr.numResident()};
    for (const std::uint64_t id : ids) {
        for (std::uint32_t h = 0; h < 4; ++h) {
            const HeadPlacement p = mgr.headPlacement(id, h);
            view.push_back(p.scoreCore);
            view.push_back(p.contextCore);
        }
    }
    return view;
}

TEST(KvAdmissionMemo, LockstepTwinsIgnoreExtraFailedAdmissions)
{
    // Three managers take one random op sequence. `b` also gets extra
    // admissions that fail - repeats of a failed need under fresh
    // ids, and oversized requests - which must leave every later
    // result unchanged. `c` skips the sequence's failed admissions
    // (its evicting admits always end in success), so it never holds
    // a current memoized failure: a copy of it makes a fresh, full
    // admission plan over the same pool state, and every failure `a`
    // reports (memoized or not) must match that plan.
    const ModelConfig cfg = kvModel();
    const std::vector<KvCoreInfo> score = pool(8, 4, 8, 0);
    const std::vector<KvCoreInfo> context = pool(8, 2, 8, 1);
    BlockKvManager a(cfg, score, context);
    BlockKvManager b(cfg, score, context);
    BlockKvManager c(cfg, score, context);

    // Live (not yet dropped) core coordinates per ring. dropCore
    // keeps at least one per head, so an emptied pool fits any
    // request below and the evicting admit() always succeeds.
    std::vector<CoreCoord> live_score, live_context;
    for (const KvCoreInfo &info : score)
        live_score.push_back(info.coord);
    for (const KvCoreInfo &info : context)
        live_context.push_back(info.coord);

    const std::vector<std::uint64_t> tokens_choices = {1,   64,  128,
                                                       129, 256, 300};
    Rng rng(20261017);
    std::vector<std::uint64_t> live;
    std::uint64_t next_id = 1;
    std::uint64_t extra_id = std::uint64_t{1} << 40;
    std::uint32_t next_col = 100;
    std::uint64_t failures = 0;
    std::uint64_t repeats = 0; // failures with no capacity change since
    std::uint64_t last_failed_need = 0; // 0: capacity changed since

    const auto pick = [&](const auto &v) {
        return v[rng.uniformInt(0, v.size() - 1)];
    };
    const auto forget = [&](const std::vector<std::uint64_t> &gone) {
        for (const std::uint64_t id : gone)
            live.erase(std::find(live.begin(), live.end(), id));
    };
    const auto same_result = [](const KvResult &x, const KvResult &y) {
        return x.ok == y.ok && x.evicted == y.evicted;
    };

    for (int step = 0; step < 4000 && !HasFailure(); ++step) {
        const std::uint64_t roll = rng.uniformInt(0, 99);
        if (roll < 40 || live.empty()) {
            const std::uint64_t tokens = pick(tokens_choices);
            const std::uint64_t id = next_id++;
            const KvHandle ha = a.admitNoEvictHandle(id, tokens);
            EXPECT_EQ(ha, b.admitNoEvictHandle(id, tokens));
            if (ha.valid()) {
                EXPECT_EQ(ha, c.admitNoEvictHandle(id, tokens));
                live.push_back(id);
                last_failed_need = 0;
            } else {
                const std::uint64_t need = (tokens + 127) / 128;
                ++failures;
                repeats += need == last_failed_need;
                last_failed_need = need;
                BlockKvManager fresh = c;
                EXPECT_FALSE(fresh.admitNoEvictHandle(id, tokens).valid());
                for (auto n = rng.uniformInt(1, 3); n > 0; --n) {
                    EXPECT_FALSE(b.admitNoEvictHandle(extra_id++, tokens)
                                         .valid());
                }
            }
        } else if (roll < 45) {
            const std::uint64_t tokens = pick(tokens_choices);
            const std::uint64_t id = next_id++;
            const KvResult ra = a.admit(id, tokens);
            ASSERT_TRUE(ra.ok);
            EXPECT_TRUE(same_result(ra, b.admit(id, tokens)));
            EXPECT_TRUE(same_result(ra, c.admit(id, tokens)));
            forget(ra.evicted);
            live.push_back(id);
            last_failed_need = 0;
        } else if (roll < 70) {
            const std::uint64_t id = pick(live);
            const KvResult ra = a.grow(a.handleOf(id));
            EXPECT_TRUE(same_result(ra, b.grow(id)));
            EXPECT_TRUE(same_result(ra, c.grow(id)));
            forget(ra.evicted);
            if (!ra.evicted.empty())
                last_failed_need = 0;
            if (!ra.ok) {
                // The engine's answer to a lone grower: release it.
                a.release(id);
                b.release(id);
                c.release(id);
                forget({id});
                last_failed_need = 0;
            }
        } else if (roll < 80) {
            const std::uint64_t id = pick(live);
            const std::uint64_t room = a.growRoom(id);
            EXPECT_EQ(room, b.growRoom(id));
            EXPECT_EQ(room, c.growRoom(id));
            if (room > 0) {
                const std::uint64_t n = rng.uniformInt(1, room);
                a.growFast(id, n);
                b.growFast(b.handleOf(id), n);
                c.growFast(id, n);
            }
        } else if (roll < 92) {
            const std::uint64_t id = pick(live);
            a.release(a.handleOf(id));
            b.release(id);
            c.release(id);
            forget({id});
            last_failed_need = 0;
        } else if (roll < 95) {
            auto &ring = rng.uniformInt(0, 1) ? live_score : live_context;
            if (ring.size() <= cfg.numKvHeads)
                continue;
            const std::size_t at = rng.uniformInt(0, ring.size() - 1);
            const CoreCoord coord = ring[at];
            ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(at));
            const std::vector<std::uint64_t> lost = a.dropCore(coord);
            EXPECT_EQ(lost, b.dropCore(coord));
            EXPECT_EQ(lost, c.dropCore(coord));
            forget(lost);
            if (!lost.empty())
                last_failed_need = 0;
        } else if (roll < 97) {
            const bool duty = rng.uniformInt(0, 1) == 1;
            const KvCoreInfo info{{duty ? 0u : 1u, next_col++},
                                  duty ? 4u : 2u, 8};
            const std::uint32_t index = a.adoptCore(info, duty);
            EXPECT_EQ(index, b.adoptCore(info, duty));
            EXPECT_EQ(index, c.adoptCore(info, duty));
            (duty ? live_score : live_context).push_back(info.coord);
            last_failed_need = 0;
        } else {
            // An oversized request fails on every pool state; on `b`
            // alone it also replaces the memoized need.
            EXPECT_FALSE(b.admitNoEvictHandle(extra_id++, 1u << 16)
                                 .valid());
        }
        const std::vector<std::uint64_t> view = kvView(a, live);
        EXPECT_EQ(view, kvView(b, live)) << "step " << step;
        EXPECT_EQ(view, kvView(c, live)) << "step " << step;
    }
    // The sequence must actually saturate the pool and retry failed
    // needs with no capacity change in between (the memo's case).
    EXPECT_GT(failures, 200u);
    EXPECT_GT(repeats, 100u);
    EXPECT_GT(a.evictionCount(), 0u);
    EXPECT_GT(a.vSpills(), 0u);
}

/** Property: admit/release round-trips leave zero residue. */
class KvRoundTripTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KvRoundTripTest, NoLeakedBlocks)
{
    BlockKvManager mgr(kvModel(), pool(6), pool(6, 4, 8, 1));
    const std::uint64_t tokens = GetParam();
    ASSERT_TRUE(mgr.admit(1, tokens).ok);
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(mgr.grow(1).ok);
    mgr.release(1);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TokenSweep, KvRoundTripTest,
                         ::testing::Values(1, 64, 127, 128, 129, 500,
                                           1000));

} // namespace
} // namespace ouro
