#include "problem.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ouro
{

namespace
{

/** Split @p dim into @p parts near-equal slices; bounds of part p. */
std::uint64_t
partLo(std::uint64_t dim, std::uint32_t parts, std::uint32_t p)
{
    return dim * p / parts;
}

std::uint64_t
partHi(std::uint64_t dim, std::uint32_t parts, std::uint32_t p)
{
    return dim * (p + 1) / parts;
}

} // namespace

std::uint64_t
LayerSpec::inPartLo(std::uint32_t i) const
{
    return partLo(inDim, inSplits, i);
}

std::uint64_t
LayerSpec::inPartHi(std::uint32_t i) const
{
    return partHi(inDim, inSplits, i);
}

std::uint64_t
LayerSpec::outPartLo(std::uint32_t o) const
{
    return partLo(outDim, outSplits, o);
}

std::uint64_t
LayerSpec::outPartHi(std::uint32_t o) const
{
    return partHi(outDim, outSplits, o);
}

Bytes
LayerSpec::outputVolume(std::uint32_t o) const
{
    return outPartHi(o) - outPartLo(o); // 1 byte per activation
}

Bytes
LayerSpec::reductionVolume(std::uint32_t o) const
{
    return 4 * (outPartHi(o) - outPartLo(o)); // 32-bit partial sums
}

Bytes
LayerSpec::gatherVolume(std::uint32_t o) const
{
    return outPartHi(o) - outPartLo(o); // requantised 8-bit slices
}

std::vector<LayerSpec>
tileBlockLayers(const ModelConfig &model, const CoreParams &core_params)
{
    const auto &xp = core_params.crossbar;
    const std::uint64_t max_rows = xp.rows;
    const std::uint64_t max_cols =
        static_cast<std::uint64_t>(core_params.numCrossbars) *
        (xp.cols / xp.weightBits);

    std::vector<LayerSpec> specs;
    for (const auto &layer : model.blockLayers()) {
        LayerSpec spec;
        spec.name = layer.name;
        spec.inDim = layer.inDim;
        spec.outDim = layer.outDim;
        spec.inSplits = static_cast<std::uint32_t>(
                ceilDiv(layer.inDim, max_rows));
        spec.outSplits = static_cast<std::uint32_t>(
                ceilDiv(layer.outDim, max_cols));
        specs.push_back(spec);
    }
    return specs;
}

std::uint32_t
coresPerBlock(const ModelConfig &model, const CoreParams &core_params)
{
    std::uint32_t total = 0;
    for (const auto &spec : tileBlockLayers(model, core_params))
        total += spec.numTiles();
    return total;
}

MappingProblem::MappingProblem(const ModelConfig &model,
                               const CoreParams &core_params,
                               const WaferGeometry &geom,
                               std::vector<CoreCoord> candidate_cores,
                               double cost_inter,
                               const DefectMap *defects,
                               bool precompute_distance_table)
    : MappingProblem(model, core_params, geom,
                     std::move(candidate_cores), cost_inter, defects,
                     MappingEngineOptions{precompute_distance_table,
                                          1024, false})
{
}

MappingProblem::MappingProblem(const ModelConfig &model,
                               const CoreParams &core_params,
                               const WaferGeometry &geom,
                               std::vector<CoreCoord> candidate_cores,
                               double cost_inter,
                               const DefectMap *defects,
                               const MappingEngineOptions &engine)
    : layers_(tileBlockLayers(model, core_params)),
      candidates_(std::move(candidate_cores)), geom_(geom),
      costInter_(cost_inter), defects_(defects), engine_(engine)
{
    for (std::uint32_t l = 0; l < layers_.size(); ++l) {
        for (std::uint32_t o = 0; o < layers_[l].outSplits; ++o) {
            for (std::uint32_t i = 0; i < layers_[l].inSplits; ++i)
                tiles_.push_back({l, i, o});
        }
    }
    std::uint32_t usable = 0;
    for (std::size_t r = 0; r < candidates_.size(); ++r)
        usable += candidateUsable(r) ? 1 : 0;
    ouroAssert(usable >= tiles_.size(),
               "MappingProblem: region has ", usable,
               " usable cores but the block needs ", tiles_.size());

    buildFlowGraph();
    if (engine_.precomputeDistanceTable &&
        candidates_.size() <= engine_.distanceTableMaxCandidates)
        buildDistanceTable();
}

MappingProblem
MappingProblem::congruentTranslate(
        std::vector<CoreCoord> candidate_cores,
        bool precompute_distance_table) const
{
    ouroAssert(candidate_cores.size() == candidates_.size(),
               "congruentTranslate: region of ",
               candidate_cores.size(), " cores is not congruent to ",
               candidates_.size());
    // Field-wise clone instead of a copy construction: the template
    // may hold the O(C^2) distance/penalty tables (the annealed
    // region 0 does), and copying megabytes of table only to drop
    // them per translated region would defeat the fast path.
    MappingProblem translated;
    translated.layers_ = layers_;
    translated.tiles_ = tiles_;
    translated.candidates_ = std::move(candidate_cores);
    translated.geom_ = geom_;
    translated.costInter_ = costInter_;
    // Congruent regions are defect-free slices by construction (the
    // caller filtered defective cores out of the candidate order), so
    // the translated instance carries no defect map - the same way
    // WaferMapping's per-block rebuild constructs its instances.
    translated.defects_ = nullptr;
    // The flow CSR depends only on the tiling, which congruent
    // regions share by definition - so the immutable CSR is shared
    // behind its shared_ptr, making the translate O(1) in flow size.
    translated.flow_ = flow_;
    // The engine contract (fused vs exact, table cutoff) travels with
    // the translation; only table residency is per-instance.
    translated.engine_ = engine_;
    translated.engine_.precomputeDistanceTable =
        precompute_distance_table;
    if (precompute_distance_table &&
        translated.candidates_.size() <=
                engine_.distanceTableMaxCandidates)
        translated.buildDistanceTable();
    return translated;
}

Bytes
MappingProblem::flowBetween(std::size_t a, std::size_t b) const
{
    ouroAssert(a < tiles_.size() && b < tiles_.size() && a != b,
               "flowBetween: bad tile pair");
    const Tile &ta = tiles_[a];
    const Tile &tb = tiles_[b];
    const LayerSpec &la = layers_[ta.layer];
    const LayerSpec &lb = layers_[tb.layer];
    Bytes bytes = 0;

    // Mirrors pairCost()'s flow terms exactly; at most one fires for
    // any pair, so summing them is safe.
    if (ta.layer + 1 == tb.layer && ta.inSplit == la.inSplits - 1) {
        bytes += overlap(
                la.outPartLo(ta.outSplit), la.outPartHi(ta.outSplit),
                lb.inPartLo(tb.inSplit), lb.inPartHi(tb.inSplit));
    }
    if (tb.layer + 1 == ta.layer && tb.inSplit == lb.inSplits - 1) {
        bytes += overlap(
                lb.outPartLo(tb.outSplit), lb.outPartHi(tb.outSplit),
                la.inPartLo(ta.inSplit), la.inPartHi(ta.inSplit));
    }
    if (ta.layer == tb.layer) {
        const LayerSpec &layer = la;
        if (ta.outSplit == tb.outSplit) {
            const bool a_sends = ta.inSplit != layer.inSplits - 1 &&
                                 tb.inSplit == layer.inSplits - 1;
            const bool b_sends = tb.inSplit != layer.inSplits - 1 &&
                                 ta.inSplit == layer.inSplits - 1;
            if (a_sends || b_sends)
                bytes += layer.reductionVolume(ta.outSplit);
        }
        if (ta.outSplit != tb.outSplit &&
            ta.inSplit == layer.inSplits - 1 &&
            tb.inSplit == layer.inSplits - 1) {
            // Directed: prices the FIRST tile's slice (pairCost takes
            // a.outSplit), so F(a->b) and F(b->a) can differ when the
            // last split part is smaller.
            bytes += layer.gatherVolume(ta.outSplit);
        }
    }
    return bytes;
}

void
MappingProblem::buildFlowGraph()
{
    const std::size_t n = tiles_.size();
    FlowCsr csr;
    csr.offsets.assign(n + 1, 0);
    csr.upper.assign(n, 0);

    // Single triangle scan, two flowBetween() evaluations per pair.
    // Appending partner b to row a while the outer index ascends (and
    // a to row b from earlier outer iterations) leaves every row in
    // ascending partner order - the canonical order that makes the
    // sparse sums bit-identical to the dense loops.
    struct FlowEntry
    {
        std::uint32_t partner;
        double bytes;
    };
    std::vector<std::vector<FlowEntry>> rows(n);
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            const Bytes ab = flowBetween(a, b);
            const Bytes ba = flowBetween(b, a);
            if (ab == 0 && ba == 0)
                continue;
            rows[a].push_back({static_cast<std::uint32_t>(b),
                               static_cast<double>(ab)});
            rows[b].push_back({static_cast<std::uint32_t>(a),
                               static_cast<double>(ba)});
        }
    }

    for (std::size_t t = 0; t < n; ++t)
        csr.offsets[t + 1] =
            csr.offsets[t] +
            static_cast<std::uint32_t>(rows[t].size());
    csr.partner.resize(csr.offsets[n]);
    csr.bytes.resize(csr.offsets[n]);
    for (std::size_t t = 0; t < n; ++t) {
        std::uint32_t k = csr.offsets[t];
        csr.upper[t] = k;
        for (const FlowEntry &entry : rows[t]) {
            csr.partner[k] = entry.partner;
            csr.bytes[k] = entry.bytes;
            if (entry.partner < t)
                csr.upper[t] = k + 1;
            ++k;
        }
    }
    flow_ = std::make_shared<const FlowCsr>(std::move(csr));
}

void
MappingProblem::buildDistanceTable()
{
    const std::size_t c = candidates_.size();
    // Each candidate's die, once: the c^2 loops below compare these
    // instead of re-deriving both dies per pair through penalty(),
    // which is the same sameDie ? 1.0 : costInter_ choice.
    std::vector<DieCoord> dies(c);
    for (std::size_t a = 0; a < c; ++a)
        dies[a] = geom_.dieOf(candidates_[a]);
    const auto pen = [&](std::size_t a, std::size_t b) {
        return dies[a] == dies[b] ? 1.0 : costInter_;
    };
    if (engine_.fusedCost) {
        // Fused engine: ONE row-major dist*pen product table - half
        // the table bytes the exact engine streams per term. Each
        // entry is the same (dist * pen) product slotFused()'s
        // on-the-fly branch computes, so table and on-the-fly fused
        // paths are bit-identical.
        fusedTable_.resize(c * c);
        for (std::size_t a = 0; a < c; ++a) {
            for (std::size_t b = 0; b < c; ++b) {
                fusedTable_[a * c + b] =
                    geom_.manhattan(candidates_[a], candidates_[b]) *
                    pen(a, b);
            }
        }
        hasFusedTable_ = true;
        return;
    }
    distTable_.resize(c * c);
    penTable_.resize(c * c);
    for (std::size_t a = 0; a < c; ++a) {
        for (std::size_t b = 0; b < c; ++b) {
            distTable_[a * c + b] =
                geom_.manhattan(candidates_[a], candidates_[b]);
            penTable_[a * c + b] = pen(a, b);
        }
    }
    hasTable_ = true;
}

bool
MappingProblem::candidateUsable(std::size_t r) const
{
    ouroAssert(r < candidates_.size(), "candidateUsable: bad index");
    return !defects_ || !defects_->defective(candidates_[r]);
}

double
MappingProblem::penalty(CoreCoord a, CoreCoord b) const
{
    return geom_.sameDie(a, b) ? 1.0 : costInter_;
}

std::uint64_t
MappingProblem::overlap(std::uint64_t lo1, std::uint64_t hi1,
                        std::uint64_t lo2, std::uint64_t hi2)
{
    const std::uint64_t lo = std::max(lo1, lo2);
    const std::uint64_t hi = std::min(hi1, hi2);
    return hi > lo ? hi - lo : 0;
}

double
MappingProblem::pairCost(const Tile &a, CoreCoord ca, const Tile &b,
                         CoreCoord cb) const
{
    const double dist = geom_.manhattan(ca, cb);
    if (dist == 0.0)
        return 0.0;
    const double pen = penalty(ca, cb);
    double cost = 0.0;

    const LayerSpec &la = layers_[a.layer];
    const LayerSpec &lb = layers_[b.layer];

    // Inter-layer activation flow: a's output part overlaps b's input
    // part in channel space. Only the final input split of a (the
    // reducer, which owns the complete output slice) forwards
    // activations.
    if (a.layer + 1 == b.layer && a.inSplit == la.inSplits - 1) {
        const std::uint64_t bytes = overlap(
                la.outPartLo(a.outSplit), la.outPartHi(a.outSplit),
                lb.inPartLo(b.inSplit), lb.inPartHi(b.inSplit));
        cost += dist * static_cast<double>(bytes) * pen;
    }
    if (b.layer + 1 == a.layer && b.inSplit == lb.inSplits - 1) {
        const std::uint64_t bytes = overlap(
                lb.outPartLo(b.outSplit), lb.outPartHi(b.outSplit),
                la.inPartLo(a.inSplit), la.inPartHi(a.inSplit));
        cost += dist * static_cast<double>(bytes) * pen;
    }

    if (a.layer == b.layer) {
        const LayerSpec &layer = la;
        // Intra-layer reduction: non-final input splits stream 32-bit
        // partial sums to the final split of the same output part.
        if (a.outSplit == b.outSplit) {
            const bool a_sends = a.inSplit != layer.inSplits - 1 &&
                                 b.inSplit == layer.inSplits - 1;
            const bool b_sends = b.inSplit != layer.inSplits - 1 &&
                                 a.inSplit == layer.inSplits - 1;
            if (a_sends || b_sends) {
                cost += dist * static_cast<double>(
                        layer.reductionVolume(a.outSplit)) * pen;
            }
        }
        // Gather between reducer tiles of different output parts.
        if (a.outSplit != b.outSplit &&
            a.inSplit == layer.inSplits - 1 &&
            b.inSplit == layer.inSplits - 1) {
            cost += dist * static_cast<double>(
                    layer.gatherVolume(a.outSplit)) * pen;
        }
    }
    return cost;
}

double
MappingProblem::assignmentCost(
        const std::vector<std::uint32_t> &assignment) const
{
    ouroAssert(assignment.size() == tiles_.size(),
               "assignmentCost: wrong assignment size");
    // Sparse upper-triangle walk. The dense reference visits pairs
    // (a, b > a) in ascending order; skipped pairs contribute exactly
    // +0.0 there, so this sum is bit-identical.
    double total = 0.0;
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    if (engine_.fusedCost) {
        // Epsilon-exact tier: one fused (dist*pen) gather per term,
        // reassociating ((dist*bytes)*pen) -> ((dist*pen)*bytes).
        // Summation order is unchanged (same ascending walk), so the
        // result stays deterministic and within kFusedRelBound of the
        // exact engine per the contract in problem.hh.
        for (std::size_t a = 0; a < tiles_.size(); ++a) {
            const std::uint32_t sa = assignment[a];
            for (std::uint32_t k = flow_->upper[a];
                 k < flow_->offsets[a + 1]; ++k) {
                const std::uint32_t sb = assignment[partner[k]];
                total += slotFused(sa, sb) * bytes[k];
            }
        }
        return total;
    }
    for (std::size_t a = 0; a < tiles_.size(); ++a) {
        const std::uint32_t sa = assignment[a];
        for (std::uint32_t k = flow_->upper[a];
             k < flow_->offsets[a + 1]; ++k) {
            const std::uint32_t sb = assignment[partner[k]];
            total += slotDist(sa, sb) * bytes[k] * slotPen(sa, sb);
        }
    }
    return total;
}

double
MappingProblem::assignmentCostDense(
        const std::vector<std::uint32_t> &assignment) const
{
    ouroAssert(assignment.size() == tiles_.size(),
               "assignmentCostDense: wrong assignment size");
    double total = 0.0;
    for (std::size_t a = 0; a < tiles_.size(); ++a) {
        const CoreCoord ca = candidates_[assignment[a]];
        for (std::size_t b = a + 1; b < tiles_.size(); ++b) {
            total += pairCost(tiles_[a], ca, tiles_[b],
                              candidates_[assignment[b]]);
        }
    }
    return total;
}

double
MappingProblem::moveDelta(const std::vector<std::uint32_t> &assignment,
                          std::size_t t, std::uint32_t new_slot) const
{
    ouroAssert(t < tiles_.size(), "moveDelta: bad tile index");
    const std::uint32_t old_slot = assignment[t];
    double delta = 0.0;
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    if (engine_.fusedCost) {
        for (std::uint32_t k = flow_->offsets[t];
             k < flow_->offsets[t + 1]; ++k) {
            const std::uint32_t sb = assignment[partner[k]];
            delta += slotFused(new_slot, sb) * bytes[k] -
                     slotFused(old_slot, sb) * bytes[k];
        }
        return delta;
    }
    for (std::uint32_t k = flow_->offsets[t];
         k < flow_->offsets[t + 1]; ++k) {
        const std::uint32_t sb = assignment[partner[k]];
        delta += slotDist(new_slot, sb) * bytes[k] *
                         slotPen(new_slot, sb) -
                 slotDist(old_slot, sb) * bytes[k] *
                         slotPen(old_slot, sb);
    }
    return delta;
}

double
MappingProblem::moveDeltaDense(
        const std::vector<std::uint32_t> &assignment, std::size_t t,
        std::uint32_t new_slot) const
{
    ouroAssert(t < tiles_.size(), "moveDeltaDense: bad tile index");
    const CoreCoord old_core = candidates_[assignment[t]];
    const CoreCoord new_core = candidates_[new_slot];
    double delta = 0.0;
    for (std::size_t b = 0; b < tiles_.size(); ++b) {
        if (b == t)
            continue;
        const CoreCoord cb = candidates_[assignment[b]];
        delta += pairCost(tiles_[t], new_core, tiles_[b], cb) -
                 pairCost(tiles_[t], old_core, tiles_[b], cb);
    }
    return delta;
}

void
MappingProblem::moveDeltaBatch(
        const std::vector<std::uint32_t> &assignment, std::size_t t,
        const std::uint32_t *slots, std::size_t count,
        MoveScratch &scratch, double *deltas) const
{
    ouroAssert(t < tiles_.size(), "moveDeltaBatch: bad tile index");
    const std::uint32_t old_slot = assignment[t];
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    const std::uint32_t k0 = flow_->offsets[t];
    const std::size_t deg = flow_->offsets[t + 1] - k0;
    const std::size_t c = candidates_.size();

    // Gather the tile's partner slots and per-flow bytes into SoA
    // scratch ONCE, and price the old-slot terms once - they are
    // shared by every candidate. Hoisting the old term changes no
    // rounding: each candidate pass still evaluates
    //     delta += (new term) - (old term)
    // with exactly the operand values and accumulation order of the
    // scalar moveDelta, so deltas[i] is bit-identical to
    // moveDelta(assignment, t, slots[i]) on both engines.
    scratch.partnerSlot.resize(deg);
    scratch.bytes.resize(deg);
    scratch.oldTerm.resize(deg);
    std::uint32_t *psl = scratch.partnerSlot.data();
    double *byt = scratch.bytes.data();
    double *old_term = scratch.oldTerm.data();
    if (engine_.fusedCost) {
        for (std::size_t j = 0; j < deg; ++j) {
            const std::uint32_t sb = assignment[partner[k0 + j]];
            psl[j] = sb;
            byt[j] = bytes[k0 + j];
            old_term[j] = slotFused(old_slot, sb) * byt[j];
        }
        if (hasFusedTable_) {
            // Hot path: one contiguous table row per candidate,
            // streamed against the SoA scratch in a single pass the
            // compiler can vectorize.
            for (std::size_t i = 0; i < count; ++i) {
                const double *row =
                    fusedTable_.data() +
                    static_cast<std::size_t>(slots[i]) * c;
                double d = 0.0;
                for (std::size_t j = 0; j < deg; ++j)
                    d += row[psl[j]] * byt[j] - old_term[j];
                deltas[i] = d;
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                const std::uint32_t ns = slots[i];
                double d = 0.0;
                for (std::size_t j = 0; j < deg; ++j)
                    d += slotFused(ns, psl[j]) * byt[j] -
                         old_term[j];
                deltas[i] = d;
            }
        }
        return;
    }
    for (std::size_t j = 0; j < deg; ++j) {
        const std::uint32_t sb = assignment[partner[k0 + j]];
        psl[j] = sb;
        byt[j] = bytes[k0 + j];
        old_term[j] =
            slotDist(old_slot, sb) * byt[j] * slotPen(old_slot, sb);
    }
    if (hasTable_) {
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t base =
                static_cast<std::size_t>(slots[i]) * c;
            const double *drow = distTable_.data() + base;
            const double *prow = penTable_.data() + base;
            double d = 0.0;
            for (std::size_t j = 0; j < deg; ++j)
                d += drow[psl[j]] * byt[j] * prow[psl[j]] -
                     old_term[j];
            deltas[i] = d;
        }
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint32_t ns = slots[i];
            double d = 0.0;
            for (std::size_t j = 0; j < deg; ++j)
                d += slotDist(ns, psl[j]) * byt[j] *
                             slotPen(ns, psl[j]) -
                     old_term[j];
            deltas[i] = d;
        }
    }
}

std::vector<double>
MappingProblem::moveDeltaBatch(
        const std::vector<std::uint32_t> &assignment, std::size_t t,
        const std::vector<std::uint32_t> &slots) const
{
    MoveScratch scratch;
    std::vector<double> deltas(slots.size());
    moveDeltaBatch(assignment, t, slots.data(), slots.size(), scratch,
                   deltas.data());
    return deltas;
}

double
MappingProblem::swapDelta(const std::vector<std::uint32_t> &assignment,
                          std::size_t t1, std::size_t t2) const
{
    ouroAssert(t1 < tiles_.size() && t2 < tiles_.size() && t1 != t2,
               "swapDelta: bad tile pair");
    const std::uint32_t s1 = assignment[t1];
    const std::uint32_t s2 = assignment[t2];
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();

    // Merge the two adjacency rows in ascending partner order - the
    // same order the dense reference visits its nonzero terms in - and
    // evaluate each partner's contribution with the dense expression.
    // Partners equal to t1/t2 are skipped here; the dense loop's
    // closing (t1,t2) correction term is exactly +0.0 (same distance
    // and penalty on both sides of the swap), so dropping it keeps the
    // result bit-identical.
    std::uint32_t i = flow_->offsets[t1];
    const std::uint32_t i_end = flow_->offsets[t1 + 1];
    std::uint32_t j = flow_->offsets[t2];
    const std::uint32_t j_end = flow_->offsets[t2 + 1];
    const std::uint32_t u1 = static_cast<std::uint32_t>(t1);
    const std::uint32_t u2 = static_cast<std::uint32_t>(t2);

    double delta = 0.0;
    if (engine_.fusedCost) {
        // Same merge walk, fused (dist*pen) gathers - identical term
        // visit order, so the epsilon contract's fixed summation
        // order holds here too.
        while (i < i_end || j < j_end) {
            const std::uint32_t b1 =
                i < i_end ? partner[i] : UINT32_MAX;
            const std::uint32_t b2 =
                j < j_end ? partner[j] : UINT32_MAX;
            if (b1 < b2) {
                if (b1 != u2) {
                    const std::uint32_t sb = assignment[b1];
                    const double f1 = bytes[i];
                    delta += slotFused(s2, sb) * f1 -
                             slotFused(s1, sb) * f1;
                }
                ++i;
            } else if (b2 < b1) {
                if (b2 != u1) {
                    const std::uint32_t sb = assignment[b2];
                    const double f2 = bytes[j];
                    delta += slotFused(s1, sb) * f2 -
                             slotFused(s2, sb) * f2;
                }
                ++j;
            } else {
                const std::uint32_t sb = assignment[b1];
                const double f1 = bytes[i];
                const double f2 = bytes[j];
                delta += slotFused(s2, sb) * f1 -
                         slotFused(s1, sb) * f1 +
                         slotFused(s1, sb) * f2 -
                         slotFused(s2, sb) * f2;
                ++i;
                ++j;
            }
        }
        return delta;
    }
    while (i < i_end || j < j_end) {
        const std::uint32_t b1 =
            i < i_end ? partner[i] : UINT32_MAX;
        const std::uint32_t b2 =
            j < j_end ? partner[j] : UINT32_MAX;
        if (b1 < b2) {
            if (b1 != u2) {
                const std::uint32_t sb = assignment[b1];
                const double f1 = bytes[i];
                delta += slotDist(s2, sb) * f1 * slotPen(s2, sb) -
                         slotDist(s1, sb) * f1 * slotPen(s1, sb);
            }
            ++i;
        } else if (b2 < b1) {
            if (b2 != u1) {
                const std::uint32_t sb = assignment[b2];
                const double f2 = bytes[j];
                delta += slotDist(s1, sb) * f2 * slotPen(s1, sb) -
                         slotDist(s2, sb) * f2 * slotPen(s2, sb);
            }
            ++j;
        } else {
            const std::uint32_t sb = assignment[b1];
            const double f1 = bytes[i];
            const double f2 = bytes[j];
            delta += slotDist(s2, sb) * f1 * slotPen(s2, sb) -
                     slotDist(s1, sb) * f1 * slotPen(s1, sb) +
                     slotDist(s1, sb) * f2 * slotPen(s1, sb) -
                     slotDist(s2, sb) * f2 * slotPen(s2, sb);
            ++i;
            ++j;
        }
    }
    return delta;
}

double
MappingProblem::swapDeltaDense(
        const std::vector<std::uint32_t> &assignment, std::size_t t1,
        std::size_t t2) const
{
    // Replica of the annealer's historical inline swap loop.
    ouroAssert(t1 < tiles_.size() && t2 < tiles_.size() && t1 != t2,
               "swapDeltaDense: bad tile pair");
    const CoreCoord c1 = candidates_[assignment[t1]];
    const CoreCoord c2 = candidates_[assignment[t2]];
    double delta = 0.0;
    for (std::size_t b = 0; b < tiles_.size(); ++b) {
        if (b == t1 || b == t2)
            continue;
        const CoreCoord cb = candidates_[assignment[b]];
        delta += pairCost(tiles_[t1], c2, tiles_[b], cb)
               - pairCost(tiles_[t1], c1, tiles_[b], cb)
               + pairCost(tiles_[t2], c1, tiles_[b], cb)
               - pairCost(tiles_[t2], c2, tiles_[b], cb);
    }
    delta += pairCost(tiles_[t1], c2, tiles_[t2], c1) -
             pairCost(tiles_[t1], c1, tiles_[t2], c2);
    return delta;
}

double
MappingProblem::partialCost(
        const std::vector<std::uint32_t> &assignment, std::size_t t,
        std::uint32_t slot) const
{
    ouroAssert(t < tiles_.size(), "partialCost: bad tile index");
    // Partners below t in ascending order: the dense reference scans
    // b = 0..t-1 with tile t as pairCost's first argument.
    double add = 0.0;
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    if (engine_.fusedCost) {
        for (std::uint32_t k = flow_->offsets[t];
             k < flow_->upper[t]; ++k) {
            const std::uint32_t sb = assignment[partner[k]];
            add += slotFused(slot, sb) * bytes[k];
        }
        return add;
    }
    for (std::uint32_t k = flow_->offsets[t]; k < flow_->upper[t];
         ++k) {
        const std::uint32_t sb = assignment[partner[k]];
        add += slotDist(slot, sb) * bytes[k] * slotPen(slot, sb);
    }
    return add;
}

double
MappingProblem::partialCostDense(
        const std::vector<std::uint32_t> &assignment, std::size_t t,
        std::uint32_t slot) const
{
    ouroAssert(t < tiles_.size(), "partialCostDense: bad tile index");
    const CoreCoord ct = candidates_[slot];
    double add = 0.0;
    for (std::size_t b = 0; b < t; ++b) {
        add += pairCost(tiles_[t], ct, tiles_[b],
                        candidates_[assignment[b]]);
    }
    return add;
}

bool
MappingProblem::feasible(
        const std::vector<std::uint32_t> &assignment) const
{
    if (assignment.size() != tiles_.size())
        return false;
    std::vector<bool> used(candidates_.size(), false);
    for (const auto slot : assignment) {
        if (slot >= candidates_.size())
            return false;
        if (used[slot])
            return false; // Eq. 2: one tile per core
        if (!candidateUsable(slot))
            return false; // Eq. 2: defective core
        used[slot] = true;
    }
    // Eq. 3 holds by construction: every tile is placed exactly once.
    return true;
}

} // namespace ouro
