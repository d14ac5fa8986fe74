#include "geometry.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace ouro
{

WaferGeometry::WaferGeometry(std::uint32_t die_rows,
                             std::uint32_t die_cols,
                             std::uint32_t cores_per_die_row,
                             std::uint32_t cores_per_die_col)
    : dieRows_(die_rows), dieCols_(die_cols),
      coresPerDieRow_(cores_per_die_row),
      coresPerDieCol_(cores_per_die_col)
{
    ouroAssert(die_rows > 0 && die_cols > 0 && cores_per_die_row > 0 &&
               cores_per_die_col > 0, "WaferGeometry: zero extent");
}

std::uint64_t
WaferGeometry::coreIndex(CoreCoord c) const
{
    ouroAssert(contains(c), "coreIndex: coordinate off wafer (",
               c.row, ",", c.col, ")");
    return static_cast<std::uint64_t>(c.row) * cols() + c.col;
}

CoreCoord
WaferGeometry::coreAt(std::uint64_t index) const
{
    ouroAssert(index < numCores(), "coreAt: index ", index,
               " out of range");
    return {static_cast<std::uint32_t>(index / cols()),
            static_cast<std::uint32_t>(index % cols())};
}

DieCoord
WaferGeometry::dieOf(CoreCoord c) const
{
    ouroAssert(contains(c), "dieOf: coordinate off wafer");
    return {c.row / coresPerDieRow_, c.col / coresPerDieCol_};
}

bool
WaferGeometry::sameDie(CoreCoord a, CoreCoord b) const
{
    return dieOf(a) == dieOf(b);
}

std::uint32_t
WaferGeometry::dieCrossings(CoreCoord a, CoreCoord b) const
{
    const DieCoord da = dieOf(a);
    const DieCoord db = dieOf(b);
    const auto dr = da.row > db.row ? da.row - db.row : db.row - da.row;
    const auto dc = da.col > db.col ? da.col - db.col : db.col - da.col;
    return dr + dc;
}

bool
WaferGeometry::contains(CoreCoord c) const
{
    return c.row < rows() && c.col < cols();
}

std::vector<CoreCoord>
WaferGeometry::sShapedOrder() const
{
    std::vector<CoreCoord> order;
    order.reserve(numCores());
    for (std::uint32_t die_r = 0; die_r < dieRows_; ++die_r) {
        // Snake across the die columns: even die-rows left-to-right,
        // odd die-rows right-to-left.
        for (std::uint32_t i = 0; i < dieCols_; ++i) {
            const std::uint32_t die_c =
                (die_r % 2 == 0) ? i : dieCols_ - 1 - i;
            // Within the die, snake core rows the same way so the last
            // core of one die abuts the first core of the next.
            for (std::uint32_t r = 0; r < coresPerDieRow_; ++r) {
                const std::uint32_t local_r =
                    (die_r % 2 == 0) ? r : coresPerDieRow_ - 1 - r;
                for (std::uint32_t k = 0; k < coresPerDieCol_; ++k) {
                    const bool forward =
                        ((die_r % 2 == 0) ? (i + r) : (i + r + 1)) % 2
                        == 0;
                    const std::uint32_t local_c =
                        forward ? k : coresPerDieCol_ - 1 - k;
                    order.push_back(
                            {die_r * coresPerDieRow_ + local_r,
                             die_c * coresPerDieCol_ + local_c});
                }
            }
        }
    }
    return order;
}

} // namespace ouro
