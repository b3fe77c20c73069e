/**
 * @file
 * CSS stabilizer codes: the common abstraction over hypergraph product
 * and bivariate bicycle codes used throughout the library.
 */

#ifndef CYCLONE_QEC_CSS_CODE_H
#define CYCLONE_QEC_CSS_CODE_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/gf2.h"
#include "common/rng.h"

namespace cyclone {

/** Stabilizer Pauli type. */
enum class StabKind { X, Z };

/**
 * A CSS stabilizer code defined by X- and Z-type parity-check matrices.
 *
 * Rows of hx are X stabilizers (each acts as X on its support), rows of
 * hz are Z stabilizers. The CSS condition hx hz^T = 0 is checked at
 * construction. Logical operator representatives are computed lazily,
 * once, and are safe to request from several threads at a time;
 * copies of a code share them.
 */
class CssCode
{
  public:
    /**
     * Construct from sparse parity-check matrices.
     *
     * @param hx X stabilizer supports (rows x data qubits)
     * @param hz Z stabilizer supports
     * @param name human-readable name, e.g. "HGP [[225,9,6]]"
     * @param nominal_distance published code distance (0 = unknown)
     */
    CssCode(SparseGF2 hx, SparseGF2 hz, std::string name,
            size_t nominal_distance = 0);

    const SparseGF2& hx() const { return hx_; }
    const SparseGF2& hz() const { return hz_; }
    const std::string& name() const { return name_; }

    /** Number of physical data qubits. */
    size_t numQubits() const { return hx_.cols(); }

    /** Number of logical qubits k = n - rank(Hx) - rank(Hz). */
    size_t numLogical() const { return k_; }

    /** Number of X stabilizers (rows of Hx, possibly redundant). */
    size_t numXStabs() const { return hx_.rows(); }

    /** Number of Z stabilizers. */
    size_t numZStabs() const { return hz_.rows(); }

    /** Total stabilizer count m = |X| + |Z|. */
    size_t numStabs() const { return hx_.rows() + hz_.rows(); }

    /** Published distance (0 when unknown). */
    size_t nominalDistance() const { return nominalDistance_; }

    /** Max X stabilizer weight. */
    size_t maxXWeight() const { return hx_.maxRowWeight(); }

    /** Max Z stabilizer weight. */
    size_t maxZWeight() const { return hz_.maxRowWeight(); }

    /**
     * Basis of logical-Z representatives: k vectors in ker(Hx) that are
     * independent of the row space of Hz.
     */
    const std::vector<BitVec>& logicalZ() const;

    /** Basis of logical-X representatives (ker Hz modulo rowspace Hx). */
    const std::vector<BitVec>& logicalX() const;

    /**
     * Monte-Carlo upper bound on the code distance by random
     * information-set sampling over logical-Z representatives.
     */
    size_t distanceUpperBound(size_t iterations, Rng& rng) const;

    /** "[[n, k, d]]" parameter string. */
    std::string parameterString() const;

  private:
    void computeLogicals() const;

    SparseGF2 hx_;
    SparseGF2 hz_;
    std::string name_;
    size_t nominalDistance_ = 0;
    size_t k_ = 0;

    /** The lazily filled logical basis, held by pointer so the code
     *  stays copyable (copies have identical checks, hence basis). */
    struct LogicalBasis
    {
        std::once_flag once;
        std::vector<BitVec> z;
        std::vector<BitVec> x;
    };
    std::shared_ptr<LogicalBasis> logicals_ =
        std::make_shared<LogicalBasis>();
};

} // namespace cyclone

#endif // CYCLONE_QEC_CSS_CODE_H
