/**
 * @file
 * Extracts a detector error model from a circuit.
 *
 * Every error channel is decomposed into elementary Pauli injections
 * (an X or Z flip on one qubit at one circuit position). One backward
 * sweep over the circuit finds every injection's signature: each qubit
 * carries an X and a Z sensitivity bitset over detectors plus an
 * observable mask, resets clear them, CX mixes them (X sensitivity
 * flows from target to control, Z from control to target) and a
 * measurement adds its detectors and observables to the row of the
 * Pauli that flips it. An injection's signature is its row at its
 * position, read out in ascending detector order. Channel components
 * (e.g. the 15 Paulis of DEPOLARIZE2) are then synthesized as XOR
 * combinations of their injections' signatures, in op order, and
 * identical signatures are merged into one mechanism at its first
 * occurrence.
 */

#ifndef CYCLONE_DEM_DEM_BUILDER_H
#define CYCLONE_DEM_DEM_BUILDER_H

#include "circuit/circuit.h"
#include "dem/dem.h"

namespace cyclone {

/** Build the detector error model of a noisy circuit. */
DetectorErrorModel buildDetectorErrorModel(const Circuit& circuit);

} // namespace cyclone

#endif // CYCLONE_DEM_DEM_BUILDER_H
