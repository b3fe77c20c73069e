#include "dem/dem_builder.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <span>

namespace cyclone {

namespace {

using Detectors = std::span<const uint32_t>;

/** Number of elementary injections an error op contributes. */
size_t
injectionCount(const Op& op)
{
    switch (op.kind) {
      case OpKind::XError:
      case OpKind::ZError:
        return 1;
      case OpKind::Depolarize1:
      case OpKind::Pauli1:
        return 2;
      case OpKind::Depolarize2:
        return 4;
      default:
        return 0;
    }
}

uint64_t
signatureHash(Detectors dets, uint64_t observables)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t d : dets) {
        h ^= d;
        h *= 0x100000001b3ull;
    }
    h ^= observables;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
    return h;
}

/**
 * Detector/observable signatures of every injection, in one flat CSR
 * array indexed by injection number (rows are filled in any order).
 */
struct InjectionSignatures
{
    std::vector<uint32_t> detectors;
    std::vector<size_t> begin, end;
    std::vector<uint64_t> observables;

    explicit InjectionSignatures(size_t n)
        : begin(n), end(n), observables(n)
    {
    }

    Detectors
    dets(size_t inj) const
    {
        return Detectors(detectors.data() + begin[inj],
                         end[inj] - begin[inj]);
    }
};

/**
 * Sweep the circuit backwards once. At every position each qubit's X
 * (Z) sensitivity row holds the detectors and observables that an X
 * (Z) flip there would toggle, so an injection's signature is read off
 * its row, already in ascending detector order.
 */
InjectionSignatures
sweepBackward(const Circuit& circuit, size_t num_injections)
{
    // Measurement -> detectors it feeds (ascending) and observables.
    const size_t num_meas = circuit.numMeasurements();
    std::vector<std::vector<uint32_t>> meas_dets(num_meas);
    std::vector<uint64_t> meas_obs(num_meas, 0);
    uint32_t det = 0;
    for (const Op& op : circuit.ops()) {
        if (op.kind == OpKind::Detector) {
            for (uint32_t m : op.targets)
                meas_dets[m].push_back(det);
            ++det;
        } else if (op.kind == OpKind::Observable) {
            const auto id = static_cast<uint64_t>(op.params[0]);
            for (uint32_t m : op.targets)
                meas_obs[m] ^= uint64_t(1) << id;
        }
    }

    const size_t words = (circuit.numDetectors() + 63) / 64;
    // Row 2q is qubit q's X sensitivity, row 2q+1 its Z sensitivity.
    std::vector<uint64_t> bits(2 * circuit.numQubits() * words, 0);
    std::vector<uint64_t> obs(2 * circuit.numQubits(), 0);
    auto row = [&](size_t r) { return bits.data() + r * words; };
    auto xor_row = [&](size_t dst, size_t src) {
        uint64_t* d = row(dst);
        const uint64_t* s = row(src);
        for (size_t w = 0; w < words; ++w)
            d[w] ^= s[w];
        obs[dst] ^= obs[src];
    };

    InjectionSignatures sigs(num_injections);
    size_t next_meas = num_meas;
    size_t next_inj = num_injections;
    const std::vector<Op>& ops = circuit.ops();
    for (size_t i = ops.size(); i-- > 0;) {
        const Op& op = ops[i];
        switch (op.kind) {
          case OpKind::ResetZ:
          case OpKind::ResetX:
            for (uint32_t q : op.targets) {
                std::fill_n(row(2 * q), 2 * words, 0);
                obs[2 * q] = obs[2 * q + 1] = 0;
            }
            break;
          case OpKind::Cx: {
            const size_t c = op.targets[0];
            const size_t t = op.targets[1];
            xor_row(2 * c, 2 * t);
            xor_row(2 * t + 1, 2 * c + 1);
            break;
          }
          case OpKind::MeasureZ:
          case OpKind::MeasureX: {
            const size_t m = --next_meas;
            const size_t r =
                2 * op.targets[0] + (op.kind == OpKind::MeasureX);
            for (uint32_t d : meas_dets[m])
                row(r)[d / 64] ^= uint64_t(1) << (d % 64);
            obs[r] ^= meas_obs[m];
            break;
          }
          default: {
            // Injection k of an error op flips X (k even) or Z (k odd)
            // on targets[k / 2]; a lone XError/ZError is its kind.
            const size_t count = injectionCount(op);
            next_inj -= count;
            for (size_t k = 0; k < count; ++k) {
                const bool z = count == 1 ? op.kind == OpKind::ZError
                                          : (k & 1) != 0;
                const size_t r = 2 * op.targets[k / 2] + z;
                const size_t inj = next_inj + k;
                sigs.begin[inj] = sigs.detectors.size();
                const uint64_t* sens = row(r);
                for (size_t w = 0; w < words; ++w) {
                    for (uint64_t word = sens[w]; word; word &= word - 1) {
                        sigs.detectors.push_back(static_cast<uint32_t>(
                            64 * w + std::countr_zero(word)));
                    }
                }
                sigs.end[inj] = sigs.detectors.size();
                sigs.observables[inj] = obs[r];
            }
            break;
          }
        }
    }
    return sigs;
}

/**
 * The DEM under construction: mechanisms in first-occurrence order,
 * indexed by an open-addressing table keyed on the signature hash.
 */
class MechanismMerger
{
  public:
    explicit MechanismMerger(DetectorErrorModel& dem)
        : dem_(dem), slots_(1024)
    {
    }

    /** Add one component; identical signatures OR-combine. */
    void
    add(Detectors dets, uint64_t observables, double p)
    {
        if (p <= 0.0 || (dets.empty() && observables == 0))
            return;
        const uint64_t h = signatureHash(dets, observables);
        size_t s = probe(h);
        for (; slots_[s].mechanism != kEmpty;
             s = (s + 1) & (slots_.size() - 1)) {
            if (slots_[s].hash != h)
                continue;
            DemMechanism& m = dem_.mechanisms[slots_[s].mechanism];
            if (m.observables == observables &&
                std::ranges::equal(m.detectors, dets)) {
                // Independent-OR combination of the two events.
                m.probability = m.probability * (1.0 - p) +
                    p * (1.0 - m.probability);
                return;
            }
        }
        slots_[s] = {h, static_cast<uint32_t>(dem_.mechanisms.size())};
        dem_.mechanisms.push_back(
            {p, std::vector<uint32_t>(dets.begin(), dets.end()),
             observables});
        if (2 * dem_.mechanisms.size() > slots_.size())
            grow();
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot
    {
        uint64_t hash = 0;
        uint32_t mechanism = kEmpty;
    };

    size_t probe(uint64_t h) const { return h & (slots_.size() - 1); }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        for (const Slot& slot : old) {
            if (slot.mechanism == kEmpty)
                continue;
            size_t s = probe(slot.hash);
            while (slots_[s].mechanism != kEmpty)
                s = (s + 1) & (slots_.size() - 1);
            slots_[s] = slot;
        }
    }

    DetectorErrorModel& dem_;
    std::vector<Slot> slots_;
};

} // namespace

DetectorErrorModel
buildDetectorErrorModel(const Circuit& circuit)
{
    size_t num_injections = 0;
    for (const Op& op : circuit.ops())
        num_injections += injectionCount(op);
    const InjectionSignatures sigs = sweepBackward(circuit, num_injections);

    DetectorErrorModel dem;
    dem.numDetectors = circuit.numDetectors();
    dem.numObservables = circuit.numObservables();
    MechanismMerger merger(dem);

    // Component signatures of one error op: combo bit k toggles
    // injection k, so combo c is combo (c minus its low bit) XOR one
    // injection. Buffers are reused across ops.
    std::vector<uint32_t> combo[16];
    uint64_t combo_obs[16] = {};
    auto build_combos = [&](size_t first, unsigned count) {
        for (unsigned c = 1; c < (1u << count); ++c) {
            const unsigned low = std::countr_zero(c);
            const unsigned rest = c & (c - 1);
            combo[c].clear();
            std::ranges::set_symmetric_difference(
                combo[rest], sigs.dets(first + low),
                std::back_inserter(combo[c]));
            combo_obs[c] = combo_obs[rest] ^ sigs.observables[first + low];
        }
    };
    auto add_combo = [&](unsigned c, double p) {
        merger.add(combo[c], combo_obs[c], p);
    };

    size_t first = 0;
    for (const Op& op : circuit.ops()) {
        const size_t count = injectionCount(op);
        if (count == 0)
            continue;
        build_combos(first, static_cast<unsigned>(count));
        switch (op.kind) {
          case OpKind::XError:
          case OpKind::ZError:
            add_combo(1, op.params[0]);
            break;
          case OpKind::Depolarize1: {
            const double p = op.params[0] / 3.0;
            add_combo(1, p); // X
            add_combo(2, p); // Z
            add_combo(3, p); // Y
            break;
          }
          case OpKind::Pauli1:
            add_combo(1, op.params[0]); // X
            add_combo(3, op.params[1]); // Y
            add_combo(2, op.params[2]); // Z
            break;
          case OpKind::Depolarize2:
            // Bits of the combo index: Xa, Za, Xb, Zb.
            for (unsigned c = 1; c < 16; ++c)
                add_combo(c, op.params[0] / 15.0);
            break;
          default:
            break;
        }
        first += count;
    }
    return dem;
}

} // namespace cyclone
