// Random bit error model BErr_p (Sec. 3 of the paper).
//
// A "chip" is a 64-bit seed. Every (chip, weight index, bit index)
// coordinate has a fixed uniform value u drawn from a stateless hash; the
// bit is faulty at rate p iff u < p. Consequences, exactly as the paper's
// error model demands:
//   * for a fixed chip, the faulty bits at p' <= p are a subset of those at
//     p (persistence across supply voltages);
//   * across chips (seeds), fault patterns are independent;
//   * the expected number of bit errors is p * m * W.
//
// Fault types: the base model flips the stored bit (0->1 and 1->0 equally
// likely on random data). For profiled-chip-style evaluation a biased mix of
// stuck-at-style faults is supported: a SET1 cell reads 1 regardless of the
// stored bit (an error iff a 0 was stored), a SET0 cell reads 0.
//
// Injection has one runtime path, ChipFaultList. One O(W*m) hash sweep
// materializes the chip's sparse fault pattern (every cell with u < p_max,
// together with its u), after which applying the faults at ANY rate
// p <= p_max is O(p_max*W*m): the faults at p are exactly the entries with
// u < p. Evaluators reuse one list across every batch / voltage / rate of a
// trial; one-shot callers (RandomBitErrorModel::apply, redundancy
// evaluation) build a list at p and apply it once, which costs no more than
// a scalar pass. Profiled chips and adversarial flip sets assemble their
// lists from per-tensor fault vectors, so ChipFaultList::apply is the one
// loop that writes a faulted code word (and the one forensics hook).
//
// inject_random_bit_errors is the scalar reference: one in-place pass
// hashing every (weight, bit) coordinate, kept as the bit-exactness oracle
// for the list's tests and as the baseline of the injection microbenchmark.
// Both consume the same hash stream, so they produce byte-identical
// snapshots for a fixed chip seed.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/net_quantizer.h"

namespace ber {

enum class FaultType { kFlip, kSet1, kSet0 };

struct BitErrorConfig {
  double p = 0.01;  // per-bit fault probability (fraction, not %)
  // Mix of fault types among faulty cells; must sum to 1. Defaults to the
  // paper's uniform flip model.
  double flip_fraction = 1.0;
  double set1_fraction = 0.0;
  double set0_fraction = 0.0;

  // Throws std::invalid_argument unless p is in [0,1] and the fractions are
  // non-negative and sum to 1 (within floating-point tolerance).
  void validate() const;

  // Chip-2-like bias from Fig. 8 (0-to-1 flips dominate): mostly SET1.
  static BitErrorConfig biased_set1(double p) {
    return {p, 0.1, 0.75, 0.15};
  }
};

// Number of bit errors that BErr_p introduces in expectation: p * m * W
// (Tab. 6 right column).
double expected_bit_errors(double p, int bits, std::size_t weights);

// One faulty cell of a chip, in tensor-local coordinates. `u` is the cell's
// hash_uniform vulnerability, kept so a list built at p_max can be filtered
// to any lower rate without re-hashing.
struct ChipFault {
  std::uint32_t index;  // element within its tensor
  std::uint8_t bit;
  std::uint8_t type;  // FaultType
  double u;
};

// The precomputed sparse fault pattern of one chip over a snapshot layout.
//
// Storage is sharded WITHIN tensors: each tensor's element range is split
// into fixed-size chunks (boundaries depend only on the layout, never on the
// thread count), and both the build sweep and apply() parallelize over
// shards. Without this, parallelism was per-tensor and one dominant conv
// tensor serialized the whole sweep. Shards partition the element space, so
// no two shards touch the same code word and the result is independent of
// thread count. Both splits ask intra_op_threads() (core/parallel.h): on a
// pool worker or inside a ParallelWorkerScope — the evaluator's chips and
// cells, serving replicas — and below kIntraOpMinFloats words or faults,
// they run inline.
class ChipFaultList {
 public:
  // Scans every (weight, bit) coordinate of `layout` once and records the
  // cells with u < p_max. The layout only provides tensor sizes / offsets /
  // bit widths; codes are not read.
  ChipFaultList(const NetSnapshot& layout, const BitErrorConfig& config,
                std::uint64_t chip_seed, double p_max);

  // Assembles a list from precomputed per-tensor fault vectors (one vector
  // per layout tensor, entries in ascending element order — checked). This
  // is how non-hash fault sources reuse the sharded apply path: e.g.
  // ProfiledChip::fault_list records each faulty cell with its vulnerability
  // u so one list serves a whole voltage grid, and an adversarial flip set
  // is a list of u = 0 cells. Entries of one element apply in vector order.
  // `tag` is reported as chip_seed() for labeling.
  ChipFaultList(const NetSnapshot& layout,
                std::vector<std::vector<ChipFault>> per_tensor, double p_max,
                std::uint64_t tag = 0);

  // Applies the chip's faults at rate p <= p_max to `snap` (which must have
  // the layout the list was built for — tensor count, sizes and bit widths
  // are checked). Returns the number of code words that changed.
  // O(#faults); no hashing. The forensics hook (obs/forensics.h): inside a
  // ForensicsTrialScope every applied fault is one ledger row.
  std::size_t apply(NetSnapshot& snap, double p) const;

  // One (tensor, element) coordinate whose code word apply_delta rewrote.
  struct ChangedCode {
    std::uint32_t tensor;
    std::uint32_t index;
  };

  // Moves a deployed snapshot between fault rates without a full redeploy:
  // `cur` holds base + faults(p_from) and is patched in place to
  // base + faults(p_to); `base` is the clean snapshot the faults were
  // applied to (same layout, also checked). Because faults are persistent
  // (the cells faulty at min(p_from, p_to) are a subset of those at the
  // larger rate), only code words whose faulted value differs between the
  // two rates are rewritten — each is appended to `changed` (if non-null)
  // so the caller can patch downstream mirrors in O(#delta) instead of
  // O(W). Works in both directions (step up or down). The return value is
  // the number of code words differing from `base` at p_to — identical to
  // what apply(base-copy, p_to) would return, so fault-count accounting is
  // unchanged under delta deploys.
  std::size_t apply_delta(NetSnapshot& cur, const NetSnapshot& base,
                          double p_from, double p_to,
                          std::vector<ChangedCode>* changed) const;

  std::uint64_t chip_seed() const { return chip_seed_; }
  double p_max() const { return p_max_; }
  std::size_t size() const;

 private:
  // One contiguous element range [begin, end) of one tensor.
  struct Shard {
    std::uint32_t tensor;
    std::uint32_t begin;
    std::uint32_t end;
    std::vector<ChipFault> faults;
  };

  void init_layout(const NetSnapshot& layout);

  std::uint64_t chip_seed_ = 0;
  double p_max_ = 0.0;
  std::vector<Shard> shards_;
  std::vector<std::size_t> tensor_sizes_;  // layout fingerprint for apply()
  std::vector<int> tensor_bits_;
};

// The scalar reference: injects bit errors into all tensors of the snapshot
// in one in-place pass (one hash per (weight, bit) coordinate). Only the low
// `scheme.bits` of each code participate. Returns the number of code words
// that changed. A test oracle and microbenchmark baseline only: runtime
// injection builds a ChipFaultList (RandomBitErrorModel::apply). Records
// nothing in the forensics ledger.
std::size_t inject_random_bit_errors(NetSnapshot& snap,
                                     const BitErrorConfig& config,
                                     std::uint64_t chip_seed);

// Applies one cell's fault to bit j of a code word; returns the new code.
std::uint16_t apply_fault(std::uint16_t code, int bit, FaultType type);

// The fault type of a given (chip, weight, bit) cell under `config`,
// independent of whether the cell is faulty.
FaultType fault_type_at(const BitErrorConfig& config, std::uint64_t chip_seed,
                        std::uint64_t weight_index, std::uint64_t bit);

// True iff the cell is faulty at rate p for this chip (monotone in p).
bool cell_faulty(std::uint64_t chip_seed, std::uint64_t weight_index,
                 std::uint64_t bit, double p);

}  // namespace ber
