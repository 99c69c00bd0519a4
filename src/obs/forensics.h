// Fault forensics: the opt-in record of WHERE injected bit errors land and
// HOW they become misclassifications.
//
// The RobustnessEvaluator reports aggregate RErr; this module keeps the
// per-flip evidence behind those numbers:
//
//   FaultLedger — a process-wide, per-trial structured record of every
//   injected flip (tensor, word index, bit position, MSB/sign class, code
//   before/after), filled from the one instrumentation hook, inside
//   ChipFaultList::apply: random, profiled and adversarial faults all apply
//   through it (the scalar references inject_random_bit_errors and
//   ProfiledChip::apply are test oracles and record nothing). The disabled
//   path follows the BER_TRACE_SCOPE contract: one relaxed atomic load per
//   apply() call, no allocation, no branch into recording code. Recording
//   happens only inside a ForensicsTrialScope, so stray apply() calls
//   (planner warm-ups, tests of other subsystems) never pollute the ledger
//   even while it is enabled.
//
//   PropagationProbe — clean-vs-faulted forwards on a fixed probe batch with
//   per-layer activation capture (Sequential::forward_observed), recording
//   per-layer relative divergence and the first-divergence depth. Per-trial
//   results are keyed by a deterministic trial token and aggregated
//   serially, so the output is identical for every thread count.
//
//   ForensicsCollector — rolls the ledger plus per-trial errors into the
//   `forensics` section of api::Report: per-(tensor, bit) flip counts,
//   bit-class mass (low / high / MSB), error co-occurrence per class, and
//   probe summaries, per ledger profile. Attack flip sets land in the same
//   ledger as random ones (profile "eval" vs "control"), so an adversarial
//   campaign is directly comparable to its rate-matched random baseline.
//
// Registry instruments (created ONLY when forensics is enabled — a disabled
// run leaves no forensics.* keys behind):
//   forensics.flips                      counter, ledger appends
//   forensics.words_changed              counter, changed words per apply
//   forensics.probe_first_divergence     histogram, executed-layer depth
//   forensics.probe_divergence_ppm       histogram, per-layer relative
//                                        divergence in parts per million
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/json.h"

namespace ber {
class Dataset;
class Sequential;
struct NetSnapshot;
class Tensor;
}  // namespace ber

namespace ber::obs {

namespace detail {
extern std::atomic<bool> g_forensics;

// Thread-local trial context installed by ForensicsTrialScope. profile ==
// nullptr means "no scope active" — instrumentation sites then skip
// recording even while the ledger is enabled.
struct TrialContext {
  std::uint64_t token = 0;
  const char* profile = nullptr;
};
TrialContext& trial_context();
}  // namespace detail

// True while the ledger accepts records. Inline relaxed load: the whole
// disabled-path cost of an instrumented injection site.
inline bool forensics_enabled() {
  return detail::g_forensics.load(std::memory_order_relaxed);
}

// The injection-site gate: enabled AND a trial scope is active on this
// thread. Sites that pass it collect FlipRecords locally and hand them to
// fault_ledger().record_apply() in one batch.
inline bool forensics_recording() {
  return forensics_enabled() && detail::trial_context().profile != nullptr;
}

// Bit-position class under the two's-complement code layout (quantizer.h):
// bit width-1 is the sign/MSB, the top half below it is "high", the rest
// "low". A flip's weight-space magnitude is 2^bit * Delta, so these classes
// order the expected damage.
enum class BitClass : std::uint8_t { kLow = 0, kHigh = 1, kMsb = 2 };
BitClass classify_bit(int bit, int width);
const char* bit_class_name(BitClass c);

// One injected fault application. code_before/code_after bracket THIS
// fault's application (a SET fault on an already-set bit records equal
// codes: injected, but a no-op on the stored word).
struct FlipRecord {
  std::uint64_t token = 0;  // trial token of the enclosing scope
  std::uint32_t tensor = 0;
  std::uint32_t index = 0;  // element within its tensor
  std::uint8_t bit = 0;
  std::uint8_t width = 0;      // code width of the tensor
  std::uint8_t bit_class = 0;  // BitClass
  std::uint16_t code_before = 0;
  std::uint16_t code_after = 0;
};

// RAII trial context: installed by the evaluator around one trial's
// injection (and probes). Free when forensics is disabled (one relaxed
// load). Nests by save/restore, so a model composing another model's
// apply() keeps the outer scope.
class ForensicsTrialScope {
 public:
  ForensicsTrialScope(std::uint64_t token, const char* profile) {
    if (!forensics_enabled()) return;
    prev_ = detail::trial_context();
    detail::trial_context() = {token, profile};
    active_ = true;
  }
  ~ForensicsTrialScope() {
    if (active_) detail::trial_context() = prev_;
  }
  ForensicsTrialScope(const ForensicsTrialScope&) = delete;
  ForensicsTrialScope& operator=(const ForensicsTrialScope&) = delete;

 private:
  detail::TrialContext prev_;
  bool active_ = false;
};

// The process-wide flip ledger. Appends are batched (one mutex acquisition
// per apply() call, not per flip) and bucketed by the scope's profile
// string, so concurrent worker threads interleave cleanly.
class FaultLedger {
 public:
  // Toggles the global forensics gate. Enabling does NOT clear: a sweep
  // accumulates across points. clear() resets all profiles.
  void set_enabled(bool on);
  bool enabled() const { return forensics_enabled(); }
  void clear();

  // Instrumentation-site entry point: the flips of one apply() call plus
  // its changed-word count, attributed to the calling thread's trial scope.
  // No-op without an active scope.
  void record_apply(std::vector<FlipRecord>&& records,
                    std::size_t words_changed);

  struct ProfileTotals {
    std::size_t flips = 0;
    std::size_t words_changed = 0;
    std::size_t applies = 0;
  };

  std::vector<std::string> profiles() const;
  ProfileTotals totals(const std::string& profile) const;
  // Sum over every profile — the number to reconcile against the
  // faults.words_patched counter delta of the instrumented run.
  ProfileTotals totals() const;
  // Copy of one profile's records, sorted by (token, tensor, index, bit) so
  // the view is deterministic regardless of worker interleaving.
  std::vector<FlipRecord> records(const std::string& profile) const;

 private:
  struct ProfileData {
    std::vector<FlipRecord> records;
    ProfileTotals totals;
  };
  mutable std::mutex mu_;
  std::map<std::string, ProfileData> profiles_;
};

FaultLedger& fault_ledger();

// ------------------------------------------------------------------ probes --

struct ForensicsOptions {
  int probe_images = 0;  // 0 disables the propagation probes
  // A layer counts as diverged once its relative L2 activation divergence
  // exceeds this.
  double divergence_threshold = 1e-4;
};

// Per-trial probe result: executed-layer divergences of one faulted forward
// against the clean baseline.
struct ProbeResult {
  std::vector<double> divergence;  // relative L2, one per executed layer
  int first_divergence = -1;       // executed-layer depth; -1 = never
};

// Aggregates one model's forensics over an evaluator campaign. Thread-safe:
// probe_trial / record_trial_error run on evaluator workers; to_json
// aggregates under the lock with token-sorted iteration, so the report is
// deterministic per (config, trial set) regardless of thread count.
class ForensicsCollector {
 public:
  explicit ForensicsCollector(ForensicsOptions opts) : opts_(opts) {}

  const ForensicsOptions& options() const { return opts_; }

  // Captures the clean per-layer activations of `model` with `base`
  // deployed (on_codes as the evaluator will deploy faulted trials) on the
  // first probe_images examples of `data`. Must run before probe_trial.
  // No-op when probe_images <= 0.
  void prepare_probes(const Sequential& model, const NetSnapshot& base,
                      bool on_codes, const Dataset& data);
  bool probes_ready() const { return !clean_acts_.empty(); }

  // Clean-vs-faulted propagation probe for one trial: `clone` must already
  // hold the trial's faulted deployment. Records into the forensics.*
  // histograms and stores the per-layer divergences under `token`.
  void probe_trial(Sequential& clone, std::uint64_t token,
                   const std::string& profile);

  // Per-trial evaluation error, for flip/misclassification co-occurrence.
  void record_trial_error(std::uint64_t token, const std::string& profile,
                          double error);

  // The report's `forensics` section: ledger totals + per-profile
  // attribution (by tensor, by bit, by class, error co-occurrence) + probe
  // summaries + the words-patched counter delta handed in by the caller.
  Json to_json(std::uint64_t counter_words_patched) const;

 private:
  struct ProfileAgg {
    std::map<std::uint64_t, double> errors;       // token -> error
    std::map<std::uint64_t, ProbeResult> probes;  // token -> probe
  };

  ForensicsOptions opts_;
  // Probe batch + clean baseline activations: (executed layer index, data).
  std::vector<std::pair<std::size_t, std::vector<float>>> clean_acts_;
  // Heap copies (never arena tensors) of the probe inputs.
  std::vector<float> probe_data_;
  std::vector<long> probe_shape_;
  mutable std::mutex mu_;
  std::map<std::string, ProfileAgg> agg_;
};

}  // namespace ber::obs
