#include "obs/forensics.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "quant/net_quantizer.h"
#include "tensor/tensor.h"

namespace ber::obs {

namespace detail {
std::atomic<bool> g_forensics{false};

TrialContext& trial_context() {
  thread_local TrialContext ctx;
  return ctx;
}
}  // namespace detail

BitClass classify_bit(int bit, int width) {
  if (bit >= width - 1) return BitClass::kMsb;  // two's-complement sign bit
  if (2 * bit >= width) return BitClass::kHigh;
  return BitClass::kLow;
}

const char* bit_class_name(BitClass c) {
  switch (c) {
    case BitClass::kLow: return "low";
    case BitClass::kHigh: return "high";
    case BitClass::kMsb: return "msb";
  }
  return "?";
}

// -------------------------------------------------------------- FaultLedger --

void FaultLedger::set_enabled(bool on) {
  detail::g_forensics.store(on, std::memory_order_relaxed);
}

void FaultLedger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
}

void FaultLedger::record_apply(std::vector<FlipRecord>&& records,
                               std::size_t words_changed) {
  const detail::TrialContext& ctx = detail::trial_context();
  if (!forensics_enabled() || ctx.profile == nullptr) return;
  for (FlipRecord& r : records) r.token = ctx.token;
  // Resolved on the first recorded apply, not at namespace scope: the
  // forensics.* keys must not exist in the registry unless forensics
  // actually recorded something. Registry handles live for the process.
  static Counter& flips = registry().counter("forensics.flips");
  static Counter& changed = registry().counter("forensics.words_changed");
  flips.add(records.size());
  changed.add(words_changed);
  std::lock_guard<std::mutex> lock(mu_);
  ProfileData& pd = profiles_[ctx.profile];
  pd.totals.flips += records.size();
  pd.totals.words_changed += words_changed;
  ++pd.totals.applies;
  pd.records.insert(pd.records.end(),
                    std::make_move_iterator(records.begin()),
                    std::make_move_iterator(records.end()));
}

std::vector<std::string> FaultLedger::profiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(profiles_.size());
  for (const auto& [name, _] : profiles_) out.push_back(name);
  return out;
}

FaultLedger::ProfileTotals FaultLedger::totals(
    const std::string& profile) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = profiles_.find(profile);
  return it == profiles_.end() ? ProfileTotals{} : it->second.totals;
}

FaultLedger::ProfileTotals FaultLedger::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileTotals t;
  for (const auto& [_, pd] : profiles_) {
    t.flips += pd.totals.flips;
    t.words_changed += pd.totals.words_changed;
    t.applies += pd.totals.applies;
  }
  return t;
}

std::vector<FlipRecord> FaultLedger::records(const std::string& profile) const {
  std::vector<FlipRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = profiles_.find(profile);
    if (it == profiles_.end()) return out;
    out = it->second.records;
  }
  // Worker threads append in completion order; sort so the view is a pure
  // function of the trial set.
  std::sort(out.begin(), out.end(),
            [](const FlipRecord& a, const FlipRecord& b) {
              if (a.token != b.token) return a.token < b.token;
              if (a.tensor != b.tensor) return a.tensor < b.tensor;
              if (a.index != b.index) return a.index < b.index;
              return a.bit < b.bit;
            });
  return out;
}

FaultLedger& fault_ledger() {
  static FaultLedger* ledger = new FaultLedger();  // never destroyed, like
                                                   // the metrics registry
  return *ledger;
}

// ------------------------------------------------------- ForensicsCollector --

void ForensicsCollector::prepare_probes(const Sequential& model,
                                        const NetSnapshot& base,
                                        bool on_codes, const Dataset& data) {
  if (opts_.probe_images <= 0 || data.size() == 0) return;
  const long n = std::min<long>(opts_.probe_images, data.size());
  Tensor x;
  std::vector<int> labels;
  data.batch(0, n, x, labels);
  probe_shape_ = x.shape();
  probe_data_.assign(x.data(), x.data() + x.numel());
  Sequential clone(model);
  deploy_snapshot(base, param_slots(clone), on_codes);
  clean_acts_.clear();
  clone.forward_observed(
      x, [&](std::size_t layer, const Layer&, const Tensor& out) {
        clean_acts_.emplace_back(
            layer, std::vector<float>(out.data(), out.data() + out.numel()));
      });
}

void ForensicsCollector::probe_trial(Sequential& clone, std::uint64_t token,
                                     const std::string& profile) {
  if (clean_acts_.empty()) return;
  const Tensor x = Tensor::from_data(probe_shape_, probe_data_);
  ProbeResult pr;
  pr.divergence.reserve(clean_acts_.size());
  std::size_t pos = 0;
  bool mismatch = false;
  clone.forward_observed(
      x, [&](std::size_t layer, const Layer&, const Tensor& out) {
        if (pos >= clean_acts_.size() || clean_acts_[pos].first != layer ||
            static_cast<long>(clean_acts_[pos].second.size()) !=
                out.numel()) {
          mismatch = true;
          ++pos;
          return;
        }
        const std::vector<float>& clean = clean_acts_[pos].second;
        const float* d = out.data();
        double num = 0.0, den = 0.0;
        for (std::size_t k = 0; k < clean.size(); ++k) {
          const double diff = static_cast<double>(d[k]) - clean[k];
          num += diff * diff;
          den += static_cast<double>(clean[k]) * clean[k];
        }
        const double rel = std::sqrt(num) / (std::sqrt(den) + 1e-12);
        if (pr.first_divergence < 0 && rel > opts_.divergence_threshold) {
          pr.first_divergence = static_cast<int>(pos);
        }
        pr.divergence.push_back(rel);
        ++pos;
      });
  if (mismatch || pos != clean_acts_.size()) return;  // shape drifted; skip
  // Histograms are commutative, so their contents are thread-count
  // invariant; depth "never diverged" records one past the last layer.
  registry()
      .histogram("forensics.probe_first_divergence")
      .record(pr.first_divergence < 0
                  ? static_cast<double>(clean_acts_.size())
                  : pr.first_divergence);
  Histogram& ppm = registry().histogram("forensics.probe_divergence_ppm");
  for (double rel : pr.divergence) ppm.record(rel * 1e6);
  std::lock_guard<std::mutex> lock(mu_);
  agg_[profile].probes[token] = std::move(pr);
}

void ForensicsCollector::record_trial_error(std::uint64_t token,
                                            const std::string& profile,
                                            double error) {
  std::lock_guard<std::mutex> lock(mu_);
  agg_[profile].errors[token] = error;
}

namespace {

struct ClassAgg {
  std::size_t flips = 0;
  double err_weight = 0.0;  // sum over trials of err(trial) * flips(trial)
};

}  // namespace

Json ForensicsCollector::to_json(std::uint64_t counter_words_patched) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultLedger& ledger = fault_ledger();
  Json j = Json::object();
  Json opts = Json::object();
  opts.set("probe_images", opts_.probe_images);
  opts.set("divergence_threshold", opts_.divergence_threshold);
  j.set("options", std::move(opts));

  const FaultLedger::ProfileTotals all = ledger.totals();
  Json lj = Json::object();
  lj.set("flips", static_cast<std::uint64_t>(all.flips));
  lj.set("words_changed", static_cast<std::uint64_t>(all.words_changed));
  lj.set("applies", static_cast<std::uint64_t>(all.applies));
  j.set("ledger", std::move(lj));
  j.set("counter_words_patched", counter_words_patched);
  j.set("counter_reconciles", all.words_changed == counter_words_patched);

  Json profiles = Json::object();
  for (const std::string& name : ledger.profiles()) {
    const std::vector<FlipRecord> recs = ledger.records(name);
    const FaultLedger::ProfileTotals totals = ledger.totals(name);
    const auto agg_it = agg_.find(name);
    const ProfileAgg* agg = agg_it == agg_.end() ? nullptr : &agg_it->second;

    Json pj = Json::object();
    pj.set("flips", static_cast<std::uint64_t>(totals.flips));
    pj.set("words_changed", static_cast<std::uint64_t>(totals.words_changed));
    pj.set("applies", static_cast<std::uint64_t>(totals.applies));

    // Per-trial flip tallies by tensor / bit position / bit class.
    std::map<std::uint32_t, std::size_t> by_tensor;
    std::map<int, std::size_t> by_bit;
    ClassAgg by_class[3];
    std::map<std::uint64_t, std::size_t> class_token_flips[3];
    std::set<std::uint64_t> tokens;
    for (const FlipRecord& r : recs) {
      tokens.insert(r.token);
      ++by_tensor[r.tensor];
      ++by_bit[r.bit];
      ++by_class[r.bit_class].flips;
      ++class_token_flips[r.bit_class][r.token];
    }
    pj.set("trials", static_cast<std::uint64_t>(tokens.size()));

    double mean_err = 0.0;
    if (agg != nullptr && !agg->errors.empty()) {
      for (const auto& [_, e] : agg->errors) mean_err += e;
      mean_err /= static_cast<double>(agg->errors.size());
      pj.set("mean_err", mean_err);
    }

    Json tj = Json::array();
    for (const auto& [tensor, flips] : by_tensor) {
      Json e = Json::object();
      e.set("tensor", static_cast<long>(tensor));
      e.set("flips", static_cast<std::uint64_t>(flips));
      e.set("fraction", totals.flips == 0
                            ? 0.0
                            : static_cast<double>(flips) / totals.flips);
      tj.push_back(std::move(e));
    }
    pj.set("by_tensor", std::move(tj));
    // Flip mass concentration across tensors: max single-tensor share. An
    // adversarial campaign piles onto few layers; random spreads by size.
    std::size_t top_tensor = 0;
    for (const auto& [_, flips] : by_tensor) {
      top_tensor = std::max(top_tensor, flips);
    }
    pj.set("top_tensor_fraction",
           totals.flips == 0
               ? 0.0
               : static_cast<double>(top_tensor) / totals.flips);

    Json bj = Json::array();
    for (const auto& [bit, flips] : by_bit) {
      Json e = Json::object();
      e.set("bit", bit);
      e.set("flips", static_cast<std::uint64_t>(flips));
      bj.push_back(std::move(e));
    }
    pj.set("by_bit", std::move(bj));

    Json cj = Json::object();
    for (int c = 0; c < 3; ++c) {
      Json e = Json::object();
      e.set("flips", static_cast<std::uint64_t>(by_class[c].flips));
      // Error co-occurrence: mean trial error weighted by this class's
      // flip count per trial, vs the profile's unweighted mean. A class
      // whose flips drive misclassification pulls its weighted mean above
      // the baseline.
      if (agg != nullptr && by_class[c].flips > 0) {
        double w_err = 0.0, w = 0.0;
        for (const auto& [token, flips] : class_token_flips[c]) {
          const auto e_it = agg->errors.find(token);
          if (e_it == agg->errors.end()) continue;
          w_err += e_it->second * static_cast<double>(flips);
          w += static_cast<double>(flips);
        }
        if (w > 0.0) e.set("err_weighted", w_err / w);
      }
      cj.set(bit_class_name(static_cast<BitClass>(c)), std::move(e));
    }
    pj.set("by_class", std::move(cj));
    pj.set("msb_fraction", totals.flips == 0
                               ? 0.0
                               : static_cast<double>(
                                     by_class[static_cast<int>(
                                         BitClass::kMsb)].flips) /
                                     totals.flips);

    if (agg != nullptr && !agg->probes.empty()) {
      Json prj = Json::object();
      std::vector<double> layer_sum;
      double depth_sum = 0.0;
      std::size_t never = 0;
      for (const auto& [_, pr] : agg->probes) {
        if (layer_sum.size() < pr.divergence.size()) {
          layer_sum.resize(pr.divergence.size(), 0.0);
        }
        for (std::size_t i = 0; i < pr.divergence.size(); ++i) {
          layer_sum[i] += pr.divergence[i];
        }
        if (pr.first_divergence < 0) {
          ++never;
          depth_sum += static_cast<double>(layer_sum.size());
        } else {
          depth_sum += pr.first_divergence;
        }
      }
      const double n = static_cast<double>(agg->probes.size());
      prj.set("trials", static_cast<std::uint64_t>(agg->probes.size()));
      prj.set("mean_first_divergence", depth_sum / n);
      prj.set("never_diverged", static_cast<std::uint64_t>(never));
      Json layers = Json::array();
      for (double s : layer_sum) layers.push_back(s / n);
      prj.set("mean_layer_divergence", std::move(layers));
      pj.set("probes", std::move(prj));
    }
    profiles.set(name, std::move(pj));
  }
  j.set("profiles", std::move(profiles));
  return j;
}

}  // namespace ber::obs
