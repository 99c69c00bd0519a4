// SLO scoreboard: turns the cumulative instruments of obs/metrics.h into a
// windowed time-series verdict — "did serving meet its latency SLO in each
// window of this run, and how much error budget is left?"
//
// The scoreboard owns no clock and no thread. A driver (serve/traffic_gen)
// calls close_window() at window boundaries; each call diffs the latency
// histogram against the previous snapshot (Histogram::Snapshot::operator-),
// so a window's p50/p99/p999 and attainment see exactly the requests
// completed inside it — the registry's counters stay cumulative and
// lock-free, the scoreboard does the windowing.
//
// Vocabulary (SRE-standard):
//   attainment   — fraction of a window's completed requests with latency
//                  <= target.latency_us (1.0 for an idle window);
//   slo_met      — attainment >= target.attainment for that window;
//   burn rate    — (1 - attainment) / (1 - target.attainment): 1.0 burns
//                  the error budget exactly as fast as the SLO allows,
//                  >1 is over-budget spending;
//   error budget — the run-level allowance of violating requests,
//                  (1 - target.attainment) * completed; budget_remaining
//                  is the unspent fraction (negative once overdrawn).
//
// Every close_window() also publishes the live values as registry gauges
// (slo.attainment, slo.burn_rate, slo.error_budget_remaining) and counters
// (slo.windows_total, slo.windows_violated), so the JSON metrics snapshot
// carries the scoreboard alongside the raw latency series. to_json() emits
// the timeline section embedded in the serve Report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "obs/metrics.h"

namespace ber::obs {

// The latency SLO a serving run is held to.
struct SloTarget {
  double latency_us = 100000.0;  // per-request latency bound
  double attainment = 0.99;      // goal fraction within bound, in (0, 1)
};

// One closed window of the timeline.
struct SloWindow {
  double t_start_ms = 0.0;  // since scoreboard construction
  double t_end_ms = 0.0;
  std::string phase;         // driver-supplied label (arrival process)
  std::uint64_t offered = 0;    // arrivals the driver generated
  std::uint64_t completed = 0;  // requests fulfilled in the window
  std::uint64_t shed = 0;       // arrivals rejected by admission control
  long queue_depth = 0;         // live backlog (images) at window close
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double attainment = 1.0;
  bool slo_met = true;
  double burn_rate = 0.0;
  double budget_remaining = 1.0;  // cumulative, after this window

  Json to_json() const;
};

class SloScoreboard {
 public:
  // `latency_us` is the histogram completed requests record into (the
  // ReplicaPool's pool-level latency distribution); it must outlive the
  // scoreboard. Construction takes the t0 snapshot: samples recorded
  // before it never enter the timeline.
  SloScoreboard(SloTarget target, const Histogram& latency_us);

  // Closes the window [previous close, now). `offered` / `shed` are the
  // driver's deltas for this window; `queue_depth` is sampled live.
  const SloWindow& close_window(const std::string& phase,
                                std::uint64_t offered, std::uint64_t shed,
                                long queue_depth);

  const std::vector<SloWindow>& windows() const { return windows_; }
  const SloTarget& target() const { return target_; }

  // The timeline section of the serve report:
  // {slo: {...}, windows: [...], summary: {...}} where summary aggregates
  // the whole run (overall attainment, full-run quantiles, budget left).
  Json to_json() const;

 private:
  SloTarget target_;
  const Histogram& latency_;
  Histogram::Snapshot last_;      // at the previous window boundary
  Histogram::Snapshot t0_;        // at construction (full-run baseline)
  std::uint64_t t0_ns_;
  std::uint64_t last_ns_;
  std::uint64_t cum_offered_ = 0, cum_completed_ = 0, cum_shed_ = 0;
  double cum_violations_ = 0.0;   // expected violating requests so far
  std::vector<SloWindow> windows_;
};

}  // namespace ber::obs
