// ber_run: execute any declarative experiment spec.
//
//   ber_run configs/tab4.json                # run, report JSON on stdout
//   ber_run --table configs/tab4.json       # + paper-style console table
//   ber_run --out report.json configs/...   # write the report to a file
//   ber_run --print-spec configs/...        # parse+validate+echo, no run
//   ber_run --list                          # registry names a spec can use
//   ber_run --list datasets                 # dataset presets + source types
//                                           # + expected file layouts
//   ber_run --metrics-out m.json configs/... # obs registry snapshot to file
//   ber_run --trace-out t.json configs/...   # chrome://tracing trace to file
//   ber_run --forensics-out f.json configs/... # fault-forensics sections
//                                              # (eval.forensics) to a file
//   ber_run --baseline old.json configs/x.json  # run + regression-diff
//   ber_run --baseline old.json --report new.json  # diff two reports, no run
//
// --baseline compares the fresh report against a previous run of the SAME
// spec (api/report_diff.h): incomparable specs or hard regressions (SLO
// attainment drop, new shed, a latency quantile crossing the SLO bound)
// exit 3 — the CI gate. With --report the diff runs on an existing report
// file instead of executing the spec.
//
// Multiple spec files run in order; with --out, report files are suffixed
// by the experiment name when more than one spec is given. Robustness
// results are bit-identical to the historical bench binaries for the same
// scenario (the tab4 config reproduces bench_tab4_randbet exactly — pinned
// in tests/test_api.cpp).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ber.h"

namespace {

using namespace ber;

int usage() {
  std::fprintf(stderr,
               "usage: ber_run [--out FILE] [--metrics-out FILE] "
               "[--trace-out FILE] [--forensics-out FILE] [--baseline FILE] "
               "[--table] [--print-spec] SPEC.json [SPEC.json ...]\n"
               "       ber_run --baseline FILE --report REPORT.json\n"
               "       ber_run --list [datasets]\n");
  return 2;
}

// Diff a report against the baseline file: prints the verdict, writes the
// structured diff next to stderr diagnostics. 0 = pass, 3 = regression or
// incomparable (distinct from 1 = execution error, 2 = usage).
int run_baseline_diff(const std::string& baseline_path, const Json& current) {
  Json baseline;
  try {
    baseline = Json::parse_file(baseline_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ber_run: %s: %s\n", baseline_path.c_str(), e.what());
    return 1;
  }
  api::DiffResult diff;
  try {
    diff = api::diff_reports(baseline, current);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ber_run: baseline diff: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "[ber_run] %s", diff.summary().c_str());
  std::printf("%s\n", diff.to_json().dump(2).c_str());
  return diff.ok() ? 0 : 3;
}

// Dataset listing: registry preset names alongside the source types a
// spec's data.source accepts and the on-disk layout each source expects.
Json dataset_listing() {
  Json j = Json::object();
  Json presets = Json::array();
  for (const auto& n : api::dataset_names()) presets.push_back(n);
  j.set("datasets", presets);
  Json sources = Json::array();
  for (const auto& n : data::dataset_source_names()) sources.push_back(n);
  j.set("dataset_sources", sources);
  j.set("dataset_source_layouts", data::source_layouts());
  return j;
}

void list_registries(const std::string& topic) {
  if (topic == "datasets") {
    std::printf("%s\n", dataset_listing().dump(2).c_str());
    return;
  }
  Json j = Json::object();
  Json faults = Json::array();
  for (const auto& n : api::fault_model_names()) faults.push_back(n);
  j.set("fault_models", faults);
  Json backends = Json::array();
  for (const auto& n : kernels::backend_names()) backends.push_back(n);
  j.set("backends", backends);
  Json zoo_models = Json::array();
  for (const auto& s : zoo::all_specs()) zoo_models.push_back(s.name);
  j.set("zoo_models", zoo_models);
  const auto names_json = [](const std::vector<std::string>& names) {
    Json arr = Json::array();
    for (const std::string& n : names) arr.push_back(n);
    return arr;
  };
  j.set("archs", names_json(api::arch_names()));
  j.set("norms", names_json(api::norm_names()));
  j.set("datasets", names_json(api::dataset_names()));
  j.set("dataset_sources", names_json(data::dataset_source_names()));
  j.set("quant_schemes", names_json(api::quant_scheme_names()));
  j.set("training_methods", names_json(api::method_names()));
  // The fault models eval.forensics can instrument: code-space injectors
  // only (spec validation rejects float-space linf and SECDED-codeword ecc).
  Json fx = Json::array();
  for (const auto& n : api::fault_model_names()) {
    if (n != "ecc" && n != "linf") fx.push_back(n);
  }
  j.set("forensics_fault_models", fx);
  std::printf("%s\n", j.dump(2).c_str());
}

// Paper-style console table of a robustness report (one row per model).
void print_table(const api::Report& report) {
  if (report.spec.kind != "robustness" || report.models.empty()) return;
  const api::ModelReport& first = report.models.front();
  std::vector<std::string> headers{"Model"};
  if (first.clean_err >= 0.0) headers.push_back("Err (%)");
  for (const api::ReportPoint& pt : first.points) {
    headers.push_back(first.axis.empty()
                          ? "RErr"
                          : first.axis + "=" + TablePrinter::fmt(pt.x, 4));
  }
  TablePrinter t(headers);
  for (const api::ModelReport& m : report.models) {
    std::vector<std::string> row{m.label};
    if (m.clean_err >= 0.0) {
      row.push_back(TablePrinter::fmt(100.0 * m.clean_err, 2));
    }
    for (const api::ReportPoint& pt : m.points) {
      row.push_back(TablePrinter::fmt_pm(100.0 * pt.result.mean_rerr,
                                         100.0 * pt.result.std_rerr));
    }
    t.add_row(std::move(row));
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, metrics_path, trace_path, forensics_path;
  std::string baseline_path, report_path;
  bool table = false, print_spec = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      // Optional topic operand ("datasets" adds source file layouts).
      std::string topic;
      if (i + 1 < argc && argv[i + 1][0] != '-') topic = argv[++i];
      list_registries(topic);
      return 0;
    } else if (arg == "--table") {
      table = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--out") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (arg == "--metrics-out") {
      if (++i >= argc) return usage();
      metrics_path = argv[i];
    } else if (arg == "--trace-out") {
      if (++i >= argc) return usage();
      trace_path = argv[i];
    } else if (arg == "--forensics-out") {
      if (++i >= argc) return usage();
      forensics_path = argv[i];
    } else if (arg == "--baseline") {
      if (++i >= argc) return usage();
      baseline_path = argv[i];
    } else if (arg == "--report") {
      if (++i >= argc) return usage();
      report_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (!report_path.empty()) {
    // Diff-only mode: compare an existing report against the baseline
    // without executing anything.
    if (baseline_path.empty() || !files.empty()) return usage();
    Json current;
    try {
      current = Json::parse_file(report_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ber_run: %s: %s\n", report_path.c_str(), e.what());
      return 1;
    }
    return run_baseline_diff(baseline_path, current);
  }
  if (files.empty()) return usage();
  // A baseline pins one spec; "which report regressed?" must be
  // unambiguous.
  if (!baseline_path.empty() && files.size() != 1) return usage();
  if (!trace_path.empty()) obs::start_tracing();

  std::set<std::string> written;
  Json last_report;  // for --baseline (single spec enforced above)
  Json forensics_experiments = Json::array();  // for --forensics-out
  for (const std::string& file : files) {
    api::ExperimentSpec spec;
    try {
      spec = api::ExperimentSpec::load(file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ber_run: %s: %s\n", file.c_str(), e.what());
      return 1;
    }
    if (print_spec) {
      std::printf("%s\n", spec.to_json().dump(2).c_str());
      continue;
    }
    std::fprintf(stderr, "[ber_run] %s: experiment \"%s\" (%s, backend %s)\n",
                 file.c_str(), spec.name.c_str(), spec.kind.c_str(),
                 spec.backend.c_str());
    api::Report report;
    try {
      report = api::Runner(spec).run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ber_run: %s: %s\n", file.c_str(), e.what());
      return 1;
    }
    last_report = report.to_json();
    if (!forensics_path.empty()) {
      Json models = Json::array();
      for (const api::ModelReport& m : report.models) {
        if (m.forensics.is_null()) continue;
        Json mj = Json::object();
        mj.set("name", m.name);
        mj.set("label", m.label);
        mj.set("forensics", m.forensics);
        models.push_back(std::move(mj));
      }
      Json fj = Json::object();
      fj.set("experiment", spec.name);
      fj.set("models", std::move(models));
      forensics_experiments.push_back(std::move(fj));
    }
    const std::string text = last_report.dump(2);
    if (out_path.empty()) {
      std::printf("%s\n", text.c_str());
    } else {
      std::string path = out_path;
      if (files.size() > 1) {
        const std::size_t dot = path.rfind(".json");
        const std::string stem =
            dot == std::string::npos ? path : path.substr(0, dot);
        path = stem + "_" + spec.name + ".json";
        // Two specs may share an experiment name — never clobber an
        // earlier report silently.
        int n = 2;
        while (written.count(path) != 0) {
          path = stem + "_" + spec.name + "_" + std::to_string(n++) + ".json";
        }
      }
      written.insert(path);
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "ber_run: cannot write %s\n", path.c_str());
        return 1;
      }
      out << text << "\n";
      std::fprintf(stderr, "[ber_run] report written to %s\n", path.c_str());
    }
    if (table) print_table(report);
  }
  if (!forensics_path.empty() && !print_spec) {
    Json fj = Json::object();
    fj.set("experiments", std::move(forensics_experiments));
    std::ofstream out(forensics_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "ber_run: cannot write %s\n", forensics_path.c_str());
      return 1;
    }
    out << fj.dump(2) << "\n";
    std::fprintf(stderr, "[ber_run] forensics written to %s\n",
                 forensics_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "ber_run: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    out << obs::registry().to_json().dump(2) << "\n";
    std::fprintf(stderr, "[ber_run] metrics written to %s\n",
                 metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::stop_tracing();
    try {
      obs::write_trace(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ber_run: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "[ber_run] trace written to %s\n", trace_path.c_str());
  }
  if (!baseline_path.empty() && !print_spec) {
    return run_baseline_diff(baseline_path, last_report);
  }
  return 0;
}
