#include "eval/report.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/table.h"

namespace eval {

std::string render_table2(const std::vector<SpecCampaignRow>& rows) {
  support::TextTable t({"Specification", "Number of lines",
                        "Number of mutation sites", "Number of injected mutants",
                        "% of detected mutants"});
  for (const auto& r : rows) {
    t.add_row({r.name, std::to_string(r.code_lines), std::to_string(r.sites),
               std::to_string(r.mutants),
               support::percent(r.detected, r.mutants)});
  }
  return t.render();
}

namespace {
void add_outcome_row(support::TextTable& t, const DriverCampaignResult& r,
                     Outcome o) {
  t.add_row({outcome_name(o), std::to_string(r.tally.sites_of(o)),
             std::to_string(r.tally.mutants_of(o)),
             support::percent(r.tally.mutants_of(o), r.sample_size)});
}

support::TextTable build_table(const DriverCampaignResult& r) {
  support::TextTable t({"", "Number of mutation sites", "Number of mutants",
                        "Concerned mutants / total nb. of mutants"});
  add_outcome_row(t, r, Outcome::kCompileTime);
  if (r.tally.mutants_of(Outcome::kRunTime) > 0) {
    add_outcome_row(t, r, Outcome::kRunTime);
  }
  add_outcome_row(t, r, Outcome::kCrash);
  add_outcome_row(t, r, Outcome::kInfiniteLoop);
  add_outcome_row(t, r, Outcome::kHalt);
  add_outcome_row(t, r, Outcome::kDamagedBoot);
  add_outcome_row(t, r, Outcome::kBoot);
  if (r.tally.mutants_of(Outcome::kDeadCode) > 0) {
    add_outcome_row(t, r, Outcome::kDeadCode);
  }
  t.add_separator();
  t.add_row({"Total", std::to_string(r.total_sites),
             std::to_string(r.sample_size), "N/A"});
  return t;
}

std::string render_table_at(const std::string& title,
                            const DriverCampaignResult& r,
                            const support::TextTable& t,
                            const std::vector<size_t>& widths) {
  std::ostringstream os;
  os << title << "\n";
  os << t.render(widths);
  os << "(" << r.total_mutants << " mutants generated, " << r.sample_size
     << " sampled for testing";
  if (!r.device.empty()) os << ", device " << r.device;
  if (!r.entry.empty()) os << ", entry " << r.entry;
  os << ")\n";
  return os.str();
}

void add_fault_row(support::TextTable& t, const FaultCampaignResult& r,
                   FaultOutcome o) {
  t.add_row({fault_outcome_name(o), std::to_string(r.tally.ports_of(o)),
             std::to_string(r.tally.scenarios_of(o)),
             support::percent(r.tally.scenarios_of(o), r.sample_size)});
}

support::TextTable build_table(const FaultCampaignResult& r) {
  support::TextTable t({"", "Number of ports", "Number of scenarios",
                        "Concerned scenarios / total nb. of scenarios"});
  if (r.tally.scenarios_of(FaultOutcome::kDevilCheck) > 0) {
    add_fault_row(t, r, FaultOutcome::kDevilCheck);
  }
  add_fault_row(t, r, FaultOutcome::kDriverPanic);
  add_fault_row(t, r, FaultOutcome::kCrash);
  add_fault_row(t, r, FaultOutcome::kHang);
  add_fault_row(t, r, FaultOutcome::kCorruptBoot);
  add_fault_row(t, r, FaultOutcome::kCleanBoot);
  t.add_separator();
  std::set<uint32_t> all_ports;
  for (const auto& [outcome, ports] : r.tally.ports) {
    all_ports.insert(ports.begin(), ports.end());
  }
  t.add_row({"Total", std::to_string(all_ports.size()),
             std::to_string(r.sample_size), "N/A"});
  return t;
}

std::string render_table_at(const std::string& title,
                            const FaultCampaignResult& r,
                            const support::TextTable& t,
                            const std::vector<size_t>& widths) {
  std::ostringstream os;
  os << title << "\n";
  os << t.render(widths);
  os << "(" << r.total_scenarios << " scenarios generated, "
     << r.sample_size << " sampled for testing, "
     << r.triggered_scenarios << " triggered the fault";
  if (!r.device.empty()) os << ", device " << r.device;
  if (!r.entry.empty()) os << ", entry " << r.entry;
  os << ")\n";
  return os.str();
}

/// Element-wise max of two tables' natural widths: the shared column grid
/// for a C/CDevil table pair, so the two tables of one device section line
/// up even when only one of them carries the long outcome labels.
std::vector<size_t> shared_widths(const support::TextTable& a,
                                  const support::TextTable& b) {
  std::vector<size_t> wa = a.measure();
  std::vector<size_t> wb = b.measure();
  if (wb.size() > wa.size()) wa.resize(wb.size(), 0);
  for (size_t c = 0; c < wb.size(); ++c) wa[c] = std::max(wa[c], wb[c]);
  return wa;
}

/// Appends an indented flight-recorder tail (hw::FlightRecorder::
/// render_tail) under a one-line record header.
void append_trace(std::ostringstream& os, const std::string& trace) {
  size_t pos = 0;
  while (pos < trace.size()) {
    size_t nl = trace.find('\n', pos);
    if (nl == std::string::npos) nl = trace.size();
    os << "    " << trace.substr(pos, nl - pos) << "\n";
    pos = nl + 1;
  }
}

double pct(size_t n, size_t d) {
  return d == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                            static_cast<double>(d);
}

/// The wording of one campaign kind's headline comparison.
struct HeadlineText {
  const char* detected;       // title of the detected-fraction block
  const char* more_detected;  // ratio suffix, e.g. "x more errors detected"
  const char* worst;          // title of the worst-case-fraction block
  const char* fewer_worst;    // ratio suffix, e.g. "x fewer undetected errors"
};

/// The headline comparison both campaign kinds print under their paired
/// tables: the device line, then the C and CDevil detected fractions and
/// worst-case fractions (percentages) with their ratios.
std::string render_headline(const std::string& c_device,
                            const std::string& d_device, double c_detected,
                            double d_detected, double c_worst, double d_worst,
                            const HeadlineText& text) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  if (!c_device.empty() || !d_device.empty()) {
    os << "Device under test: " << c_device;
    if (d_device != c_device) {
      os << " (C) vs " << d_device << " (CDevil)";
    }
    os << "\n";
  }
  os << text.detected << "\n";
  os << "  original C driver : " << c_detected << " %\n";
  os << "  Devil (CDevil)    : " << d_detected << " %";
  if (c_detected > 0) {
    os << "   (" << (d_detected / c_detected) << text.more_detected << ")";
  }
  os << "\n";
  os << text.worst << "\n";
  os << "  original C driver : " << c_worst << " %\n";
  os << "  Devil (CDevil)    : " << d_worst << " %";
  if (d_worst > 0) {
    os << "   (" << (c_worst / d_worst) << text.fewer_worst << ")";
  }
  os << "\n";
  return os.str();
}

/// The flight-recorder post-mortems both campaign kinds print: one block per
/// traced record (the non-clean boots of a campaign run with
/// DriverCampaignConfig::flight_recorder), capped at the first `cap` records
/// so multi-thousand-record fleets stay readable. Each block is a one-line
/// header — `describe` writes the record's identity and outcome name, then
/// comes its detail — and the indented trace. Returns "" when no record
/// carries a trace, so callers can print unconditionally.
template <class Record, class Describe>
std::string render_traced(const std::string& title,
                          const std::vector<Record>& records, size_t cap,
                          Describe describe) {
  size_t traced = 0;
  for (const auto& rec : records) {
    if (!rec.trace.empty()) ++traced;
  }
  if (traced == 0 || cap == 0) return {};
  std::ostringstream os;
  os << "Flight-recorder post-mortems: " << title << " (first "
     << std::min(cap, traced) << " of " << traced << " traced records)\n";
  size_t shown = 0;
  for (const auto& rec : records) {
    if (rec.trace.empty()) continue;
    if (shown == cap) break;
    ++shown;
    describe(os, rec);
    if (!rec.detail.empty()) os << " (" << rec.detail << ")";
    os << "\n";
    append_trace(os, rec.trace);
  }
  return os.str();
}

/// The paired tables both campaign kinds print for one device: the C and
/// CDevil tables on one shared column grid, then `headline`. Each table is
/// tagged with its own result's device, so a mismatched pair (wiring
/// mistake, or a deliberate cross-device comparison) is visible instead of
/// silently labelled after the first result.
template <class Result>
std::string render_pair(const Result& c_result, const Result& d_result,
                        const std::string& c_title, const std::string& d_title,
                        const std::string& headline) {
  auto tag = [](const Result& r) {
    return r.device.empty() ? std::string() : " (" + r.device + ")";
  };
  // The pair shares one column grid: a row label or count that only one of
  // the two campaigns produces (a run-time check line, a long driver label)
  // widens both tables, keeping the device section aligned.
  support::TextTable c_table = build_table(c_result);
  support::TextTable d_table = build_table(d_result);
  std::vector<size_t> widths = shared_widths(c_table, d_table);
  std::ostringstream os;
  os << render_table_at(c_title + tag(c_result), c_result, c_table, widths)
     << "\n"
     << render_table_at(d_title + tag(d_result), d_result, d_table, widths)
     << "\n" << headline;
  return os.str();
}
}  // namespace

std::string render_driver_table(const std::string& title,
                                const DriverCampaignResult& r) {
  return render_table_at(title, r, build_table(r), {});
}

std::string render_comparison(const DriverCampaignResult& c_result,
                              const DriverCampaignResult& d_result) {
  return render_headline(
      c_result.device, d_result.device,
      pct(c_result.tally.detected(), c_result.sample_size),
      pct(d_result.tally.detected(), d_result.sample_size),
      pct(c_result.tally.mutants_of(Outcome::kBoot), c_result.sample_size),
      pct(d_result.tally.mutants_of(Outcome::kBoot), d_result.sample_size),
      {"Detected at compile time or run time:", "x more errors detected",
       "Undetected 'Boot' mutants (the worst case for the developer):",
       "x fewer undetected errors"});
}

std::string render_campaign_tables(const DriverCampaignResult& c_result,
                                   const DriverCampaignResult& d_result) {
  return render_pair(c_result, d_result, "Table 3: original C driver",
                     "Table 4: CDevil driver",
                     render_comparison(c_result, d_result));
}

std::string render_fault_table(const std::string& title,
                               const FaultCampaignResult& r) {
  return render_table_at(title, r, build_table(r), {});
}

namespace {

std::string render_fault_comparison(const FaultCampaignResult& c_result,
                                    const FaultCampaignResult& d_result) {
  return render_headline(
      c_result.device, d_result.device,
      pct(c_result.tally.detected(), c_result.sample_size),
      pct(d_result.tally.detected(), d_result.sample_size),
      pct(c_result.tally.scenarios_of(FaultOutcome::kCorruptBoot),
          c_result.sample_size),
      pct(d_result.tally.scenarios_of(FaultOutcome::kCorruptBoot),
          d_result.sample_size),
      {"Injected hardware faults detected (Devil check or driver panic):",
       "x more faults detected",
       "Silent corrupt boots (the worst case for the developer):",
       "x fewer silent corruptions"});
}

std::string render_postmortems(const std::string& title,
                               const DriverCampaignResult& r, size_t cap) {
  return render_traced(
      title, r.records, cap, [](std::ostringstream& os, const MutantRecord& rec) {
        os << "  mutant " << rec.mutant_index << ", site " << rec.site << ": "
           << outcome_name(rec.outcome);
      });
}

std::string render_fault_postmortems(const std::string& title,
                                     const FaultCampaignResult& r,
                                     size_t cap) {
  return render_traced(
      title, r.records, cap, [](std::ostringstream& os, const FaultRecord& rec) {
        os << "  scenario " << rec.scenario_index << " ("
           << rec.plan.describe() << "): " << fault_outcome_name(rec.outcome);
      });
}

std::string render_fault_tables(const FaultCampaignResult& c_result,
                                const FaultCampaignResult& d_result) {
  return render_pair(
      c_result, d_result,
      "Table F3: original C driver under injected hardware faults",
      "Table F4: CDevil driver under injected hardware faults",
      render_fault_comparison(c_result, d_result));
}

}  // namespace

std::string render_device_section(const std::string& device,
                                  const DriverCampaignResult& c_result,
                                  const DriverCampaignResult& d_result) {
  std::ostringstream os;
  os << "=== " << device << " ===\n\n"
     << render_campaign_tables(c_result, d_result) << "\n"
     << "Engine counters [" << device << "]: C dedup "
     << c_result.deduped_mutants << "/" << c_result.sample_size
     << ", prefix-cache " << c_result.prefix_cache_hits << "; CDevil dedup "
     << d_result.deduped_mutants << "/" << d_result.sample_size
     << ", prefix-cache " << d_result.prefix_cache_hits << "\n";
  // Empty unless the campaign ran with the flight recorder (traces ride in
  // the records, so merged and dispatched reports print identical
  // post-mortems).
  std::string pm = render_postmortems("C", c_result, 3) +
                   render_postmortems("CDevil", d_result, 3);
  if (!pm.empty()) os << "\n" << pm;
  return os.str();
}

std::string render_fault_section(const std::string& device,
                                 const FaultCampaignResult& c_result,
                                 const FaultCampaignResult& d_result) {
  std::ostringstream os;
  os << "=== " << device << " (fault injection) ===\n\n"
     << render_fault_tables(c_result, d_result) << "\n"
     << "Scenario counters [" << device << "]: C triggered "
     << c_result.triggered_scenarios << "/" << c_result.sample_size
     << "; CDevil triggered " << d_result.triggered_scenarios << "/"
     << d_result.sample_size << "\n";
  std::string pm = render_fault_postmortems("C", c_result, 3) +
                   render_fault_postmortems("CDevil", d_result, 3);
  if (!pm.empty()) os << "\n" << pm;
  return os.str();
}

}  // namespace eval
