// Renders campaign results in the layout of the paper's tables.
#pragma once

#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/spec_campaign.h"

namespace eval {

/// Table 2: "Mutation coverage of the Devil compiler".
[[nodiscard]] std::string render_table2(
    const std::vector<SpecCampaignRow>& rows);

/// Tables 3/4: "Mutations on C / CDevil code". Rows follow the paper: a
/// compile-time line, then the boot behaviours, then totals. The footer
/// names the device binding the campaign ran against when the result
/// carries one.
[[nodiscard]] std::string render_driver_table(
    const std::string& title, const DriverCampaignResult& result);

/// Headline comparison of the two campaigns (the paper's §4.2 narrative:
/// detected fraction, worst-case "Boot" fraction, ratios). Labels the
/// device when the results carry one.
[[nodiscard]] std::string render_comparison(
    const DriverCampaignResult& c_result,
    const DriverCampaignResult& cdevil_result);

/// One device's full evaluation: Table 3 (original C driver), Table 4
/// (CDevil driver) and the comparison, titled per device so multi-device
/// reports read unambiguously.
[[nodiscard]] std::string render_campaign_tables(
    const DriverCampaignResult& c_result,
    const DriverCampaignResult& cdevil_result);

/// Tables-3/4-shaped table for one fault-injection campaign: a detection
/// line (Devil checks only shown when any fired, mirroring the run-time
/// check row), the failure behaviours, then totals. The footer names the
/// scenario counts and the device binding.
[[nodiscard]] std::string render_fault_table(const std::string& title,
                                             const FaultCampaignResult& result);

/// One device's complete report section: the "=== device ===" banner, the
/// paired campaign tables, the engine-counter line and (when any record
/// carries a trace) the flight-recorder post-mortems. The single-process
/// CLI run, `--merge` and the campaign-service dispatcher all print report
/// bodies through this one function, so their outputs are byte-comparable
/// by construction.
[[nodiscard]] std::string render_device_section(
    const std::string& device, const DriverCampaignResult& c_result,
    const DriverCampaignResult& cdevil_result);

/// The fault-campaign sibling of render_device_section: banner, Table F3
/// (original C driver) and Table F4 (CDevil driver) under injected hardware
/// faults, the headline comparison — detected fraction (Devil check or
/// driver panic) and the silent corrupt-boot fraction, the worst case for
/// the developer — the scenario-counter line, post-mortems.
[[nodiscard]] std::string render_fault_section(
    const std::string& device, const FaultCampaignResult& c_result,
    const FaultCampaignResult& cdevil_result);

}  // namespace eval
