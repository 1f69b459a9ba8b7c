// The two campaign kernels — Tables 3/4 mutant boots and hardware-fault
// boots of the clean driver — share their precondition and baseline checks,
// so the tests of those checks run every case through both.
#pragma once

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"

namespace campaign_kernels {

/// Runs slice `slice` of `config` through the mutation kernel or, with
/// `fault`, through the fault kernel with its default trigger list.
inline void run_kernel(const eval::DriverCampaignConfig& config, bool fault,
                       eval::SampleSlice slice = {}) {
  if (fault) {
    eval::FaultCampaignConfig fault_config;
    fault_config.base = config;
    (void)eval::run_fault_campaign_slice(fault_config, slice);
  } else {
    (void)eval::run_driver_campaign_slice(config, slice);
  }
}

inline const char* kernel_name(bool fault) {
  return fault ? "fault kernel" : "mutation kernel";
}

}  // namespace campaign_kernels
