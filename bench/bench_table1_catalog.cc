// Reproduces Table 1 of the paper: (A) performance modeling approaches,
// (B) sprinting hardware, and (C) cloud server workloads with sustained and
// burst throughput. Catalog numbers are checked against throughput actually
// measured on the ground-truth testbed.

#include <iostream>

#include "bench/bench_util.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

void PrintApproaches() {
  PrintBanner(std::cout, "Table 1(A): performance modeling approaches");
  TextTable table({"Approach", "Description"});
  table.AddRow({"ANN",
                "multi-layer artificial network maps policies and workload "
                "conditions directly to response time"});
  table.AddRow({"No-ML",
                "timeout-aware queue simulation uses marginal sprint rate "
                "(no machine learning)"});
  table.AddRow({"Hybrid",
                "random forest (10 trees) + timeout-aware simulation"});
  table.Print(std::cout);
}

void PrintHardware() {
  PrintBanner(std::cout, "Table 1(B): sprinting hardware");
  TextTable table({"Mechanism", "Description"});
  for (MechanismId id : kAllMechanisms) {
    const auto mechanism = MakeMechanism(id);
    table.AddRow({ToString(id), mechanism->Describe()});
  }
  table.Print(std::cout);
}

void PrintWorkloads(bench::BenchReport* report) {
  PrintBanner(std::cout,
              "Table 1(C): workloads — catalog vs measured on testbed "
              "(sustained / burst qph, DVFS)");
  TextTable table({"Workload", "Description", "Catalog sust", "Measured sust",
                   "Catalog burst", "Measured burst"});
  for (WorkloadId id : AllWorkloads()) {
    const auto& spec = WorkloadCatalog::Get().spec(id);

    TestbedConfig sustained;
    sustained.mix = QueryMix::Single(id);
    sustained.policy = bench::DvfsPlatform();
    sustained.disable_sprinting = true;
    sustained.num_queries = 4000;
    sustained.warmup_queries = 400;
    sustained.seed = 7;
    const double measured_sustained =
        kSecondsPerHour /
        Testbed::Run(sustained).mean_unsprinted_processing_time;

    TestbedConfig burst = sustained;
    burst.disable_sprinting = false;
    burst.force_full_sprint = true;
    const double measured_burst =
        kSecondsPerHour / Testbed::Run(burst).mean_processing_time;

    table.AddRow({spec.name, spec.description,
                  TextTable::Num(spec.sustained_qph_dvfs, 0) + " qph",
                  TextTable::Num(measured_sustained, 1) + " qph",
                  TextTable::Num(spec.burst_qph_dvfs, 0) + " qph",
                  TextTable::Num(measured_burst, 1) + " qph"});

    report->Scalar(spec.name + "_sustained_qph", measured_sustained);
    report->Scalar(spec.name + "_burst_qph", measured_burst);
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace msprint

int main() {
  msprint::bench::BenchReport report("table1_catalog");
  msprint::PrintApproaches();
  msprint::PrintHardware();
  msprint::PrintWorkloads(&report);
  report.Write();
  return 0;
}
