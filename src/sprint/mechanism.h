// Sprinting mechanism models reproducing Table 1(B).
//
// A mechanism answers three questions for a given workload:
//   1. How slow is the *sustained* (non-sprinting) mode on this platform,
//      relative to the workload's DVFS sustained service time (the unit in
//      which Table 1(C) throughputs are quoted)?
//   2. What is the *marginal* speedup if an entire execution is sprinted?
//   3. What *instantaneous* speedup does a sprint get at a given point of
//      execution progress? This is where phase behaviour, Amdahl's law and
//      memory-bandwidth ceilings live — dynamics the paper's predictive
//      simulator does not model, making them part of what the random
//      decision forest must learn.
//
// Instantaneous curves are calibrated (per workload) so that the harmonic
// mean across a whole execution equals the marginal speedup exactly; the
// catalog's published sustained/burst numbers are thus honored to the digit.

#ifndef MSPRINT_SRC_SPRINT_MECHANISM_H_
#define MSPRINT_SRC_SPRINT_MECHANISM_H_

#include <memory>
#include <string>

#include "src/workload/workload.h"

namespace msprint {

enum class MechanismId {
  kDvfs,        // Xeon 2660 + Pupil power capping (power cap 44-70W -> 90-190W)
  kCoreScale,   // 8 -> 16 active cores at 2.1 GHz via taskset
  kEc2Dvfs,     // EC2 C-class, P-states 1.4 GHz -> 2.0 GHz
  kCpuThrottle, // burstable-instance style CPU time-slicing
};

inline constexpr MechanismId kAllMechanisms[] = {
    MechanismId::kDvfs, MechanismId::kCoreScale, MechanismId::kEc2Dvfs,
    MechanismId::kCpuThrottle};

std::string ToString(MechanismId id);

class SprintMechanism {
 public:
  virtual ~SprintMechanism() = default;

  virtual MechanismId id() const = 0;
  virtual std::string Describe() const = 0;

  // Multiplier on the workload's DVFS sustained service time when running
  // in this platform's sustained mode. 1.0 means "same as DVFS sustained".
  virtual double SustainedServiceMultiplier(
      const WorkloadSpec& workload) const = 0;

  // Speedup (sustained time / sprinted time) if the whole execution sprints.
  virtual double MarginalSpeedup(const WorkloadSpec& workload) const = 0;

  // Speedup at execution progress tau in [0,1) while sprinting. Integrates
  // (harmonically) to MarginalSpeedup over a full run.
  virtual double InstantSpeedup(const WorkloadSpec& workload,
                                double tau) const = 0;

  // One-time latency (seconds) to engage the sprint (e.g. Pupil searching
  // DVFS settings, thread migration for core scaling). Paid by the query
  // being accelerated; invisible to the predictive simulator.
  virtual double ToggleLatencySeconds() const = 0;

  // Mean sustained service time (seconds) for `workload` on this platform.
  double SustainedServiceSeconds(const WorkloadSpec& workload) const {
    return workload.MeanServiceSeconds() * SustainedServiceMultiplier(workload);
  }

  // Sustained throughput in qph on this platform.
  double SustainedRateQph(const WorkloadSpec& workload) const {
    return kSecondsPerHour / SustainedServiceSeconds(workload);
  }

  // Fully-sprinted throughput in qph on this platform.
  double BurstRateQph(const WorkloadSpec& workload) const {
    return SustainedRateQph(workload) * MarginalSpeedup(workload);
  }
};

// DVFS with Pupil power capping on the Xeon 2660 (Table 1B row 1). The
// reference platform: sustained multiplier 1.0 and marginal speedups are
// exactly Table 1(C)'s burst/sustained ratios.
class DvfsMechanism final : public SprintMechanism {
 public:
  MechanismId id() const override { return MechanismId::kDvfs; }
  std::string Describe() const override;
  double SustainedServiceMultiplier(const WorkloadSpec&) const override;
  double MarginalSpeedup(const WorkloadSpec& workload) const override;
  double InstantSpeedup(const WorkloadSpec& workload,
                        double tau) const override;
  double ToggleLatencySeconds() const override { return 3.0; }
};

// Core scaling 8 -> 16 cores (Table 1B row 2). Sprint speedup follows
// Amdahl's law per phase: doubling cores helps only the parallel share,
// and the parallel share shrinks toward the end of runs (Section 3.3:
// Jacobi 1.87X whole-run vs 1.5X for the final 22 of 202 seconds).
class CoreScaleMechanism final : public SprintMechanism {
 public:
  MechanismId id() const override { return MechanismId::kCoreScale; }
  std::string Describe() const override;
  double SustainedServiceMultiplier(const WorkloadSpec&) const override;
  double MarginalSpeedup(const WorkloadSpec& workload) const override;
  double InstantSpeedup(const WorkloadSpec& workload,
                        double tau) const override;
  double ToggleLatencySeconds() const override { return 0.8; }
};

// EC2 C-class DVFS via direct P-state control, 1.4 -> 2.0 GHz (Table 1B
// row 3). Frequency scaling does not help the memory-bound share of
// execution, so effective speedup is below the 1.43X clock ratio.
class Ec2DvfsMechanism final : public SprintMechanism {
 public:
  MechanismId id() const override { return MechanismId::kEc2Dvfs; }
  std::string Describe() const override;
  double SustainedServiceMultiplier(const WorkloadSpec&) const override;
  double MarginalSpeedup(const WorkloadSpec& workload) const override;
  double InstantSpeedup(const WorkloadSpec& workload,
                        double tau) const override;
  double ToggleLatencySeconds() const override { return 0.10; }
};

// CPU throttling as used by AWS Burstable Instances (Section 4). The
// platform time-slices the CPU: sustained throughput is `throttle_fraction`
// of the workload's full (burst) throughput; a sprint raises the slice to
// `sprint_fraction`. Section 4.3's Jacobi example: throttled to 20% of its
// 74 qph sprint throughput -> sustained 14.8 qph, sprint 74 qph (5X).
class CpuThrottleMechanism final : public SprintMechanism {
 public:
  CpuThrottleMechanism(double throttle_fraction, double sprint_fraction);

  MechanismId id() const override { return MechanismId::kCpuThrottle; }
  std::string Describe() const override;
  double SustainedServiceMultiplier(const WorkloadSpec&) const override;
  double MarginalSpeedup(const WorkloadSpec& workload) const override;
  double InstantSpeedup(const WorkloadSpec& workload,
                        double tau) const override;
  double ToggleLatencySeconds() const override { return 0.01; }

  double throttle_fraction() const { return throttle_fraction_; }
  double sprint_fraction() const { return sprint_fraction_; }

 private:
  double throttle_fraction_;
  double sprint_fraction_;
};

// Factory for the fixed-parameter mechanisms (kCpuThrottle defaults to the
// AWS T2 shape: 20% sustained, 100% sprint).
std::unique_ptr<SprintMechanism> MakeMechanism(MechanismId id);

}  // namespace msprint

#endif  // MSPRINT_SRC_SPRINT_MECHANISM_H_
