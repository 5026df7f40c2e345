// Tests for profile serialization: round-trips, format errors, and
// interoperability with the model-training pipeline.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/core/models.h"
#include "src/profiler/profile_io.h"

namespace msprint {
namespace {

WorkloadProfile SampleProfile() {
  WorkloadProfile profile;
  profile.mix = MakeMixOne();
  profile.platform.mechanism = MechanismId::kCpuThrottle;
  profile.platform.throttle_fraction = 0.25;
  profile.platform.sprint_cpu_fraction = 0.75;
  profile.service_rate_per_second = 0.0123456789;
  profile.marginal_rate_per_second = 0.023456789;
  profile.total_profiling_hours = 7.25;
  profile.service_time_samples = {10.5, 20.25, 30.125, 40.0625};

  ProfileRow row;
  row.utilization = 0.75;
  row.arrival_kind = DistributionKind::kPareto;
  row.timeout_seconds = 120.0;
  row.refill_seconds = 500.0;
  row.budget_fraction = 0.4;
  row.observed_mean_response_time = 321.75;
  row.observed_median_response_time = 280.5;
  row.fraction_sprinted = 0.625;
  row.fraction_timed_out = 0.875;
  row.run_virtual_seconds = 123456.0;
  row.effective_speedup = 1.3125;
  profile.rows.push_back(row);
  row.arrival_kind = DistributionKind::kExponential;
  row.timeout_seconds = 50.0;
  profile.rows.push_back(row);
  return profile;
}

TEST(ProfileIoTest, RoundTripPreservesEverything) {
  const WorkloadProfile original = SampleProfile();
  std::stringstream stream;
  SaveProfile(original, stream);
  const WorkloadProfile loaded = LoadProfile(stream);

  EXPECT_DOUBLE_EQ(loaded.service_rate_per_second,
                   original.service_rate_per_second);
  EXPECT_DOUBLE_EQ(loaded.marginal_rate_per_second,
                   original.marginal_rate_per_second);
  EXPECT_DOUBLE_EQ(loaded.total_profiling_hours,
                   original.total_profiling_hours);
  EXPECT_EQ(loaded.platform.mechanism, MechanismId::kCpuThrottle);
  EXPECT_DOUBLE_EQ(loaded.platform.throttle_fraction, 0.25);
  EXPECT_DOUBLE_EQ(loaded.platform.sprint_cpu_fraction, 0.75);

  ASSERT_EQ(loaded.mix.components().size(), 2u);
  EXPECT_EQ(loaded.mix.components()[0].workload, WorkloadId::kJacobi);
  EXPECT_DOUBLE_EQ(loaded.mix.interference_factor(),
                   original.mix.interference_factor());

  ASSERT_EQ(loaded.service_time_samples.size(), 4u);
  EXPECT_DOUBLE_EQ(loaded.service_time_samples[2], 30.125);

  ASSERT_EQ(loaded.rows.size(), 2u);
  const ProfileRow& row = loaded.rows[0];
  EXPECT_DOUBLE_EQ(row.utilization, 0.75);
  EXPECT_EQ(row.arrival_kind, DistributionKind::kPareto);
  EXPECT_DOUBLE_EQ(row.timeout_seconds, 120.0);
  EXPECT_DOUBLE_EQ(row.observed_mean_response_time, 321.75);
  EXPECT_DOUBLE_EQ(row.effective_speedup, 1.3125);
  EXPECT_EQ(loaded.rows[1].arrival_kind, DistributionKind::kExponential);
}

TEST(ProfileIoTest, FileRoundTrip) {
  const WorkloadProfile original = SampleProfile();
  const std::string path = "/tmp/msprint_profile_io_test.prof";
  SaveProfileToFile(original, path);
  const WorkloadProfile loaded = LoadProfileFromFile(path);
  EXPECT_EQ(loaded.rows.size(), original.rows.size());
  EXPECT_DOUBLE_EQ(loaded.service_rate_per_second,
                   original.service_rate_per_second);
}

TEST(ProfileIoTest, LoadedProfileTrainsModel) {
  // A loaded profile must plug straight into HybridModel::Train.
  WorkloadProfile original = SampleProfile();
  // Give the forest a few more rows to chew on.
  for (int i = 0; i < 20; ++i) {
    ProfileRow row = original.rows[0];
    row.timeout_seconds = 40.0 + 10.0 * i;
    row.effective_speedup = 1.1 + 0.01 * i;
    original.rows.push_back(row);
  }
  std::stringstream stream;
  SaveProfile(original, stream);
  const WorkloadProfile loaded = LoadProfile(stream);
  const HybridModel model = HybridModel::Train({&loaded});
  ModelInput input = ModelInput::FromRow(loaded.rows[0]);
  EXPECT_GT(model.PredictEffectiveRateQph(loaded, input), 0.0);
}

TEST(ProfileIoTest, WritesAndVerifiesTrailingChecksum) {
  const WorkloadProfile original = SampleProfile();
  std::stringstream stream;
  SaveProfile(original, stream);
  const std::string text = stream.str();

  // The file ends with the integrity line.
  const size_t marker = text.rfind("\nchecksum ");
  ASSERT_NE(marker, std::string::npos);
  ASSERT_EQ(text.back(), '\n');

  // Any flipped body byte is caught by the checksum before parsing.
  std::string corrupted = text;
  corrupted[marker / 2] ^= 0x01;
  std::stringstream corrupted_stream(corrupted);
  try {
    LoadProfile(corrupted_stream);
    FAIL() << "corrupted profile loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"),
              std::string::npos);
  }

  // A tampered checksum line is equally fatal.
  std::string bad_sum = text;
  bad_sum[text.size() - 2] = bad_sum[text.size() - 2] == '0' ? '1' : '0';
  std::stringstream bad_sum_stream(bad_sum);
  EXPECT_THROW(LoadProfile(bad_sum_stream), std::runtime_error);
}

TEST(ProfileIoTest, LegacyFileWithoutChecksumStillLoads) {
  // Files written before the integrity line existed have no checksum;
  // they must keep loading unchanged.
  const WorkloadProfile original = SampleProfile();
  std::stringstream stream;
  SaveProfile(original, stream);
  std::string text = stream.str();
  const size_t marker = text.rfind("\nchecksum ");
  ASSERT_NE(marker, std::string::npos);
  text.resize(marker + 1);  // drop the integrity line entirely

  std::stringstream legacy(text);
  const WorkloadProfile loaded = LoadProfile(legacy);
  EXPECT_EQ(loaded.rows.size(), original.rows.size());
  EXPECT_DOUBLE_EQ(loaded.service_rate_per_second,
                   original.service_rate_per_second);
}

TEST(ProfileIoTest, SaveToFileLeavesNoTmpAndSurvivesStaleTmp) {
  const WorkloadProfile original = SampleProfile();
  const std::string path = "/tmp/msprint_profile_atomic_test.prof";
  {
    // A dead writer's leftover must not break the next save.
    std::ofstream tmp(path + ".tmp");
    tmp << "torn half-profile";
  }
  SaveProfileToFile(original, path);
  const WorkloadProfile loaded = LoadProfileFromFile(path);
  EXPECT_EQ(loaded.rows.size(), original.rows.size());
  std::ifstream leftover(path + ".tmp");
  EXPECT_FALSE(leftover.good()) << "tmp file survived the rename";
}

TEST(ProfileIoTest, RejectsWrongMagic) {
  std::stringstream stream("not-a-profile v1\n");
  EXPECT_THROW(LoadProfile(stream), std::runtime_error);
}

TEST(ProfileIoTest, RejectsTruncatedInput) {
  const WorkloadProfile original = SampleProfile();
  std::stringstream stream;
  SaveProfile(original, stream);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(LoadProfile(truncated), std::runtime_error);
}

TEST(ProfileIoTest, RejectsUnknownNames) {
  EXPECT_THROW(ParseWorkloadId("NotAWorkload"), std::runtime_error);
  EXPECT_THROW(ParseMechanismId("Nope"), std::runtime_error);
  EXPECT_THROW(ParseDistributionKind("gaussianish"), std::runtime_error);
}

TEST(ProfileIoTest, ParseHelpersRoundTripEnums) {
  for (WorkloadId id : AllWorkloads()) {
    EXPECT_EQ(ParseWorkloadId(ToString(id)), id);
  }
  for (MechanismId id : kAllMechanisms) {
    EXPECT_EQ(ParseMechanismId(ToString(id)), id);
  }
  for (DistributionKind kind : kAllDistributionKinds) {
    EXPECT_EQ(ParseDistributionKind(ToString(kind)), kind);
  }
}

TEST(TraceIoTest, ParsesTimestampsSkippingCommentsAndBlanks) {
  std::stringstream stream(
      "# recorded arrivals\n"
      "1.5\n"
      "\n"
      "  2.25\n"
      "10\n");
  const auto trace = LoadArrivalTrace(stream);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0], 1.5);
  EXPECT_DOUBLE_EQ(trace[1], 2.25);
  EXPECT_DOUBLE_EQ(trace[2], 10.0);
}

TEST(TraceIoTest, RejectsDescendingAndEmpty) {
  std::stringstream descending("5.0\n4.0\n");
  EXPECT_THROW(LoadArrivalTrace(descending), std::runtime_error);
  std::stringstream empty("# nothing here\n");
  EXPECT_THROW(LoadArrivalTrace(empty), std::runtime_error);
}

TEST(TraceIoTest, ErrorsNameTheOffendingLine) {
  auto error_for = [](const std::string& text) -> std::string {
    std::stringstream stream(text);
    try {
      LoadArrivalTrace(stream);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "";
  };
  // Line numbers count every line, comments and blanks included.
  EXPECT_NE(error_for("# header\n1.0\n\nbogus\n").find("line 4"),
            std::string::npos);
  EXPECT_NE(error_for("1.0\n2.0 trailing\n").find("trailing garbage"),
            std::string::npos);
  EXPECT_NE(error_for("1.0\ninf\n").find("finite"), std::string::npos);
  EXPECT_NE(error_for("5.0\n4.0\n").find("ascending"), std::string::npos);
  EXPECT_NE(error_for("5.0\n4.0\n").find("line 2"), std::string::npos);
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = "/tmp/msprint_trace_io_test.txt";
  {
    std::ofstream file(path);
    file << "0.5\n1.5\n2.5\n";
  }
  const auto trace = LoadArrivalTraceFromFile(path);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_THROW(LoadArrivalTraceFromFile("/no/such/trace.txt"),
               std::runtime_error);
}

TEST(ProfileIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadProfileFromFile("/nonexistent/path.prof"),
               std::runtime_error);
}

}  // namespace
}  // namespace msprint
