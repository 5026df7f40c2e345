// Crash-safety contract of the persistence layer: byte-exact round trips
// through the Writer/Reader primitives and the checksummed record
// container, a typed PersistError for every malformation (never a crash,
// never UB, never a silently wrong artifact), atomic file replacement that
// survives torn writes, and a seed-driven corruption harness that feeds
// thousands of mutated checkpoints to the loaders.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fileio.h"
#include "src/obs/slo.h"
#include "src/online/advisor.h"
#include "src/persist/checkpoint.h"
#include "src/persist/corruption.h"
#include "src/persist/persist.h"
#include "src/profiler/profile_io.h"
#include "src/robust/admission.h"
#include "src/robust/retry.h"
#include "src/sprint/budget.h"

namespace msprint {
namespace {

using persist::ErrorCode;
using persist::PersistError;
using persist::Reader;
using persist::RecordReader;
using persist::RecordWriter;
using persist::Writer;

// Runs `fn`, asserting it throws PersistError, and returns the code.
template <typename Fn>
ErrorCode CodeOf(Fn&& fn) {
  try {
    fn();
  } catch (const PersistError& error) {
    return error.code();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "expected PersistError, got: " << error.what();
    return ErrorCode::kIo;
  }
  ADD_FAILURE() << "expected PersistError, got success";
  return ErrorCode::kIo;
}

// ------------------------------------------------------------- primitives

TEST(WireFormatTest, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutF64(3.141592653589793);
  w.PutBool(true);
  w.PutBool(false);
  w.PutString("hello sprint");
  w.PutDoubles({1.5, -0.0, 2.25e-300});
  const std::string bytes = w.bytes();

  Reader r(bytes);
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetF64(), 3.141592653589793);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_EQ(r.GetString(), "hello sprint");
  const std::vector<double> doubles = r.GetDoubles();
  ASSERT_EQ(doubles.size(), 3u);
  EXPECT_EQ(doubles[0], 1.5);
  EXPECT_TRUE(std::signbit(doubles[1]));  // -0.0 survives bit-exactly
  EXPECT_EQ(doubles[2], 2.25e-300);       // subnormal-adjacent magnitude
  r.ExpectEnd();
}

TEST(WireFormatTest, DoubleBitPatternsAreExact) {
  // GetF64 must hand back the exact bit pattern, NaN payload included.
  const std::vector<uint64_t> patterns = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest subnormal
      0x7FEFFFFFFFFFFFFFull,  // largest finite
      0x7FF8000000000001ull,  // quiet NaN with payload
  };
  for (const uint64_t pattern : patterns) {
    double value;
    std::memcpy(&value, &pattern, sizeof(value));
    Writer w;
    w.PutF64(value);
    Reader r(w.bytes());
    const double back = r.GetF64();
    uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof(back_bits));
    EXPECT_EQ(back_bits, pattern);
  }
}

TEST(WireFormatTest, Fingerprint64IsStableAcrossRuns) {
  // The mc checker's state dedup stores these across a whole search and
  // the report quotes derived counts, so the function must be a pure,
  // platform-stable function of the bytes. Pin known values.
  EXPECT_EQ(persist::Fingerprint64(""), persist::Fingerprint64(""));
  const uint64_t empty = persist::Fingerprint64("");
  const uint64_t abc = persist::Fingerprint64("abc");
  EXPECT_NE(empty, abc);
  EXPECT_EQ(persist::Fingerprint64("abc"), abc);
  EXPECT_EQ(persist::Fingerprint64(std::string("abc")), abc);
}

TEST(WireFormatTest, Fingerprint64SeparatesNearbyPayloads) {
  // Single-bit and single-byte perturbations of a realistic payload must
  // produce distinct fingerprints — a dedup map keyed on a weak hash
  // would silently prune live states.
  Writer w;
  w.PutF64(123.456);
  w.PutU64(7);
  w.PutString("ladder");
  const std::string base = w.bytes();
  const uint64_t base_fp = persist::Fingerprint64(base);
  std::vector<uint64_t> seen = {base_fp};
  for (size_t i = 0; i < base.size(); ++i) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string mutated = base;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      const uint64_t fp = persist::Fingerprint64(mutated);
      for (const uint64_t prior : seen) {
        EXPECT_NE(fp, prior) << "collision at byte " << i;
      }
      seen.push_back(fp);
    }
  }
  // Length extension with a zero byte also changes the fingerprint.
  EXPECT_NE(persist::Fingerprint64(base + std::string(1, '\0')), base_fp);
}

TEST(WireFormatTest, ReaderFailsClosed) {
  // Truncation at every primitive.
  EXPECT_EQ(CodeOf([] { Reader(std::string_view{}).GetU8(); }),
            ErrorCode::kTruncated);
  EXPECT_EQ(CodeOf([] { Reader("abc").GetU32(); }), ErrorCode::kTruncated);
  EXPECT_EQ(CodeOf([] { Reader("abcdefg").GetU64(); }),
            ErrorCode::kTruncated);
  EXPECT_EQ(CodeOf([] { Reader("abcdefg").GetF64(); }),
            ErrorCode::kTruncated);

  // Strict bool: any byte beyond 0/1 is a format error.
  {
    Writer w;
    w.PutU8(2);
    const std::string bytes = w.bytes();
    EXPECT_EQ(CodeOf([&] { Reader(bytes).GetBool(); }), ErrorCode::kFormat);
  }

  // Non-finite doubles are rejected where finiteness is the contract.
  {
    Writer w;
    w.PutF64(std::numeric_limits<double>::quiet_NaN());
    const std::string bytes = w.bytes();
    EXPECT_EQ(CodeOf([&] { Reader(bytes).GetFiniteF64("field"); }),
              ErrorCode::kFormat);
  }

  // Trailing bytes after a complete parse.
  {
    Writer w;
    w.PutU32(7);
    w.PutU8(0);
    const std::string bytes = w.bytes();
    Reader r(bytes);
    r.GetU32();
    EXPECT_EQ(CodeOf([&] { r.ExpectEnd(); }), ErrorCode::kFormat);
  }
}

TEST(WireFormatTest, CountBombRejectedBeforeAllocation) {
  // A corrupted element count claiming ~1e18 doubles must be rejected by
  // comparing against the bytes that actually remain — not by attempting
  // the allocation.
  Writer w;
  w.PutU64(1000000000000000000ull);
  w.PutF64(1.0);
  const std::string bytes = w.bytes();
  {
    Reader r(bytes);
    EXPECT_EQ(CodeOf([&] { r.GetCount(sizeof(double), "element"); }),
              ErrorCode::kTruncated);
  }
  {
    Reader r(bytes);
    EXPECT_EQ(CodeOf([&] { r.GetDoubles(); }), ErrorCode::kTruncated);
  }
}

// ------------------------------------------------------- record container

RecordWriter TwoSectionRecord() {
  RecordWriter record;
  record.AddSection("alpha", "payload-a");
  record.AddSection("beta", std::string("\x00\x01\x02", 3));
  return record;
}

TEST(RecordTest, SealParseRoundTrip) {
  const std::string bytes = TwoSectionRecord().Seal();
  const RecordReader record = RecordReader::Parse(bytes);
  EXPECT_EQ(record.version(), persist::kFormatVersion);
  EXPECT_TRUE(record.Has("alpha"));
  EXPECT_FALSE(record.Has("gamma"));
  EXPECT_EQ(record.Section("alpha"), "payload-a");
  EXPECT_EQ(record.Section("beta"), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(CodeOf([&] { record.Section("gamma"); }),
            ErrorCode::kMissingSection);
}

TEST(RecordTest, ErrorTaxonomyPerMalformation) {
  const std::string good = TwoSectionRecord().Seal();

  // Not a msprint record at all.
  std::string bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(CodeOf([&] { RecordReader::Parse(bad_magic); }),
            ErrorCode::kBadMagic);

  // Written by a future format version.
  const std::string future =
      TwoSectionRecord().Seal(persist::kFormatVersion + 1);
  EXPECT_EQ(CodeOf([&] { RecordReader::Parse(future); }),
            ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(CodeOf([&] { RecordReader::Parse(TwoSectionRecord().Seal(0)); }),
            ErrorCode::kUnsupportedVersion);

  // Every possible truncation point fails typed — magic, header or body.
  for (size_t len = 0; len < good.size(); ++len) {
    const std::string prefix = good.substr(0, len);
    try {
      RecordReader::Parse(prefix);
      ADD_FAILURE() << "truncation to " << len << " bytes parsed";
    } catch (const PersistError&) {
    }
  }

  // A flipped payload byte is caught by the section checksum.
  std::string flipped = good;
  flipped[good.size() - 6] ^= 0x10;  // inside beta's payload/CRC area
  EXPECT_THROW(RecordReader::Parse(flipped), PersistError);

  // Trailing bytes after the last section.
  EXPECT_EQ(CodeOf([&] { RecordReader::Parse(good + "x"); }),
            ErrorCode::kFormat);

  // Duplicate section names.
  RecordWriter duplicated;
  duplicated.AddSection("alpha", "one");
  duplicated.AddSection("alpha", "two");
  const std::string dup_bytes = duplicated.Seal();
  EXPECT_EQ(CodeOf([&] { RecordReader::Parse(dup_bytes); }),
            ErrorCode::kFormat);
}

// ---------------------------------------------------------- durable files

TEST(DurableFileTest, MissingFileIsIoError) {
  EXPECT_EQ(
      CodeOf([] { persist::ReadRecordFromFile("/nonexistent/record.msp"); }),
      ErrorCode::kIo);
}

TEST(DurableFileTest, StaleTmpDoesNotPoisonNextWrite) {
  const std::string path = "/tmp/msprint_persist_stale.msp";
  std::remove(path.c_str());
  {
    // A crashed writer's leftover: garbage at the tmp path.
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "torn garbage from a previous crash";
  }
  persist::WriteRecordToFile(path, TwoSectionRecord());
  const RecordReader record = persist::ReadRecordFromFile(path);
  EXPECT_EQ(record.Section("alpha"), "payload-a");
}

TEST(DurableFileTest, TruncatedFileFailsTyped) {
  const std::string path = "/tmp/msprint_persist_truncated.msp";
  persist::WriteRecordToFile(path, TwoSectionRecord());
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() / 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(CodeOf([&] { persist::ReadRecordFromFile(path); }),
            ErrorCode::kTruncated);
}

// ------------------------------------------------- estimators and budget

TEST(StateRoundTripTest, RateEstimatorBitExact) {
  SlidingWindowRateEstimator original(120.0, TimestampPolicy::kClamp);
  original.OnArrival(10.0);
  original.OnArrival(12.5);
  original.OnArrival(11.0);  // clamped: counts as out-of-order
  original.OnArrival(30.0);

  Writer w;
  original.Serialize(w);
  Reader r(w.bytes());
  SlidingWindowRateEstimator restored =
      SlidingWindowRateEstimator::Deserialize(r);
  r.ExpectEnd();

  EXPECT_EQ(restored.out_of_order_count(), original.out_of_order_count());
  for (double t : {30.0, 55.5, 131.0}) {
    EXPECT_EQ(restored.RatePerSecond(t), original.RatePerSecond(t));
    EXPECT_EQ(restored.EventsInWindow(t), original.EventsInWindow(t));
  }
  // Both copies must evolve identically from here on.
  original.OnArrival(40.0);
  restored.OnArrival(40.0);
  EXPECT_EQ(restored.RatePerSecond(45.0), original.RatePerSecond(45.0));

  // Re-serializing the restored copy reproduces the snapshot bytes.
  Writer w2;
  restored.Serialize(w2);
  Writer w3;
  original.Serialize(w3);
  // (`restored` and `original` consumed the same extra arrival above.)
  EXPECT_EQ(w2.bytes(), w3.bytes());
}

TEST(StateRoundTripTest, RateEstimatorRejectsDescendingArrivals) {
  Writer w;
  w.PutF64(60.0);  // window
  w.PutU8(0);      // strict policy
  w.PutU64(0);     // out-of-order count
  w.PutU64(2);     // arrivals
  w.PutF64(5.0);
  w.PutF64(1.0);  // descends: rejected on load
  const std::string bytes = w.bytes();
  Reader r(bytes);
  EXPECT_EQ(CodeOf([&] { SlidingWindowRateEstimator::Deserialize(r); }),
            ErrorCode::kFormat);
}

TEST(StateRoundTripTest, ServiceEstimatorRunningSumsAreExact) {
  ServiceTimeEstimator original(8);
  // Values chosen to leave non-trivial floating-point residue in the
  // running sums; the snapshot must carry the exact accumulator bits.
  for (double s : {0.1, 0.2, 0.3, 1e-9, 7.77, 0.001}) {
    original.OnCompletion(s);
  }
  original.OnCompletion(-1.0);  // rejected, counted

  Writer w;
  original.Serialize(w);
  Reader r(w.bytes());
  ServiceTimeEstimator restored = ServiceTimeEstimator::Deserialize(r);
  r.ExpectEnd();

  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.rejected_count(), original.rejected_count());
  EXPECT_EQ(restored.MeanSeconds(), original.MeanSeconds());
  EXPECT_EQ(restored.CoefficientOfVariation(),
            original.CoefficientOfVariation());
  original.OnCompletion(0.5);
  restored.OnCompletion(0.5);
  EXPECT_EQ(restored.MeanSeconds(), original.MeanSeconds());
}

TEST(StateRoundTripTest, ServiceEstimatorRejectsWindowOverflow) {
  Writer w;
  w.PutU64(2);  // window holds 2
  w.PutU64(0);
  w.PutF64(3.0);
  w.PutF64(5.0);
  w.PutU64(3);  // ...but 3 samples claimed
  w.PutF64(1.0);
  w.PutF64(1.0);
  w.PutF64(1.0);
  const std::string bytes = w.bytes();
  Reader r(bytes);
  EXPECT_EQ(CodeOf([&] { ServiceTimeEstimator::Deserialize(r); }),
            ErrorCode::kFormat);
}

TEST(StateRoundTripTest, DriftDetectorResumesIdentically) {
  DriftDetector original(0.01, 0.5);
  for (int i = 0; i < 20; ++i) {
    original.Observe(1.0 + 0.01 * i);
  }

  Writer w;
  original.Serialize(w);
  Reader r(w.bytes());
  DriftDetector restored = DriftDetector::Deserialize(r);
  r.ExpectEnd();

  EXPECT_EQ(restored.observations(), original.observations());
  EXPECT_EQ(restored.running_mean(), original.running_mean());
  // Feed both the same drifting tail: they must signal on the same step.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.Observe(2.0), original.Observe(2.0)) << "step " << i;
    EXPECT_EQ(restored.running_mean(), original.running_mean());
  }
}

TEST(StateRoundTripTest, BudgetAccruesBitIdenticallyAfterRestore) {
  SprintBudget original = SprintBudget::FromFraction(0.2, 3600.0);
  original.ConsumeUpTo(100.0, 333.333);
  original.ConsumeAllowingDebt(200.0, 500.0);
  original.Available(150.0);  // backwards: clamped + counted

  Writer w;
  original.Serialize(w);
  Reader r(w.bytes());
  SprintBudget restored = SprintBudget::Deserialize(r);
  r.ExpectEnd();

  EXPECT_EQ(restored.capacity(), original.capacity());
  EXPECT_EQ(restored.refill_rate(), original.refill_rate());
  EXPECT_EQ(restored.total_consumed(), original.total_consumed());
  EXPECT_EQ(restored.time_regressions(), original.time_regressions());
  for (double t : {200.0, 345.6, 5000.0}) {
    EXPECT_EQ(restored.Available(t), original.Available(t));
  }
  EXPECT_EQ(restored.ConsumeUpTo(6000.0, 123.456),
            original.ConsumeUpTo(6000.0, 123.456));
  EXPECT_EQ(restored.Available(7000.0), original.Available(7000.0));
}

TEST(StateRoundTripTest, BudgetRejectsInconsistentState) {
  Writer w;
  w.PutF64(10.0);   // capacity
  w.PutF64(0.01);   // refill rate
  w.PutF64(20.0);   // level above capacity: impossible
  w.PutF64(0.0);
  w.PutU64(0);
  w.PutF64(0.0);
  w.PutU64(0);  // overdraw count
  const std::string bytes = w.bytes();
  Reader r(bytes);
  EXPECT_EQ(CodeOf([&] { SprintBudget::Deserialize(r); }),
            ErrorCode::kFormat);
}

// ---------------------------------------------------- composed checkpoint

// A profile with calibrated rows, rich enough to train the forest.
WorkloadProfile CheckpointProfile() {
  WorkloadProfile profile;
  profile.mix = QueryMix::Single(WorkloadId::kJacobi);
  profile.service_rate_per_second = 1.0 / 60.0;
  profile.marginal_rate_per_second = 1.4 / 60.0;
  profile.total_profiling_hours = 12.0;
  Rng rng(17);
  const LognormalDistribution jitter(60.0, 0.25);
  for (int i = 0; i < 64; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  for (int i = 0; i < 24; ++i) {
    ProfileRow row;
    row.utilization = 0.3 + 0.02 * i;
    row.arrival_kind = DistributionKind::kExponential;
    row.timeout_seconds = 40.0 + 10.0 * i;
    row.refill_seconds = 3600.0;
    row.budget_fraction = 0.2;
    row.observed_mean_response_time = 120.0 + 2.0 * i;
    row.observed_median_response_time = 100.0 + 2.0 * i;
    row.fraction_sprinted = 0.4;
    row.fraction_timed_out = 0.2;
    row.run_virtual_seconds = 50000.0;
    row.effective_speedup = 1.1 + 0.01 * i;
    profile.rows.push_back(row);
  }
  return profile;
}

AdvisorConfig SmallAdvisorConfig() {
  AdvisorConfig config;
  config.rate_window_seconds = 300.0;
  config.explore.max_iterations = 60;
  config.explore.num_chains = 2;
  config.explore.seed = 9;
  config.fallback_sim = {600, 60, 1, 97};
  config.base.refill_seconds = 3600.0;
  config.base.budget_fraction = 0.2;
  return config;
}

// Drives an advisor through a deterministic little arrival history so the
// saved state has non-trivial windows and a standing recommendation.
void WarmUp(OnlineAdvisor& advisor) {
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 15.0;
    advisor.OnArrival(t);
    advisor.OnCompletion(t, 55.0 + 0.25 * (i % 7));
    const auto rec = advisor.Recommend(t);
    if (rec.has_value()) {
      advisor.OnObservedResponseTime(t, 1.1 * rec->predicted_response_time);
    }
  }
}

// A deterministically fed SLO pipeline with mid-window state, so the
// checkpoint's "slo" section carries sketches, masks and alert state.
obs::SloConfig FixtureSloConfig() {
  obs::SloConfig config;
  config.window_seconds = 30.0;
  obs::SloObjective objective;
  objective.signal = obs::SloSignal::kP99;
  objective.op = obs::SloOp::kLt;
  objective.threshold = 60.0;
  objective.budget = 0.2;
  config.objectives.push_back(objective);
  obs::SloAnomalyConfig anomaly;
  anomaly.signal = obs::SloSignal::kQueueDepth;
  anomaly.warmup_windows = 3;
  config.anomalies.push_back(anomaly);
  return config;
}

void DriveSloPipeline(obs::SloPipeline& slo, double from, double to) {
  for (double t = from; t < to; t += 7.0) {
    slo.OnArrival(t);
    slo.OnResponse(t + 3.0, 40.0 + 30.0 * std::sin(t), true);
    slo.OnQueueDepth(t + 4.0, 1.0 + std::fmod(t, 5.0));
  }
}

// The trained model and the warmed advisor, built once per test binary:
// warming (each Recommend explores) is nearly all of a fixture's cost, so
// every case starts from a copy of the one warm advisor. A copy saves the
// same state bytes as the original.
struct WarmAdvisor {
  WorkloadProfile profile = CheckpointProfile();
  HybridModel model = HybridModel::Train({&profile});
  AdvisorConfig config = SmallAdvisorConfig();
  OnlineAdvisor advisor{model, profile, config};

  WarmAdvisor() { WarmUp(advisor); }
};

const WarmAdvisor& Warm() {
  static const WarmAdvisor warm;
  return warm;
}

struct CheckpointFixture {
  const WorkloadProfile& profile = Warm().profile;
  const HybridModel& model = Warm().model;
  AdvisorConfig config = Warm().config;
  OnlineAdvisor advisor = Warm().advisor;
  SprintBudget budget = SprintBudget::FromFraction(0.2, 3600.0);
  persist::DriveState drive{41, 40, 600.0};

  std::string SaveBytes(const std::string& path) {
    budget.ConsumeUpTo(600.0, 77.7);
    // Every fixture checkpoint carries an SLO section so the corruption
    // harness downstream fuzzes its payload alongside the older sections.
    obs::SloPipeline slo(FixtureSloConfig());
    DriveSloPipeline(slo, 0.0, 500.0);
    persist::SaveCheckpointToFile(path, profile, model, config, advisor,
                                  budget, drive, nullptr, nullptr, &slo);
    return ReadFileBytes(path);
  }
};

TEST(CheckpointTest, RoundTripRestoresEverything) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_roundtrip.msp";
  fx.SaveBytes(path);

  persist::LoadedCheckpoint loaded = persist::LoadCheckpointFromFile(path);
  EXPECT_EQ(loaded.drive.seed, 41u);
  EXPECT_EQ(loaded.drive.step, 40u);
  EXPECT_EQ(loaded.drive.clock_seconds, 600.0);
  EXPECT_EQ(loaded.config.pool, nullptr);
  EXPECT_EQ(loaded.config.explore.num_chains, 2u);
  EXPECT_EQ(loaded.budget.total_consumed(), fx.budget.total_consumed());
  EXPECT_EQ(loaded.budget.Available(700.0), fx.budget.Available(700.0));

  // The restored model predicts byte-identically to the live one.
  for (const ProfileRow& row : fx.profile.rows) {
    const ModelInput input = ModelInput::FromRow(row);
    EXPECT_EQ(loaded.model.PredictEffectiveRateQph(loaded.profile, input),
              fx.model.PredictEffectiveRateQph(fx.profile, input));
  }

  // A fresh advisor warm-restored from the snapshot recommends exactly
  // what the original would, from the very next event on.
  OnlineAdvisor restored(loaded.model, loaded.profile, loaded.config);
  persist::RestoreAdvisorState(restored, loaded.advisor_state);
  double t = 600.0;
  for (int i = 0; i < 10; ++i) {
    t += 12.0;
    fx.advisor.OnArrival(t);
    restored.OnArrival(t);
    const auto a = fx.advisor.Recommend(t);
    const auto b = restored.Recommend(t);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->timeout_seconds, b->timeout_seconds);
      EXPECT_EQ(a->predicted_response_time, b->predicted_response_time);
      EXPECT_EQ(a->revision, b->revision);
      EXPECT_EQ(a->rung, b->rung);
    }
  }
}

TEST(CheckpointTest, MissingSectionFailsTyped) {
  // A record whose profile section is valid but whose model section is
  // absent: the loader must name the structural problem, not crash.
  std::ostringstream profile_text;
  SaveProfile(CheckpointProfile(), profile_text);
  RecordWriter record;
  record.AddSection("profile", profile_text.str());
  const std::string bytes = record.Seal();
  EXPECT_EQ(CodeOf([&] { persist::ParseCheckpoint(bytes); }),
            ErrorCode::kMissingSection);
}

TEST(CheckpointTest, InterruptedRewriteLeavesPreviousLoadable) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_interrupted.msp";
  const std::string original_bytes = fx.SaveBytes(path);

  // A rewrite that dies before the rename only leaves a tmp file; the
  // checkpoint itself must still be the old, fully valid one.
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "half-written checkpoint cut off by a crash";
  }
  EXPECT_EQ(ReadFileBytes(path), original_bytes);
  const persist::LoadedCheckpoint loaded =
      persist::LoadCheckpointFromFile(path);
  EXPECT_EQ(loaded.drive.step, 40u);

  // The next successful save simply replaces the stale tmp.
  persist::SaveCheckpointToFile(path, fx.profile, fx.model, fx.config,
                                fx.advisor, fx.budget,
                                persist::DriveState{41, 50, 720.0});
  EXPECT_EQ(persist::LoadCheckpointFromFile(path).drive.step, 50u);
}

TEST(CheckpointTest, OverloadSectionsAreOptionalAndRoundTrip) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_overload.msp";

  // Without the overload companions the sections are absent — old
  // checkpoints and new readers agree.
  fx.SaveBytes(path);
  EXPECT_FALSE(persist::LoadCheckpointFromFile(path).admission.has_value());
  EXPECT_FALSE(persist::LoadCheckpointFromFile(path).retry.has_value());

  // With them, the controller and the retry model round-trip bit-exactly.
  robust::AdmissionConfig admission_config;
  admission_config.policy = robust::AdmissionPolicy::kDeadlineAware;
  robust::AdmissionController admission(admission_config, 2);
  admission.OnServiceSample(12.5);
  admission.Admit(10.0, 3, 30.0);
  robust::RetryConfig retry_config;
  retry_config.enabled = true;
  retry_config.clients = 4;
  robust::RetryModel retry(retry_config, 99);
  retry.NextRetryDelay(6, 1, 0.0);
  retry.OnSuccess(2);
  persist::SaveCheckpointToFile(path, fx.profile, fx.model, fx.config,
                                fx.advisor, fx.budget, fx.drive, &admission,
                                &retry);
  persist::LoadedCheckpoint loaded = persist::LoadCheckpointFromFile(path);
  ASSERT_TRUE(loaded.admission.has_value());
  ASSERT_TRUE(loaded.retry.has_value());
  Writer live_w, restored_w;
  admission.Serialize(live_w);
  loaded.admission->Serialize(restored_w);
  EXPECT_EQ(restored_w.bytes(), live_w.bytes());
  Writer live_r, restored_r;
  retry.Serialize(live_r);
  loaded.retry->Serialize(restored_r);
  EXPECT_EQ(restored_r.bytes(), live_r.bytes());
  // The restored jitter stream continues exactly where the live one is.
  EXPECT_EQ(loaded.retry->NextRetryDelay(7, 1, 0.0),
            retry.NextRetryDelay(7, 1, 0.0));

  // The new sections sit under the same record checksums as everything
  // else: mutated checkpoints with overload state still all fail closed.
  const std::string good = ReadFileBytes(path);
  for (uint64_t seed = 0; seed < 300; ++seed) {
    const std::string mutant = persist::CorruptBytes(good, seed);
    ASSERT_NE(mutant, good) << "seed " << seed;
    try {
      persist::ParseCheckpoint(mutant);
      FAIL() << "seed " << seed << " parsed a corrupted overload checkpoint";
    } catch (const PersistError&) {
    }
  }
}

TEST(CheckpointTest, SloSectionIsOptionalAndRoundTripsBitExactly) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_slo.msp";

  // A checkpoint saved without a pipeline has no slo section.
  persist::SaveCheckpointToFile(path, fx.profile, fx.model, fx.config,
                                fx.advisor, fx.budget, fx.drive);
  EXPECT_FALSE(persist::LoadCheckpointFromFile(path).slo.has_value());

  // With one, the full pipeline state — sketches, open window, closed
  // ring, alert and anomaly state — restores bit-exactly.
  obs::SloPipeline slo(FixtureSloConfig());
  DriveSloPipeline(slo, 0.0, 500.0);
  persist::SaveCheckpointToFile(path, fx.profile, fx.model, fx.config,
                                fx.advisor, fx.budget, fx.drive, nullptr,
                                nullptr, &slo);
  persist::LoadedCheckpoint loaded = persist::LoadCheckpointFromFile(path);
  ASSERT_TRUE(loaded.slo.has_value());
  EXPECT_EQ(loaded.slo->SaveState(), slo.SaveState());
  EXPECT_EQ(loaded.slo->FormatTimeline(), slo.FormatTimeline());
}

// The warm-restart contract for telemetry: interrupt a drive mid-window,
// checkpoint, restore, feed the rest — the timeline and summary are
// byte-identical to a drive that was never interrupted.
TEST(CheckpointTest, ResumedSloPipelineReproducesTimelineByteForByte) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_slo_resume.msp";

  obs::SloPipeline uninterrupted(FixtureSloConfig());
  DriveSloPipeline(uninterrupted, 0.0, 1000.0);
  uninterrupted.Finish(1000.0);

  obs::SloPipeline first_half(FixtureSloConfig());
  DriveSloPipeline(first_half, 0.0, 473.0);  // cut mid-window
  persist::SaveCheckpointToFile(path, fx.profile, fx.model, fx.config,
                                fx.advisor, fx.budget, fx.drive, nullptr,
                                nullptr, &first_half);
  persist::LoadedCheckpoint loaded = persist::LoadCheckpointFromFile(path);
  ASSERT_TRUE(loaded.slo.has_value());
  // DriveSloPipeline steps t by 7 from 0, so the cut at 473 saw its last
  // event batch at t = 469; resuming from 476 continues the exact event
  // stream the uninterrupted pipeline consumed.
  obs::SloPipeline resumed = std::move(*loaded.slo);
  DriveSloPipeline(resumed, 476.0, 1000.0);
  resumed.Finish(1000.0);

  EXPECT_EQ(resumed.FormatTimeline(), uninterrupted.FormatTimeline());
  EXPECT_EQ(resumed.FormatSummary(), uninterrupted.FormatSummary());
  EXPECT_GT(resumed.windows_closed(), 20u);
}

TEST(CheckpointTest, AdvisorRestoreIsAllOrNothing) {
  CheckpointFixture fx;

  Writer state_w;
  fx.advisor.SaveState(state_w);
  const std::string good = state_w.bytes();

  // The victim has lived a different history, so a restore that stopped
  // part-way would leave bytes that differ from both payloads.
  OnlineAdvisor victim = fx.advisor;
  for (int i = 0; i < 12; ++i) {
    const double t = 615.0 + 9.0 * i;
    victim.OnArrival(t);
    victim.OnCompletion(t, 70.0 + i);
  }
  Writer before_w;
  victim.SaveState(before_w);
  const std::string before = before_w.bytes();
  ASSERT_NE(before, good);

  // Truncated and trailing-garbage payloads both throw — and must leave
  // the victim byte-identical to its pre-restore state.
  for (const std::string& bad :
       {good.substr(0, good.size() / 2), good + "excess"}) {
    EXPECT_THROW(persist::RestoreAdvisorState(victim, bad), PersistError);
    Writer after_w;
    victim.SaveState(after_w);
    EXPECT_EQ(after_w.bytes(), before);
  }

  // The intact payload still applies.
  persist::RestoreAdvisorState(victim, good);
  EXPECT_EQ(victim.replan_count(), fx.advisor.replan_count());
}

// ---------------------------------------------------- corruption harness

TEST(CorruptionTest, MutationsAreDeterministicAndAlwaysDiffer) {
  const std::string bytes = TwoSectionRecord().Seal();
  for (uint64_t seed = 0; seed < 64; ++seed) {
    persist::CorruptionReport report;
    const std::string a = persist::CorruptBytes(bytes, seed, &report);
    const std::string b = persist::CorruptBytes(bytes, seed);
    EXPECT_EQ(a, b) << "seed " << seed << " not reproducible";
    EXPECT_NE(a, bytes) << "seed " << seed << " was a no-op";
    EXPECT_FALSE(report.mode.empty());
  }
  // Empty input still mutates (gains bytes).
  EXPECT_FALSE(persist::CorruptBytes("", 3).empty());
}

TEST(CorruptionTest, ThousandMutatedCheckpointsAllFailClosed) {
  CheckpointFixture fx;
  const std::string path = "/tmp/msprint_checkpoint_fuzz.msp";
  const std::string good = fx.SaveBytes(path);

  // Sanity: the unmutated bytes parse.
  EXPECT_NO_THROW(persist::ParseCheckpoint(good));

  // Every byte of the record is covered by magic, version, length or
  // checksum validation, so every mutant must raise a typed PersistError —
  // never crash, never hand back a model built from corrupt bytes.
  const int kSeeds = 1200;
  int failures_by_code[8] = {0};
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    persist::CorruptionReport report;
    const std::string mutant = persist::CorruptBytes(good, seed, &report);
    ASSERT_NE(mutant, good) << "seed " << seed;
    try {
      persist::ParseCheckpoint(mutant);
      FAIL() << "seed " << seed << " (" << report.mode << " at offset "
             << report.offset << ") parsed a corrupted checkpoint";
    } catch (const PersistError& error) {
      ++failures_by_code[static_cast<int>(error.code())];
    } catch (const std::exception& error) {
      FAIL() << "seed " << seed << " (" << report.mode
             << ") escaped the typed taxonomy: " << error.what();
    }
  }
  // The harness must actually exercise multiple failure classes.
  int classes_hit = 0;
  for (int count : failures_by_code) {
    classes_hit += count > 0 ? 1 : 0;
  }
  EXPECT_GE(classes_hit, 3);
}

}  // namespace
}  // namespace msprint
