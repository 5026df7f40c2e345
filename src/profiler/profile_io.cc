#include "src/profiler/profile_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "src/common/checksum.h"
#include "src/common/fileio.h"

namespace msprint {

namespace {

constexpr char kMagic[] = "msprint-profile";
constexpr char kVersion[] = "v1";
// Optional trailing integrity line: "checksum <8 hex digits>" over every
// byte that precedes it. v1 files written before the line existed still
// load; when the line is present it must match.
constexpr char kChecksumPrefix[] = "checksum ";

void Expect(std::istream& is, const std::string& token) {
  std::string word;
  if (!(is >> word) || word != token) {
    throw std::runtime_error("profile parse error: expected '" + token +
                             "', got '" + word + "'");
  }
}

std::string FormatCrc32(uint32_t crc) {
  std::ostringstream hex;
  hex << std::hex << std::setfill('0') << std::setw(8) << crc;
  return hex.str();
}

}  // namespace

std::vector<double> LoadArrivalTrace(std::istream& is) {
  std::vector<double> trace;
  std::string line;
  size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const std::string at = "arrival trace line " +
                           std::to_string(line_number) + ": ";
    // Trim leading whitespace.
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(line.substr(first), &consumed);
    } catch (const std::exception&) {
      throw std::runtime_error(at + "not a number: '" + line + "'");
    }
    // Anything after the number may only be whitespace.
    if (line.find_first_not_of(" \t\r", first + consumed) !=
        std::string::npos) {
      throw std::runtime_error(at + "trailing garbage: '" + line + "'");
    }
    if (!std::isfinite(value)) {
      throw std::runtime_error(at + "timestamp must be finite");
    }
    if (!trace.empty() && value < trace.back()) {
      throw std::runtime_error(at + "timestamps must be ascending (" +
                               std::to_string(value) + " after " +
                               std::to_string(trace.back()) + ")");
    }
    trace.push_back(value);
  }
  if (trace.empty()) {
    throw std::runtime_error("arrival trace is empty");
  }
  return trace;
}

std::vector<double> LoadArrivalTraceFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open for reading: " + path);
  }
  return LoadArrivalTrace(file);
}

WorkloadId ParseWorkloadId(const std::string& name) {
  for (WorkloadId id : AllWorkloads()) {
    if (ToString(id) == name) {
      return id;
    }
  }
  throw std::runtime_error("unknown workload name: " + name);
}

MechanismId ParseMechanismId(const std::string& name) {
  for (MechanismId id : kAllMechanisms) {
    if (ToString(id) == name) {
      return id;
    }
  }
  throw std::runtime_error("unknown mechanism name: " + name);
}

DistributionKind ParseDistributionKind(const std::string& name) {
  for (const DistributionKind kind : kAllDistributionKinds) {
    if (ToString(kind) == name) {
      return kind;
    }
  }
  throw std::runtime_error("unknown distribution kind: " + name);
}

namespace {

// Writes the v1 body — everything the trailing checksum line covers.
void SaveProfileBody(const WorkloadProfile& profile, std::ostream& os) {
  os << kMagic << " " << kVersion << "\n";
  os << std::setprecision(17);
  os << "meta " << profile.service_rate_per_second << " "
     << profile.marginal_rate_per_second << " "
     << profile.total_profiling_hours << "\n";
  os << "platform " << ToString(profile.platform.mechanism) << " "
     << profile.platform.throttle_fraction << " "
     << profile.platform.sprint_cpu_fraction << "\n";
  os << "mix " << profile.mix.interference_factor() << " "
     << profile.mix.components().size();
  for (const auto& component : profile.mix.components()) {
    os << " " << ToString(component.workload) << " " << component.weight;
  }
  os << "\n";
  os << "samples " << profile.service_time_samples.size() << "\n";
  for (double sample : profile.service_time_samples) {
    os << sample << "\n";
  }
  os << "rows " << profile.rows.size() << "\n";
  for (const ProfileRow& row : profile.rows) {
    os << row.utilization << " " << ToString(row.arrival_kind) << " "
       << row.timeout_seconds << " " << row.refill_seconds << " "
       << row.budget_fraction << " " << row.observed_mean_response_time
       << " " << row.observed_median_response_time << " "
       << row.fraction_sprinted << " " << row.fraction_timed_out << " "
       << row.run_virtual_seconds << " " << row.effective_speedup << "\n";
  }
  if (!os) {
    throw std::runtime_error("failed writing profile");
  }
}

}  // namespace

void SaveProfile(const WorkloadProfile& profile, std::ostream& os) {
  std::ostringstream body;
  SaveProfileBody(profile, body);
  const std::string text = body.str();
  os << text << kChecksumPrefix << FormatCrc32(Crc32(text)) << "\n";
  if (!os) {
    throw std::runtime_error("failed writing profile");
  }
}

// Profiles encode hours of virtual server time; losing one to a crash
// mid-write is expensive. Write through the atomic tmp+flush+rename
// protocol so the previous profile survives any failure.
void SaveProfileToFile(const WorkloadProfile& profile,
                       const std::string& path) {
  std::ostringstream out;
  SaveProfile(profile, out);
  AtomicWriteFile(path, out.str());
}

namespace {

WorkloadProfile ParseProfileBody(std::istream& is) {
  Expect(is, kMagic);
  Expect(is, kVersion);

  WorkloadProfile profile;
  Expect(is, "meta");
  if (!(is >> profile.service_rate_per_second >>
        profile.marginal_rate_per_second >> profile.total_profiling_hours)) {
    throw std::runtime_error("profile parse error in meta");
  }

  Expect(is, "platform");
  std::string mechanism_name;
  if (!(is >> mechanism_name >> profile.platform.throttle_fraction >>
        profile.platform.sprint_cpu_fraction)) {
    throw std::runtime_error("profile parse error in platform");
  }
  profile.platform.mechanism = ParseMechanismId(mechanism_name);

  Expect(is, "mix");
  double interference = 1.0;
  size_t n_components = 0;
  if (!(is >> interference >> n_components) || n_components == 0) {
    throw std::runtime_error("profile parse error in mix");
  }
  std::vector<QueryMix::Component> components;
  for (size_t i = 0; i < n_components; ++i) {
    std::string workload_name;
    double weight;
    if (!(is >> workload_name >> weight)) {
      throw std::runtime_error("profile parse error in mix component");
    }
    components.push_back({ParseWorkloadId(workload_name), weight});
  }
  profile.mix = QueryMix(std::move(components), interference);

  Expect(is, "samples");
  size_t n_samples = 0;
  if (!(is >> n_samples)) {
    throw std::runtime_error("profile parse error in samples");
  }
  profile.service_time_samples.resize(n_samples);
  for (size_t i = 0; i < n_samples; ++i) {
    if (!(is >> profile.service_time_samples[i])) {
      throw std::runtime_error("profile parse error reading sample");
    }
  }

  Expect(is, "rows");
  size_t n_rows = 0;
  if (!(is >> n_rows)) {
    throw std::runtime_error("profile parse error in rows");
  }
  profile.rows.resize(n_rows);
  for (size_t i = 0; i < n_rows; ++i) {
    ProfileRow& row = profile.rows[i];
    std::string kind_name;
    if (!(is >> row.utilization >> kind_name >> row.timeout_seconds >>
          row.refill_seconds >> row.budget_fraction >>
          row.observed_mean_response_time >>
          row.observed_median_response_time >> row.fraction_sprinted >>
          row.fraction_timed_out >> row.run_virtual_seconds >>
          row.effective_speedup)) {
      throw std::runtime_error("profile parse error reading row");
    }
    row.arrival_kind = ParseDistributionKind(kind_name);
  }
  return profile;
}

}  // namespace

WorkloadProfile LoadProfile(std::istream& is) {
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  // Verify the trailing integrity line when present; v1 files written
  // before the line existed load unchanged.
  const std::string needle = std::string("\n") + kChecksumPrefix;
  const size_t marker = text.rfind(needle);
  if (marker != std::string::npos) {
    const std::string body = text.substr(0, marker + 1);
    std::string stored = text.substr(marker + needle.size());
    while (!stored.empty() &&
           (stored.back() == '\n' || stored.back() == '\r')) {
      stored.pop_back();
    }
    const std::string computed = FormatCrc32(Crc32(body));
    if (stored != computed) {
      throw std::runtime_error("profile checksum mismatch: file says '" +
                               stored + "', contents hash to '" + computed +
                               "'");
    }
    text = body;
  }
  std::istringstream body_stream(text);
  return ParseProfileBody(body_stream);
}

WorkloadProfile LoadProfileFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open for reading: " + path);
  }
  return LoadProfile(file);
}

}  // namespace msprint
