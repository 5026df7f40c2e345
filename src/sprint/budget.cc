#include "src/sprint/budget.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace msprint {

SprintBudget::SprintBudget(double capacity_seconds, double refill_seconds) {
  if (capacity_seconds < 0.0 || refill_seconds <= 0.0) {
    throw std::invalid_argument("invalid budget parameters");
  }
  capacity_ = capacity_seconds;
  refill_rate_ = capacity_seconds / refill_seconds;
  level_ = capacity_seconds;
}

void SprintBudget::Advance(double now) const {
  assert(!std::isnan(now));
  if (!std::isfinite(now)) {
    throw std::invalid_argument("budget time must be finite");
  }
  if (now < last_update_) {
    ++time_regressions_;
    return;
  }
  if (now == last_update_) {
    return;
  }
  level_ = std::min(capacity_, level_ + refill_rate_ * (now - last_update_));
  last_update_ = now;
}

double SprintBudget::Available(double now) const {
  Advance(now);
  return level_;
}

double SprintBudget::ConsumeUpTo(double now, double amount) {
  Advance(now);
  const double granted = std::min(level_, std::max(0.0, amount));
  level_ -= granted;
  total_consumed_ += granted;
  return granted;
}

bool SprintBudget::TryConsume(double now, double amount) {
  Advance(now);
  if (level_ + 1e-12 < amount) {
    return false;
  }
  level_ -= amount;
  total_consumed_ += amount;
  return true;
}

void SprintBudget::ConsumeAllowingDebt(double now, double amount) {
  Advance(now);
  const bool was_solvent = level_ >= 0.0;
  level_ -= std::max(0.0, amount);
  total_consumed_ += std::max(0.0, amount);
  if (was_solvent && level_ < 0.0) {
    ++overdraw_count_;
  }
}

double SprintBudget::TimeUntilAvailable(double now, double amount) const {
  Advance(now);
  if (amount <= level_) {
    return now;
  }
  if (refill_rate_ <= 0.0 || amount > capacity_) {
    return std::numeric_limits<double>::infinity();
  }
  return now + (amount - level_) / refill_rate_;
}

void SprintBudget::Reset(double now) {
  assert(!std::isnan(now));
  if (!std::isfinite(now)) {
    throw std::invalid_argument("budget time must be finite");
  }
  if (now < last_update_) {
    ++time_regressions_;
    now = last_update_;
  }
  level_ = capacity_;
  last_update_ = now;
  total_consumed_ = 0.0;
}

void SprintBudget::Serialize(persist::Writer& w) const {
  w.PutF64(capacity_);
  w.PutF64(refill_rate_);
  w.PutF64(level_);
  w.PutF64(last_update_);
  w.PutU64(time_regressions_);
  w.PutF64(total_consumed_);
  w.PutU64(overdraw_count_);
}

SprintBudget SprintBudget::Deserialize(persist::Reader& r) {
  SprintBudget budget;
  budget.capacity_ = r.GetFiniteF64("budget capacity");
  budget.refill_rate_ = r.GetFiniteF64("budget refill rate");
  // level_ may legitimately be negative (ConsumeAllowingDebt), but never
  // non-finite.
  budget.level_ = r.GetFiniteF64("budget level");
  budget.last_update_ = r.GetFiniteF64("budget clock watermark");
  budget.time_regressions_ = static_cast<size_t>(r.GetU64());
  budget.total_consumed_ = r.GetFiniteF64("budget total consumed");
  budget.overdraw_count_ = static_cast<size_t>(r.GetU64());
  if (budget.capacity_ < 0.0 || budget.refill_rate_ < 0.0 ||
      budget.level_ > budget.capacity_ || budget.total_consumed_ < 0.0) {
    throw persist::PersistError(persist::ErrorCode::kFormat,
                                "inconsistent budget state");
  }
  return budget;
}

}  // namespace msprint
