#include "src/obs/obs.h"

#include <atomic>

namespace msprint {
namespace obs {

namespace {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
std::atomic<FlightRecorder*> g_recorder{nullptr};
}  // namespace

MetricsRegistry* ActiveMetrics() {
  return g_metrics.load(std::memory_order_acquire);
}

FlightRecorder* ActiveRecorder() {
  return g_recorder.load(std::memory_order_acquire);
}

ObsSession::ObsSession(MetricsRegistry* metrics, FlightRecorder* recorder)
    : previous_metrics_(g_metrics.load(std::memory_order_acquire)),
      previous_recorder_(g_recorder.load(std::memory_order_acquire)) {
  g_metrics.store(metrics, std::memory_order_release);
  g_recorder.store(recorder, std::memory_order_release);
}

ObsSession::~ObsSession() {
  g_metrics.store(previous_metrics_, std::memory_order_release);
  g_recorder.store(previous_recorder_, std::memory_order_release);
}

}  // namespace obs
}  // namespace msprint
