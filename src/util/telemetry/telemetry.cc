#include "util/telemetry/telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "util/flags.h"
#include "util/logging.h"

namespace landmark {

TelemetryScope::TelemetryScope(TelemetryScopeOptions options)
    : options_(std::move(options)) {
  active_ = !options_.metrics_path.empty() || !options_.trace_path.empty() ||
            !options_.audit_path.empty() || !options_.profile_path.empty() ||
            options_.serve_metrics;
  if (!options_.trace_path.empty()) TraceRecorder::Global().Start();
  if (!options_.profile_path.empty()) SamplingProfiler::Global().Start();
  if (!options_.audit_path.empty()) {
    Result<std::unique_ptr<AuditSink>> sink =
        AuditSink::Open(options_.audit_path);
    if (sink.ok()) {
      audit_sink_ = std::move(sink).ValueOrDie();
    } else {
      LANDMARK_LOG(Error) << sink.status().ToString();
    }
  }
  if (options_.serve_metrics) {
    HttpExporterOptions exporter_options;
    exporter_options.port = options_.metrics_port;
    Result<std::unique_ptr<HttpExporter>> exporter =
        HttpExporter::Start(exporter_options);
    if (exporter.ok()) {
      exporter_ = std::move(exporter).ValueOrDie();
      // Scripts (scripts/check.sh) parse this line to learn the resolved
      // ephemeral port; keep the format stable and flush immediately.
      std::printf("[metrics] listening on http://127.0.0.1:%u/metrics\n",
                  static_cast<unsigned>(exporter_->port()));
      std::fflush(stdout);
    } else {
      LANDMARK_LOG(Error) << exporter.status().ToString();
    }
  }
}

TelemetryScope::TelemetryScope(std::string metrics_path,
                               std::string trace_path)
    : TelemetryScope([&] {
        TelemetryScopeOptions options;
        options.metrics_path = std::move(metrics_path);
        options.trace_path = std::move(trace_path);
        return options;
      }()) {}

TelemetryScope TelemetryScope::FromFlags(const Flags& flags) {
  TelemetryScopeOptions options;
  options.metrics_path = flags.GetString("metrics-out", "");
  options.trace_path = flags.GetString("trace-out", "");
  options.audit_path = flags.GetString("audit-out", "");
  options.profile_path = flags.GetString("profile-out", "");
  // Both values come straight from the command line: an out-of-range port
  // would wrap in the uint16_t and an infinite linger overflows sleep_for.
  const int64_t port = flags.GetInt("metrics-port", 0);
  const double linger = flags.GetDouble("metrics-linger", 0.0);
  if (port < 0 || port > 65535) {
    LANDMARK_LOG(Error) << "--metrics-port " << port
                        << " is outside [0, 65535]; not serving metrics";
  } else if (!std::isfinite(linger) || linger < 0.0) {
    LANDMARK_LOG(Error) << "--metrics-linger " << linger
                        << " is negative or not finite; not serving metrics";
  } else {
    options.serve_metrics = flags.Has("metrics-port");
    options.metrics_port = static_cast<uint16_t>(port);
    options.linger_seconds = linger;
  }
  return TelemetryScope(std::move(options));
}

TelemetryScope::TelemetryScope(TelemetryScope&& other) noexcept
    : options_(std::move(other.options_)),
      audit_sink_(std::move(other.audit_sink_)),
      exporter_(std::move(other.exporter_)),
      active_(other.active_) {
  other.active_ = false;
}

TelemetryScope& TelemetryScope::operator=(TelemetryScope&& other) noexcept {
  if (this != &other) {
    Finish();
    options_ = std::move(other.options_);
    audit_sink_ = std::move(other.audit_sink_);
    exporter_ = std::move(other.exporter_);
    active_ = other.active_;
    other.active_ = false;
  }
  return *this;
}

TelemetryScope::~TelemetryScope() { Finish(); }

void TelemetryScope::Finish() {
  if (!active_) return;
  active_ = false;
  if (!options_.trace_path.empty()) {
    TraceRecorder& recorder = TraceRecorder::Global();
    recorder.Stop();
    Status status = recorder.WriteChromeTraceFile(options_.trace_path);
    if (status.ok()) {
      LANDMARK_LOG(Info) << "wrote " << recorder.num_events()
                         << " trace events to " << options_.trace_path
                         << (recorder.num_dropped() > 0
                                 ? " (" +
                                       std::to_string(recorder.num_dropped()) +
                                       " dropped by ring overflow)"
                                 : "");
    } else {
      LANDMARK_LOG(Error) << status.ToString();
    }
  }
  if (!options_.metrics_path.empty()) {
    Status status = WriteMetricsJsonFile(MetricsRegistry::Global().Snapshot(),
                                         options_.metrics_path);
    if (status.ok()) {
      LANDMARK_LOG(Info) << "wrote metrics snapshot to "
                         << options_.metrics_path;
    } else {
      LANDMARK_LOG(Error) << status.ToString();
    }
  }
  if (!options_.profile_path.empty()) {
    SamplingProfiler& profiler = SamplingProfiler::Global();
    profiler.Stop();
    const std::string folded = profiler.FoldedText();
    std::ofstream out(options_.profile_path,
                      std::ios::out | std::ios::trunc);
    if (out.is_open()) {
      out << folded;
      size_t lines = 0;
      for (char c : folded) lines += c == '\n' ? 1 : 0;
      LANDMARK_LOG(Info) << "wrote " << lines << " folded stacks ("
                         << profiler.samples() << " samples) to "
                         << options_.profile_path;
    } else {
      LANDMARK_LOG(Error) << "cannot open profile output file: "
                          << options_.profile_path;
    }
  }
  if (audit_sink_ != nullptr) {
    LANDMARK_LOG(Info) << "wrote " << audit_sink_->units_written()
                       << " audit records to " << options_.audit_path;
    audit_sink_.reset();  // flushes and closes the stream
  }
  if (exporter_ != nullptr) {
    if (options_.linger_seconds > 0.0) {
      // Hold the scrape endpoint open so an external poller can observe the
      // final metrics of a short-lived batch (the check.sh smoke stage
      // kills the process once it has scraped).
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.linger_seconds));
    }
    exporter_.reset();
  }
}

}  // namespace landmark
