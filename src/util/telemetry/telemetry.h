#ifndef LANDMARK_UTIL_TELEMETRY_TELEMETRY_H_
#define LANDMARK_UTIL_TELEMETRY_TELEMETRY_H_

/// Umbrella header for the telemetry subsystem:
///   metrics.h        MetricsRegistry — counters, gauges, latency histograms
///   trace.h          TraceRecorder + LANDMARK_TRACE_SPAN — Chrome-trace spans
///   sink.h           TelemetrySink — JSON-lines and human-table emitters
///   audit.h          AuditSink — per-unit explanation flight recorder
///   http_exporter.h  HttpExporter — live /metrics + /healthz + /statusz
///                    (+ /statusz?format=json + /profilez)
///   flight_deck.h    activity stacks, SamplingProfiler, StallWatchdog,
///                    BatchProgress registry
/// plus TelemetryScope, the binary-level wiring for the shared
/// `--metrics-out` / `--trace-out` / `--audit-out` / `--profile-out` /
/// `--metrics-port` / `--metrics-linger` flags.

#include <cstdint>
#include <memory>
#include <string>

#include "util/telemetry/audit.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/http_exporter.h"
#include "util/telemetry/metrics.h"
#include "util/telemetry/sink.h"
#include "util/telemetry/trace.h"

namespace landmark {

class Flags;

/// \brief What one instrumented binary run should record and expose.
struct TelemetryScopeOptions {
  /// Full-registry metrics JSON written on Finish (`--metrics-out`).
  std::string metrics_path;
  /// Chrome/Perfetto trace written on Finish (`--trace-out`).
  std::string trace_path;
  /// Per-unit audit JSON-lines stream (`--audit-out`); opened eagerly so
  /// records flow during the run, flushed on Finish.
  std::string audit_path;
  /// Folded-stack activity profile (`--profile-out`): starts the global
  /// SamplingProfiler on construction, writes flamegraph-compatible
  /// `frame;frame;frame COUNT` lines on Finish.
  std::string profile_path;
  /// Start the loopback HTTP exporter (`--metrics-port`; port 0 is
  /// ephemeral — the resolved port is printed to stdout for scripts).
  bool serve_metrics = false;
  uint16_t metrics_port = 0;
  /// Keep the exporter alive this many seconds after Finish's outputs are
  /// written (`--metrics-linger`), so a scraper can observe the final state
  /// of a short-lived batch before the process exits.
  double linger_seconds = 0.0;
};

/// \brief Lifetime of one instrumented binary run.
///
/// Construction starts the global trace recorder when a trace path was
/// given, opens the audit sink, and starts the HTTP exporter; Finish() (or
/// destruction) stops tracing, writes the requested outputs, flushes the
/// audit stream, lingers if asked, and stops the exporter. With nothing
/// configured the scope is inert, so binaries create one unconditionally:
///
///   TelemetryScope telemetry = TelemetryScope::FromFlags(flags);
///   ... run (pass telemetry.audit_sink() to EngineOptions) ...
///   telemetry.Finish();  // or let the destructor do it
class TelemetryScope {
 public:
  TelemetryScope() = default;
  explicit TelemetryScope(TelemetryScopeOptions options);
  /// Back-compat convenience over the two original outputs.
  TelemetryScope(std::string metrics_path, std::string trace_path);
  /// Reads --metrics-out, --trace-out, --audit-out, --profile-out,
  /// --metrics-port and --metrics-linger. A port outside [0, 65535] or a
  /// linger that is negative or not finite is logged as an Error and
  /// starts neither the exporter nor the linger, as a failed bind does.
  static TelemetryScope FromFlags(const Flags& flags);

  TelemetryScope(TelemetryScope&& other) noexcept;
  TelemetryScope& operator=(TelemetryScope&& other) noexcept;
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  ~TelemetryScope();

  /// Stops tracing and writes the output files (idempotent). Write failures
  /// are logged, not fatal — telemetry must never take the run down.
  void Finish();

  bool active() const { return active_; }
  /// The flight recorder when `--audit-out` was given, else nullptr. Wire
  /// it into EngineOptions::audit_sink; valid until Finish().
  AuditSink* audit_sink() const { return audit_sink_.get(); }
  /// The live exporter when `--metrics-port` was given, else nullptr.
  const HttpExporter* exporter() const { return exporter_.get(); }

 private:
  TelemetryScopeOptions options_;
  std::unique_ptr<AuditSink> audit_sink_;
  std::unique_ptr<HttpExporter> exporter_;
  bool active_ = false;
};

}  // namespace landmark

#endif  // LANDMARK_UTIL_TELEMETRY_TELEMETRY_H_
