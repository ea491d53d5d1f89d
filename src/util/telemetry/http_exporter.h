#ifndef LANDMARK_UTIL_TELEMETRY_HTTP_EXPORTER_H_
#define LANDMARK_UTIL_TELEMETRY_HTTP_EXPORTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"
#include "util/telemetry/metrics.h"
#include "util/thread_annotations.h"

namespace landmark {

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` lines, cumulative `_bucket{le="..."}` series
/// ending in `+Inf`, and `_sum` / `_count` per histogram. Metric names are
/// sanitized (`/` → `_`), prefixed `landmark_`, and counters carry the
/// conventional `_total` suffix (not doubled when the metric name already
/// ends in `_total`, e.g. `engine/stalls_total`).
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Renders a metrics snapshot in the OpenMetrics text format (version
/// 1.0.0): counter *families* drop the `_total` suffix (their samples carry
/// it), the exposition ends with the mandatory `# EOF` line, and — the
/// reason this format exists here at all — histogram bucket samples carry
/// exemplars (`... # {ordinal="12",...} 0.0034`), which are not legal in
/// the Prometheus 0.0.4 format. Bounded bucket lines carry the bucket's
/// most recent exemplar; the `+Inf` line carries the peak (max-valued)
/// exemplar of the highest bucket that retained one, i.e. the worst
/// observation the histogram can still name.
std::string ToOpenMetricsText(const MetricsSnapshot& snapshot);

/// \brief Options of the scrape endpoint.
struct HttpExporterOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read the resolved one back from HttpExporter::port()).
  uint16_t port = 0;
};

/// \brief Dependency-free loopback HTTP server exposing the global
/// MetricsRegistry and the flight deck (util/telemetry/flight_deck.h) for
/// live scraping:
///
///   GET /metrics              Prometheus text exposition of the full
///                             registry; OpenMetrics 1.0.0 (with histogram
///                             exemplars and the `# EOF` trailer) when the
///                             request's Accept header asks for
///                             `application/openmetrics-text`
///   GET /healthz              200 "ok" while the server is running
///   GET /statusz              human-readable engine stage totals + build
///                             info + histogram exemplars + the flight
///                             deck: in-flight batches with per-stage DAG
///                             progress, per-worker current activity, queue
///                             depths, token-cache occupancy
///   GET /statusz?format=json  the flight-deck block (plus the endpoint
///                             list) as one JSON object
///   GET /profilez?seconds=N   folded activity stacks ("a;b;c COUNT",
///                             flamegraph-compatible) sampled over an
///                             N-second window (default 1, clamped to
///                             [0, 30]; 0 returns the cumulative profile
///                             without waiting). Starts the global
///                             SamplingProfiler on first use.
///
/// Every response carries an explicit Content-Type. The server binds
/// 127.0.0.1 only and answers one blocking request at a time — it is an
/// operational peephole for a long batch, not a serving stack; note a
/// /profilez window blocks that single accept loop for its duration. Each
/// accepted connection gets a fixed 2 s receive/send deadline, so a client
/// that connects and goes silent delays other scrapes by at most that long
/// instead of wedging the loop, and Stop() shuts down an in-flight
/// connection instead of waiting on its peer. It
/// runs on a dedicated thread rather than the ThreadPool because the
/// accept loop blocks indefinitely between scrapes; parking it on a pool
/// worker would steal a determinism-contract thread from the engine for
/// the whole process lifetime. Scrapes only read snapshot values, so
/// explanations are bit-identical with the exporter running or not.
class HttpExporter {
 public:
  /// Binds, listens and starts the serving thread. Fails (IoError) when the
  /// port is taken.
  static Result<std::unique_ptr<HttpExporter>> Start(
      const HttpExporterOptions& options = {});

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;
  ~HttpExporter();

  /// Unblocks the accept loop (and any in-flight connection) and joins the
  /// serving thread (idempotent).
  void Stop();

  /// The bound port (the resolved one when options asked for 0).
  uint16_t port() const { return port_; }

 private:
  HttpExporter(int listen_fd, uint16_t port);

  void Serve();
  /// Builds the full HTTP response for one request line. `accept` is the
  /// request's Accept header value ("" when absent) — only /metrics
  /// inspects it (OpenMetrics vs Prometheus text).
  std::string HandleRequest(const std::string& method,
                            const std::string& path,
                            const std::string& accept) const;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Start time of the server (trace clock), for /statusz uptime.
  uint64_t started_ns_ = 0;
  // Leaf lock: guards only the stop flag and the in-flight connection's fd
  // — never held across socket I/O (the accept/read/write sites are
  // registered blocking points).
  Mutex mu_{"HttpExporter::mu_"};
  bool stopped_ GUARDED_BY(mu_) = false;
  /// The connection Serve() is answering, or -1; Stop() shuts it down.
  int client_fd_ GUARDED_BY(mu_) = -1;
  std::thread server_;  // landmark-lint: allow(raw-thread) dedicated blocking accept loop, never computes explanations
};

/// Minimal loopback HTTP/1.1 GET client used by the exporter tests and the
/// check.sh smoke probe (tools/http_probe.cc), so the CI gate needs no
/// curl. Returns the response body; `status_code` (optional) receives the
/// parsed HTTP status.
Result<std::string> HttpGetLoopback(uint16_t port, const std::string& path,
                                    int* status_code = nullptr);

/// Same, with extra request headers appended verbatim to the header block —
/// each entry must be a full `Name: value` line *without* the trailing CRLF
/// (e.g. "Accept: application/openmetrics-text"). Content negotiation
/// tests and `http_probe --accept` go through this overload.
Result<std::string> HttpGetLoopback(uint16_t port, const std::string& path,
                                    const std::vector<std::string>& headers,
                                    int* status_code = nullptr);

}  // namespace landmark

#endif  // LANDMARK_UTIL_TELEMETRY_HTTP_EXPORTER_H_
