#include "util/telemetry/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "util/string_util.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/slo.h"
#include "util/telemetry/timeseries.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

namespace {

/// Receive/send deadline of every accepted connection, seconds.
constexpr int kClientIoTimeoutSeconds = 2;

/// Prometheus sample rendering: the exposition format *does* have
/// NaN/±Inf literals, unlike JSON, so no clamping here.
std::string PromDouble(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// `engine/plan_seconds` → `landmark_engine_plan_seconds`.
std::string PromName(const std::string& name) {
  std::string out = "landmark_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Registry handles for the exporter's own metrics (contract table in
/// docs/architecture.md).
struct ExporterMetrics {
  Counter& requests;
  Histogram& scrape_seconds;

  static const ExporterMetrics& Get() {
    static const ExporterMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return new ExporterMetrics{
          registry.GetCounter("telemetry/http_requests"),
          registry.GetHistogram("telemetry/scrape_seconds"),
      };
    }();
    return *metrics;
  }
};

/// Value of `key` in an `a=1&b=2` query string, or `fallback` when absent
/// or empty. No percent-decoding — the exporter's parameters are plain
/// identifiers and numbers.
std::string QueryParam(const std::string& query, const std::string& key,
                       const std::string& fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp && eq - pos == key.size() &&
        query.compare(pos, key.size(), key) == 0 && eq + 1 < amp + 1) {
      const std::string value = query.substr(eq + 1, amp - eq - 1);
      if (!value.empty()) return value;
    }
    pos = amp + 1;
  }
  return fallback;
}

/// OpenMetrics exemplar suffix for one retained observation:
/// ` # {ordinal="12",record="34",record_index="0",unit="1",thread="3"} 0.0034`.
/// The ordinal label is omitted when no audit sink was attached at capture
/// time (there is no line it could point at then).
std::string ExemplarSuffix(const Exemplar& exemplar) {
  if (!exemplar.valid) return "";
  std::string out = " # {";
  if (exemplar.has_audit_ordinal) {
    out += "ordinal=\"" + std::to_string(exemplar.audit_ordinal) + "\",";
  }
  out += "record=\"" + std::to_string(exemplar.record_id) + "\"";
  out += ",record_index=\"" + std::to_string(exemplar.record_index) + "\"";
  out += ",unit=\"" + std::to_string(exemplar.unit_index) + "\"";
  out += ",thread=\"" + std::to_string(exemplar.thread_index) + "\"";
  out += "} " + PromDouble(exemplar.value);
  return out;
}

std::string MakeResponse(int status, const std::string& reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// Human-readable status page: engine stage totals from the registry plus
/// compile-time build info.
std::string StatuszBody(uint64_t started_ns) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  std::string out = "landmark exporter status\n\n";
  out += "uptime_seconds: " +
         PromDouble(static_cast<double>(TraceNowNs() - started_ns) / 1e9) +
         "\n";
  out += "compiler: " __VERSION__ "\n";
  out += "c++_standard: " + std::to_string(__cplusplus) + "\n\n";
  out += "engine totals:\n";
  for (const char* name :
       {"engine/batches", "engine/records", "engine/records_failed",
        "engine/units", "engine/masks", "engine/model_queries",
        "engine/cache_hits", "explain/quality/units",
        "explain/quality/low_r2", "explain/quality/degenerate_neighborhoods",
        "telemetry/http_requests"}) {
    out += "  " + std::string(name) + ": " +
           std::to_string(snapshot.CounterValue(name)) + "\n";
  }
  out += "\nengine stage seconds (sum over batches):\n";
  for (const char* name :
       {"engine/plan_seconds", "engine/reconstruct_seconds",
        "engine/query_seconds", "engine/fit_seconds",
        "engine/batch_seconds"}) {
    const HistogramSnapshot* h = snapshot.FindHistogram(name);
    out += "  " + std::string(name) + ": " +
           PromDouble(h != nullptr ? h->sum : 0.0) + "\n";
  }
  bool exemplar_header_written = false;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    for (const BucketExemplars& e : h.exemplars) {
      if (!e.latest.valid) continue;
      if (!exemplar_header_written) {
        out += "\nhistogram exemplars (latest per non-empty bucket):\n";
        exemplar_header_written = true;
      }
      out += "  " + h.name + " le=" + PromDouble(e.bound) + ": value=" +
             PromDouble(e.latest.value);
      if (e.latest.has_audit_ordinal) {
        out += " audit_unit=" + std::to_string(e.latest.audit_ordinal);
      }
      out += " record=" + std::to_string(e.latest.record_id) + " unit=" +
             std::to_string(e.latest.unit_index) + " thread=" +
             std::to_string(e.latest.thread_index);
      if (e.peak.valid && e.peak.value != e.latest.value) {
        out += " (peak " + PromDouble(e.peak.value) + ")";
      }
      out += "\n";
    }
  }
  return out;
}

/// The exporter's route list as a JSON array — spliced into the /statusz
/// JSON object and kept next to the 404 body so the two cannot drift apart.
std::string EndpointsJsonArray() {
  return "[\"/metrics\",\"/healthz\",\"/statusz\",\"/statusz?format=json\","
         "\"/profilez?seconds=N\",\"/timelinez\",\"/timelinez?format=json\","
         "\"/sloz\",\"/sloz?format=json\"]";
}

/// Folded-stack profile over a sampling window. seconds == 0 returns the
/// cumulative profile since the profiler started, without waiting;
/// otherwise the accept loop sleeps for the window and returns the delta.
std::string ProfilezBody(double seconds) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  profiler.Start();
  if (seconds <= 0.0) return profiler.FoldedText();
  const std::map<std::string, uint64_t> before = profiler.FoldedCounts();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  std::map<std::string, uint64_t> delta = profiler.FoldedCounts();
  for (const auto& [stack, count] : before) {
    auto it = delta.find(stack);
    if (it == delta.end()) continue;
    if (it->second <= count) {
      delta.erase(it);
    } else {
      it->second -= count;
    }
  }
  return SamplingProfiler::RenderFolded(delta);
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PromName(name);
    // Counters carry the conventional `_total` suffix — unless the metric
    // name already ends in it (engine/stalls_total), which must not become
    // `_total_total`.
    if (prom.size() < 6 || prom.compare(prom.size() - 6, 6, "_total") != 0) {
      prom += "_total";
    }
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + PromDouble(value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string prom = PromName(h.name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (const auto& [bound, count] : h.buckets) {
      cumulative += count;
      // The overflow bucket has an infinite bound; it is exactly the final
      // `+Inf` sample below, so emitting it here would duplicate the line.
      if (std::isinf(bound)) continue;
      out += prom + "_bucket{le=\"" + PromDouble(bound) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum " + PromDouble(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string ToOpenMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string family = PromName(name);
    // OpenMetrics: the counter *family* must not end in `_total`; the
    // sample name carries the suffix instead.
    if (family.size() >= 6 &&
        family.compare(family.size() - 6, 6, "_total") == 0) {
      family.resize(family.size() - 6);
    }
    out += "# TYPE " + family + " counter\n";
    out += family + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = PromName(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " " + PromDouble(value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string family = PromName(h.name);
    out += "# TYPE " + family + " histogram\n";
    // Exemplars by bucket index, and the peak of the highest bucket that
    // retained one (attached to the +Inf sample below).
    std::array<const Exemplar*, Histogram::kNumBuckets> latest{};
    const Exemplar* top_peak = nullptr;
    for (const BucketExemplars& e : h.exemplars) {
      if (e.bucket_index < latest.size()) latest[e.bucket_index] = &e.latest;
      if (e.peak.valid) top_peak = &e.peak;
    }
    uint64_t cumulative = 0;
    for (const auto& [bound, count] : h.buckets) {
      cumulative += count;
      if (std::isinf(bound)) continue;
      out += family + "_bucket{le=\"" + PromDouble(bound) + "\"} " +
             std::to_string(cumulative);
      const size_t index = Histogram::BucketIndexForBound(bound);
      if (latest[index] != nullptr) out += ExemplarSuffix(*latest[index]);
      out += "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " + std::to_string(h.count);
    if (top_peak != nullptr) out += ExemplarSuffix(*top_peak);
    out += "\n";
    out += family + "_sum " + PromDouble(h.sum) + "\n";
    out += family + "_count " + std::to_string(h.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

Result<std::unique_ptr<HttpExporter>> HttpExporter::Start(
    const HttpExporterOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind(127.0.0.1:" + std::to_string(options.port) +
                           "): " + error);
  }
  if (::listen(fd, 8) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen(): " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname(): " + error);
  }
  return std::unique_ptr<HttpExporter>(
      new HttpExporter(fd, ntohs(bound.sin_port)));
}

HttpExporter::HttpExporter(int listen_fd, uint16_t port)
    : listen_fd_(listen_fd), port_(port), started_ns_(TraceNowNs()) {
  server_ = std::thread([this] { Serve(); });  // landmark-lint: allow(raw-thread) the accept loop blocks between scrapes; a pool worker would be held hostage for the process lifetime
}

HttpExporter::~HttpExporter() { Stop(); }

void HttpExporter::Stop() {
  {
    MutexLock lock(&mu_);
    if (stopped_) return;
    stopped_ = true;
    // Unblocks a read()/write() on a connection that is still in flight;
    // Serve() clears client_fd_ under mu_ before closing it, so the fd is
    // still open here.
    if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  }
  // Unblocks the accept() in Serve(); the loop then observes stopped_.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExporter::Serve() {
  for (;;) {
    // Registered blocking point covering the whole request cycle: accept()
    // blocks between scrapes and read()/write() block on the peer, so the
    // serving thread must never carry a lock into this loop iteration.
    LANDMARK_BLOCKING_POINT("HttpExporter::Serve/socket-io");
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket gone
    }
    {
      MutexLock lock(&mu_);
      if (stopped_) {
        ::close(client);
        return;
      }
      client_fd_ = client;
    }
    // A silent or stalled peer costs at most this long per read/write.
    const timeval deadline{kClientIoTimeoutSeconds, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &deadline,
                 sizeof(deadline));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &deadline,
                 sizeof(deadline));
    // Read until the end of the header block (requests have no body).
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < 16 * 1024) {
      const ssize_t n = ::read(client, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    const size_t line_end = request.find("\r\n");
    std::string method;
    std::string path;
    if (line_end != std::string::npos) {
      const std::string line = request.substr(0, line_end);
      const size_t sp1 = line.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : line.find(' ', sp1 + 1);
      if (sp1 != std::string::npos && sp2 != std::string::npos) {
        method = line.substr(0, sp1);
        path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    // Accept header (case-insensitive name per RFC 9110) for /metrics
    // content negotiation. Header lines sit between the request line and
    // the blank terminator.
    std::string accept;
    size_t header_pos =
        line_end == std::string::npos ? std::string::npos : line_end + 2;
    while (header_pos != std::string::npos && header_pos < request.size()) {
      const size_t eol = request.find("\r\n", header_pos);
      if (eol == std::string::npos || eol == header_pos) break;
      const std::string header =
          request.substr(header_pos, eol - header_pos);
      const size_t colon = header.find(':');
      if (colon != std::string::npos &&
          ToLower(Trim(header.substr(0, colon))) == "accept") {
        accept = Trim(header.substr(colon + 1));
      }
      header_pos = eol + 2;
    }
    const std::string response = HandleRequest(method, path, accept);
    size_t sent = 0;
    while (sent < response.size()) {
      // MSG_NOSIGNAL: a peer that hung up (or a connection Stop() shut
      // down) must fail the send, not raise SIGPIPE in the host process.
      const ssize_t n = ::send(client, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    {
      MutexLock lock(&mu_);
      client_fd_ = -1;
    }
    ::close(client);
  }
}

std::string HttpExporter::HandleRequest(const std::string& method,
                                        const std::string& path,
                                        const std::string& accept) const {
  ExporterMetrics::Get().requests.Add();
  if (method != "GET") {
    return MakeResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  // "/statusz?format=json" → route "/statusz", query "format=json".
  const size_t qmark = path.find('?');
  const std::string route =
      qmark == std::string::npos ? path : path.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? std::string() : path.substr(qmark + 1);
  if (route == "/metrics") {
    Timer timer;
    // Exemplars are only legal in the OpenMetrics format, so the default
    // stays Prometheus 0.0.4 and scrapers opt in via Accept.
    const bool open_metrics =
        accept.find("application/openmetrics-text") != std::string::npos;
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    std::string body =
        open_metrics ? ToOpenMetricsText(snapshot) : ToPrometheusText(snapshot);
    ExporterMetrics::Get().scrape_seconds.Record(timer.ElapsedSeconds());
    return MakeResponse(
        200, "OK",
        open_metrics ? "application/openmetrics-text; version=1.0.0; "
                       "charset=utf-8"
                     : "text/plain; version=0.0.4; charset=utf-8",
        body);
  }
  if (route == "/healthz") {
    return MakeResponse(200, "OK", "text/plain", "ok\n");
  }
  if (route == "/statusz") {
    if (QueryParam(query, "format", "text") == "json") {
      // FlightDeckStatusJson renders one flat object; the endpoint list is
      // spliced in as its first member.
      std::string body = FlightDeckStatusJson();
      const size_t brace = body.find('{');
      if (brace != std::string::npos) {
        body.insert(brace + 1,
                    "\"endpoints\":" + EndpointsJsonArray() + ",");
      }
      return MakeResponse(200, "OK", "application/json", body + "\n");
    }
    return MakeResponse(200, "OK", "text/plain",
                        StatuszBody(started_ns_) + "\n" +
                            FlightDeckStatusText());
  }
  if (route == "/profilez") {
    double seconds = std::atof(QueryParam(query, "seconds", "1").c_str());
    if (!(seconds >= 0.0)) seconds = 0.0;  // NaN and negatives → cumulative
    if (seconds > 30.0) seconds = 30.0;
    return MakeResponse(200, "OK", "text/plain", ProfilezBody(seconds));
  }
  if (route == "/timelinez") {
    const SnapshotCollector& collector = SnapshotCollector::Global();
    if (QueryParam(query, "format", "text") == "json") {
      return MakeResponse(200, "OK", "application/json",
                          collector.TimelinezJson() + "\n");
    }
    return MakeResponse(200, "OK", "text/plain", collector.TimelinezText());
  }
  if (route == "/sloz") {
    const SloRegistry& slos = SloRegistry::Global();
    if (QueryParam(query, "format", "text") == "json") {
      return MakeResponse(200, "OK", "application/json",
                          slos.StatusJson() + "\n");
    }
    return MakeResponse(200, "OK", "text/plain", slos.StatusText());
  }
  return MakeResponse(404, "Not Found", "text/plain",
                      "unknown path; try /metrics, /healthz, /statusz, "
                      "/statusz?format=json, /profilez?seconds=N, "
                      "/timelinez, /timelinez?format=json, /sloz, "
                      "/sloz?format=json\n");
}

Result<std::string> HttpGetLoopback(uint16_t port, const std::string& path,
                                    int* status_code) {
  return HttpGetLoopback(port, path, {}, status_code);
}

Result<std::string> HttpGetLoopback(uint16_t port, const std::string& path,
                                    const std::vector<std::string>& headers,
                                    int* status_code) {
  LANDMARK_BLOCKING_POINT("HttpGetLoopback/socket-io");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect(127.0.0.1:" + std::to_string(port) +
                           "): " + error);
  }
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n";
  for (const std::string& header : headers) request += header + "\r\n";
  request += "\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("write() failed mid-request");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("malformed HTTP response (no header terminator)");
  }
  if (status_code != nullptr) {
    *status_code = 0;
    const size_t sp = response.find(' ');
    if (sp != std::string::npos && sp + 4 <= response.size()) {
      *status_code = std::atoi(response.c_str() + sp + 1);
    }
  }
  return response.substr(header_end + 4);
}

}  // namespace landmark
