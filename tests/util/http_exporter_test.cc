// Prometheus exposition and loopback exporter tests: a golden render of a
// hand-built snapshot (the exact text contract scrapers parse), structural
// invariants of histogram rendering against a live Histogram (cumulative
// buckets, the final `+Inf` sample equal to `_count`), and the HTTP
// surface (/metrics, /healthz, /statusz, /statusz?format=json, /profilez,
// 404) over a real socket, including a client that connects and goes
// silent.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/telemetry/http_exporter.h"
#include "util/telemetry/metrics.h"

namespace landmark {
namespace {

TEST(PrometheusTextTest, GoldenExposition) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"engine/batches", 3}};
  snapshot.gauges = {{"pool/workers", 4.0}};
  HistogramSnapshot h;
  h.name = "engine/fit_seconds";
  h.count = 4;
  h.sum = 2.5;
  h.min = 0.25;
  h.max = 2.0;
  h.buckets = {{0.5, 3},
               {std::numeric_limits<double>::infinity(), 1}};
  snapshot.histograms = {h};

  EXPECT_EQ(ToPrometheusText(snapshot),
            "# TYPE landmark_engine_batches_total counter\n"
            "landmark_engine_batches_total 3\n"
            "# TYPE landmark_pool_workers gauge\n"
            "landmark_pool_workers 4\n"
            "# TYPE landmark_engine_fit_seconds histogram\n"
            "landmark_engine_fit_seconds_bucket{le=\"0.5\"} 3\n"
            "landmark_engine_fit_seconds_bucket{le=\"+Inf\"} 4\n"
            "landmark_engine_fit_seconds_sum 2.5\n"
            "landmark_engine_fit_seconds_count 4\n");
}

TEST(PrometheusTextTest, AllOverflowHistogramStillEndsAtInf) {
  // Every sample in the overflow bucket: the only bucket line must be the
  // +Inf one, and it must equal the count.
  MetricsSnapshot snapshot;
  HistogramSnapshot h;
  h.name = "x";
  h.count = 2;
  h.sum = 1e9;
  h.buckets = {{std::numeric_limits<double>::infinity(), 2}};
  snapshot.histograms = {h};
  EXPECT_EQ(ToPrometheusText(snapshot),
            "# TYPE landmark_x histogram\n"
            "landmark_x_bucket{le=\"+Inf\"} 2\n"
            "landmark_x_sum 1000000000\n"
            "landmark_x_count 2\n");
}

TEST(PrometheusTextTest, NameSanitization) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"explain/quality/low_r2", 1}};
  const std::string text = ToPrometheusText(snapshot);
  EXPECT_NE(text.find("landmark_explain_quality_low_r2_total 1\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, CounterAlreadyEndingInTotalIsNotDoubled) {
  // engine/stalls_total carries the conventional suffix in its metric name;
  // the exposition must not render landmark_engine_stalls_total_total.
  MetricsSnapshot snapshot;
  snapshot.counters = {{"engine/stalls_total", 2}};
  EXPECT_EQ(ToPrometheusText(snapshot),
            "# TYPE landmark_engine_stalls_total counter\n"
            "landmark_engine_stalls_total 2\n");
}

TEST(PrometheusTextTest, LiveHistogramBucketsAreCumulativeUpToCount) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i) * 1e-4);
  }
  MetricsSnapshot snapshot;
  snapshot.histograms = {histogram.Snapshot("test/latency")};
  const std::string text = ToPrometheusText(snapshot);

  // Parse the bucket series back and check the Prometheus invariants:
  // cumulative counts never decrease, and the final +Inf sample equals
  // `_count`.
  std::istringstream lines(text);
  std::vector<uint64_t> cumulative;
  uint64_t inf_value = 0;
  uint64_t count_value = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::string bucket_prefix = "landmark_test_latency_bucket{le=\"";
    if (line.rfind(bucket_prefix, 0) == 0) {
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos);
      const uint64_t value = std::stoull(line.substr(space + 1));
      cumulative.push_back(value);
      if (line.find("+Inf") != std::string::npos) inf_value = value;
    } else if (line.rfind("landmark_test_latency_count ", 0) == 0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_GE(cumulative.size(), 2u);
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_LE(cumulative[i - 1], cumulative[i]) << "bucket " << i;
  }
  EXPECT_EQ(inf_value, 1000u);
  EXPECT_EQ(count_value, 1000u);
}

TEST(PrometheusTextTest, NonFiniteGaugeUsesExpositionLiterals) {
  MetricsSnapshot snapshot;
  snapshot.gauges = {{"a", std::nan("")},
                     {"b", std::numeric_limits<double>::infinity()}};
  const std::string text = ToPrometheusText(snapshot);
  EXPECT_NE(text.find("landmark_a NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("landmark_b +Inf\n"), std::string::npos) << text;
}

TEST(HttpExporterTest, ServesMetricsHealthzStatusz) {
  // Seed the registry with an explain/quality histogram so the exposition
  // contains one, mirroring what a finished batch guarantees.
  MetricsRegistry::Global()
      .GetHistogram("explain/quality/match_fraction")
      .Record(0.5);

  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  const uint16_t port = (*exporter)->port();
  ASSERT_NE(port, 0);

  int status = 0;
  auto metrics = HttpGetLoopback(port, "/metrics", &status);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics->find("# TYPE "), std::string::npos);
  EXPECT_NE(
      metrics->find("landmark_explain_quality_match_fraction_count"),
      std::string::npos);
  EXPECT_NE(metrics->find("landmark_telemetry_http_requests_total"),
            std::string::npos);

  auto healthz = HttpGetLoopback(port, "/healthz", &status);
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(*healthz, "ok\n");

  auto statusz = HttpGetLoopback(port, "/statusz", &status);
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_NE(statusz->find("uptime_seconds"), std::string::npos);
  EXPECT_NE(statusz->find("engine/batches"), std::string::npos);

  auto missing = HttpGetLoopback(port, "/nope", &status);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(status, 404);
  // The 404 body advertises every endpoint, including the flight deck.
  EXPECT_NE(missing->find("/statusz?format=json"), std::string::npos)
      << *missing;
  EXPECT_NE(missing->find("/profilez"), std::string::npos) << *missing;

  (*exporter)->Stop();
  (*exporter)->Stop();  // idempotent
}

TEST(HttpExporterTest, ServesFlightDeckEndpoints) {
  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  const uint16_t port = (*exporter)->port();

  int status = 0;
  // Text /statusz now carries the flight-deck block after the engine totals.
  auto statusz = HttpGetLoopback(port, "/statusz", &status);
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_NE(statusz->find("-- flight deck --"), std::string::npos) << *statusz;
  EXPECT_NE(statusz->find("in-flight batches:"), std::string::npos);
  EXPECT_NE(statusz->find("profiler:"), std::string::npos);

  auto json = HttpGetLoopback(port, "/statusz?format=json", &status);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(status, 200);
  ASSERT_FALSE(json->empty());
  EXPECT_EQ(json->front(), '{') << *json;
  EXPECT_NE(json->find("\"batches\""), std::string::npos) << *json;
  EXPECT_NE(json->find("\"workers\""), std::string::npos) << *json;
  EXPECT_NE(json->find("\"profiler\""), std::string::npos) << *json;

  // seconds=0 returns the cumulative profile without blocking the loop.
  auto profile = HttpGetLoopback(port, "/profilez?seconds=0", &status);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(status, 200);

  (*exporter)->Stop();
}

TEST(HttpExporterTest, StartFailsOnTakenPort) {
  auto first = HttpExporter::Start({});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  HttpExporterOptions taken;
  taken.port = (*first)->port();
  auto second = HttpExporter::Start(taken);
  EXPECT_FALSE(second.ok());
}

/// A loopback TCP client that connects and then never sends a byte.
class SilentClient {
 public:
  explicit SilentClient(uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~SilentClient() { Close(); }
  SilentClient(const SilentClient&) = delete;
  SilentClient& operator=(const SilentClient&) = delete;

  bool connected() const { return connected_; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(HttpExporterTest, SilentClientBlocksNeitherScrapesNorStop) {
  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  const uint16_t port = (*exporter)->port();

  // Connections are accepted in arrival order, so the server takes the
  // silent client first and waits on it; the scrape queues behind it.
  SilentClient silent(port);
  ASSERT_TRUE(silent.connected());
  auto healthz = std::async(std::launch::async, [port] {
    int status = 0;
    auto body = HttpGetLoopback(port, "/healthz", &status);
    return body.ok() && status == 200 && *body == "ok\n";
  });
  // The server gives up on the silent client after its 2 s I/O deadline;
  // the bound leaves room for a loaded sanitizer build.
  const bool answered = healthz.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  silent.Close();  // frees a server still stuck on it, so the future drains
  EXPECT_TRUE(answered) << "/healthz waited on a silent client";
  EXPECT_TRUE(healthz.get());

  // Stop() with a silent connection in flight must shut that connection
  // down, not wait for the peer or the deadline.
  SilentClient silent_at_stop(port);
  ASSERT_TRUE(silent_at_stop.connected());
  auto stop = std::async(std::launch::async, [&] { (*exporter)->Stop(); });
  const bool stopped =
      stop.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  silent_at_stop.Close();
  EXPECT_TRUE(stopped) << "Stop() waited on a silent client";
  stop.get();
}

TEST(HttpExporterTest, StopUnblocksIdleAcceptLoop) {
  // No request ever arrives; destruction must still join promptly.
  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  exporter->reset();
}

}  // namespace
}  // namespace landmark
