#ifndef JFEED_OBS_HTTP_SERVER_H_
#define JFEED_OBS_HTTP_SERVER_H_

// Minimal dependency-free HTTP/1.1 server over POSIX sockets — the
// transport for the live-introspection endpoints (/metrics, /healthz,
// /statusz, /tracez, /events) and the jfeedd grading daemon's POST /grade.
//
// Deliberately small: loopback-oriented, one request per connection
// (Connection: close), no TLS, no chunked encoding, no keep-alive. That is
// the whole feature set a Prometheus scraper, a curl-wielding operator, or
// the daemon smoke test needs, and it keeps the attack surface of a grader
// that executes untrusted student code as thin as the feature allows.
//
// Threading: Start() spawns one accept thread plus a small fixed pool of
// connection workers pulling accepted sockets from a bounded queue, so a
// slow client can stall at most one worker, never the accept loop. All
// handler callbacks run on worker threads and must therefore be
// thread-safe; the introspection handlers are (Registry::Render and
// Tracer::Snapshot aggregate under their own locks).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/status.h"

namespace jfeed::obs {

/// One parsed request as handed to a handler. Only the pieces the
/// introspection surface needs: method, path (query string split off),
/// headers (trace propagation reads `traceparent`), and the body (POST
/// /grade's NDJSON submissions).
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as sent).
  std::string path;    ///< Decoded-enough path, e.g. "/metrics".
  std::string query;   ///< Raw query string without the '?', may be empty.
  /// Request headers in arrival order, names lowercased (header names are
  /// case-insensitive on the wire), values whitespace-trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;    ///< Request body (Content-Length framed).
};

/// First value of header `name` (lowercase) in `request`, or "" if absent.
std::string RequestHeader(const HttpRequest& request, const std::string& name);

/// One response as produced by a handler. The server adds the status line,
/// Content-Length and Connection: close framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra headers appended verbatim (name, value) — e.g. the Retry-After
  /// the broker attaches to fleet-wide 503 shedding.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Handler for one path. Runs on a connection-worker thread.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Reason phrase for the handful of status codes the service emits.
const char* HttpStatusText(int status);

class HttpServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
    /// back from port() after Start()).
    uint16_t port = 0;
    /// Connection-worker threads. Clamped to >= 1.
    int workers = 4;
    /// Hard cap on one request (request line + headers + body); larger
    /// requests are answered 413 and the connection closed. Generous enough
    /// for multi-submission NDJSON grade bodies, small enough that a
    /// malicious client cannot balloon the daemon.
    size_t max_request_bytes = 8u << 20;
    /// Accepted-socket queue bound; connections beyond it are answered 503
    /// by the accept thread instead of piling up unboundedly.
    size_t backlog = 64;
    /// Per-connection I/O deadline (slowloris guard): a client that has not
    /// delivered a complete request within this budget is answered 408 and
    /// disconnected, so a half-sent request can occupy a connection worker
    /// for at most this long. The same budget bounds response writes to a
    /// non-reading client. 0 disables the guard.
    int64_t io_deadline_ms = 10'000;
  };

  HttpServer();  ///< Equivalent to HttpServer(Options{}).
  explicit HttpServer(Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`. Must be called before
  /// Start(); the route table is immutable while serving (that is what
  /// makes dispatch lock-free on workers).
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds 127.0.0.1:port, spawns the accept thread and workers. Fails
  /// (kUnavailable) when the port is taken or sockets are unavailable.
  Status Start();

  /// Stops accepting, drains in-flight connections, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (the ephemeral pick when Options.port was 0); 0 before
  /// Start().
  uint16_t port() const { return port_; }

  bool serving() const { return serving_.load(std::memory_order_relaxed); }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  Options options_;
  std::vector<std::pair<std::string, HttpHandler>> routes_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> serving_{false};

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< Accepted fds awaiting a worker.
  bool closing_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace jfeed::obs

#endif  // JFEED_OBS_HTTP_SERVER_H_
