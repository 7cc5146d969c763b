#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace jfeed::obs {

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

std::string RequestHeader(const HttpRequest& request,
                          const std::string& name) {
  for (const auto& [header_name, value] : request.headers) {
    if (header_name == name) return value;
  }
  return "";
}

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Arms SO_RCVTIMEO/SO_SNDTIMEO so no single recv/send on this connection
/// can block longer than `ms` — the per-call half of the slowloris guard
/// (the total-elapsed half lives in ReadRequest/WriteAll).
void ArmSocketTimeouts(int fd, int64_t ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer, riding out EINTR and partial writes. SIGPIPE is
/// avoided with MSG_NOSIGNAL — a client that hangs up mid-response must not
/// kill the daemon. `deadline_abs_ms` (0 = none) bounds total wall time
/// against a connected-but-not-reading client.
bool WriteAll(int fd, const char* data, size_t size, int64_t deadline_abs_ms) {
  size_t sent = 0;
  while (sent < size) {
    if (deadline_abs_ms != 0 && NowMs() >= deadline_abs_ms) return false;
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EAGAIN from SO_SNDTIMEO lands here: drop the client.
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& response,
                   int64_t deadline_abs_ms = 0) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     HttpStatusText(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    head += "\r\n" + name + ": " + value;
  }
  head += "\r\nConnection: close\r\n\r\n";
  if (WriteAll(fd, head.data(), head.size(), deadline_abs_ms)) {
    WriteAll(fd, response.body.data(), response.body.size(),
             deadline_abs_ms);
  }
}

/// Reads until the blank line ending the headers, then Content-Length more
/// bytes. Returns false (and sends the right 4xx) on malformed or oversized
/// input. The parse is deliberately strict-but-simple: request line +
/// headers; no continuation lines, no chunked bodies. `deadline_abs_ms`
/// (0 = none) is the slowloris guard: a request not complete by then is
/// answered 408 — trickling bytes cannot hold a worker slot forever.
bool ReadRequest(int fd, size_t max_bytes, int64_t deadline_abs_ms,
                 HttpRequest* request, HttpResponse* error) {
  std::string data;
  size_t header_end = std::string::npos;
  char buffer[4096];
  while (header_end == std::string::npos) {
    if (data.size() > max_bytes) {
      error->status = 413;
      error->body = "request headers exceed limit\n";
      return false;
    }
    if (deadline_abs_ms != 0 && NowMs() >= deadline_abs_ms) {
      error->status = 408;
      error->body = "request read deadline exceeded\n";
      return false;
    }
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired — re-check the total deadline above.
      continue;
    }
    if (n <= 0) {
      error->status = 400;
      error->body = "connection closed before headers completed\n";
      return false;
    }
    data.append(buffer, static_cast<size_t>(n));
    header_end = data.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP version.
  size_t line_end = data.find("\r\n");
  std::string line = data.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    error->status = 400;
    error->body = "malformed request line\n";
    return false;
  }
  request->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t question = target.find('?');
  request->path = target.substr(0, question);
  if (question != std::string::npos) {
    request->query = target.substr(question + 1);
  }

  // Headers: Content-Length frames the body; everything else is handed to
  // the handler (lowercased name, trimmed value) for things like the
  // traceparent context the fleet propagates.
  size_t body_size = 0;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = data.find("\r\n", pos);
    std::string header = data.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string name = header.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    std::string value = header.substr(colon + 1);
    size_t value_begin = value.find_first_not_of(" \t");
    size_t value_end = value.find_last_not_of(" \t");
    value = value_begin == std::string::npos
                ? ""
                : value.substr(value_begin, value_end - value_begin + 1);
    request->headers.emplace_back(name, value);
    if (name == "content-length") {
      char* end = nullptr;
      const char* text = header.c_str() + colon + 1;
      while (*text == ' ' || *text == '\t') ++text;
      unsigned long long v = std::strtoull(text, &end, 10);
      if (end == text) {
        error->status = 400;
        error->body = "malformed Content-Length\n";
        return false;
      }
      body_size = static_cast<size_t>(v);
    }
  }

  size_t total = header_end + 4 + body_size;
  if (total > max_bytes) {
    error->status = 413;
    error->body = "request body exceeds limit\n";
    return false;
  }
  while (data.size() < total) {
    if (deadline_abs_ms != 0 && NowMs() >= deadline_abs_ms) {
      error->status = 408;
      error->body = "request read deadline exceeded\n";
      return false;
    }
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) {
      error->status = 400;
      error->body = "connection closed mid-body\n";
      return false;
    }
    data.append(buffer, static_cast<size_t>(n));
  }
  request->body = data.substr(header_end + 4, body_size);
  return true;
}

}  // namespace

HttpServer::HttpServer() : HttpServer(Options()) {}

HttpServer::HttpServer(Options options) : options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.backlog == 0) options_.backlog = 1;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  routes_.emplace_back(path, std::move(handler));
}

Status HttpServer::Start() {
  if (serving_.load(std::memory_order_relaxed)) {
    return Status::Internal("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Unavailable(
        "bind(127.0.0.1:" + std::to_string(options_.port) +
        "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::Unavailable(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = false;
  }
  serving_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!serving_.exchange(false, std::memory_order_relaxed)) return;
  // shutdown() unblocks the accept(2) the accept thread is parked in; the
  // thread then sees serving_ == false and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  listen_fd_ = -1;
}

void HttpServer::AcceptLoop() {
  while (serving_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // ECONNABORTED and friends are transient; a closed listen socket
      // (Stop) lands here too and the serving_ check exits the loop.
      continue;
    }
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!closing_ && pending_.size() < options_.backlog) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Shed load at the door: a full worker queue answers 503 immediately
      // instead of letting connections (and client timeouts) pile up.
      HttpResponse busy;
      busy.status = 503;
      busy.body = "server busy\n";
      WriteResponse(fd, busy);
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return closing_ || !pending_.empty(); });
      if (pending_.empty()) return;  // Closing and drained.
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  // Slowloris guard: one total I/O budget for the connection, enforced as
  // a wall deadline re-checked between recv/send calls, with SO_RCVTIMEO /
  // SO_SNDTIMEO armed to a short tick so no single syscall can overshoot
  // the deadline by more than that tick.
  int64_t deadline_abs_ms = 0;
  if (options_.io_deadline_ms > 0) {
    deadline_abs_ms = NowMs() + options_.io_deadline_ms;
    int64_t tick = options_.io_deadline_ms < 1000 ? options_.io_deadline_ms
                                                  : 1000;
    ArmSocketTimeouts(fd, tick);
  }

  HttpRequest request;
  HttpResponse error;
  if (!ReadRequest(fd, options_.max_request_bytes, deadline_abs_ms, &request,
                   &error)) {
    // The read deadline may already be spent (that is what a 408 means);
    // the error write gets its own fresh budget so the client hears why.
    int64_t write_deadline =
        options_.io_deadline_ms > 0 ? NowMs() + options_.io_deadline_ms : 0;
    WriteResponse(fd, error, write_deadline);
    return;
  }
  for (const auto& [path, handler] : routes_) {
    if (path == request.path) {
      // The handler itself (grading) is not under the I/O deadline; only
      // the response write is, so a dead client cannot park the worker.
      HttpResponse response = handler(request);
      int64_t write_deadline =
          options_.io_deadline_ms > 0 ? NowMs() + options_.io_deadline_ms
                                      : 0;
      WriteResponse(fd, response, write_deadline);
      return;
    }
  }
  HttpResponse not_found;
  not_found.status = 404;
  not_found.body = "no handler for " + request.path + "\n";
  WriteResponse(fd, not_found,
                options_.io_deadline_ms > 0
                    ? NowMs() + options_.io_deadline_ms
                    : 0);
}

}  // namespace jfeed::obs
