#include "obs/http_server.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/testutil/http_client.h"

namespace jfeed::obs {
namespace {

using jfeed::testutil::HttpFetch;

/// Starts a server on an ephemeral loopback port with the given routes.
class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    server_ = std::make_unique<HttpServer>();
    server_->Handle("/hello", [](const HttpRequest&) {
      HttpResponse response;
      response.body = "hi\n";
      return response;
    });
    server_->Handle("/echo", [](const HttpRequest& request) {
      HttpResponse response;
      response.body = request.method + "|" + request.path + "|" +
                      request.query + "|" + request.body;
      return response;
    });
    server_->Handle("/teapot", [](const HttpRequest&) {
      HttpResponse response;
      response.status = 418;
      response.body = "short and stout\n";
      return response;
    });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesRegisteredRoute) {
  StartServer();
  auto result = HttpFetch(server_->port(), "GET", "/hello");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hi\n");
  EXPECT_NE(result.headers.find("Content-Length: 3"), std::string::npos);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
}

TEST_F(HttpServerTest, PassesMethodQueryAndBodyToHandler) {
  StartServer();
  auto result =
      HttpFetch(server_->port(), "POST", "/echo?limit=5&x=1", "the body");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "POST|/echo|limit=5&x=1|the body");
}

TEST_F(HttpServerTest, HandlerStatusCodePropagates) {
  StartServer();
  auto result = HttpFetch(server_->port(), "GET", "/teapot");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 418);
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  StartServer();
  auto result = HttpFetch(server_->port(), "GET", "/nope");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 404);
}

TEST_F(HttpServerTest, MalformedRequestLineIs400) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "this is not http\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  std::string response;
  char buffer[1024];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedRequestIs413) {
  HttpServer::Options options;
  options.max_request_bytes = 256;
  server_ = std::make_unique<HttpServer>(options);
  server_->Handle("/hello", [](const HttpRequest&) { return HttpResponse(); });
  ASSERT_TRUE(server_->Start().ok());
  auto result = HttpFetch(server_->port(), "POST", "/hello",
                          std::string(4096, 'x'));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 413);
}

/// Connects and sends `partial` without ever completing the request, then
/// reads whatever the server eventually answers. Returns the raw response.
std::string HalfSendAndRead(uint16_t port, const std::string& partial) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_GT(::send(fd, partial.data(), partial.size(), 0), 0);
  std::string response;
  char buffer[1024];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(HttpServerTest, SlowlorisHeadersGet408) {
  HttpServer::Options options;
  options.io_deadline_ms = 300;
  server_ = std::make_unique<HttpServer>(options);
  server_->Handle("/hello", [](const HttpRequest&) { return HttpResponse(); });
  ASSERT_TRUE(server_->Start().ok());
  // Headers never finish (no terminating blank line).
  std::string response =
      HalfSendAndRead(server_->port(), "GET /hello HTTP/1.1\r\nHost: x\r\n");
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
}

TEST_F(HttpServerTest, SlowlorisBodyGets408) {
  HttpServer::Options options;
  options.io_deadline_ms = 300;
  server_ = std::make_unique<HttpServer>(options);
  server_->Handle("/grade", [](const HttpRequest&) { return HttpResponse(); });
  ASSERT_TRUE(server_->Start().ok());
  // Headers promise a body that never arrives in full.
  std::string response = HalfSendAndRead(
      server_->port(),
      "POST /grade HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\nhalf");
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
}

TEST_F(HttpServerTest, HalfSentRequestCannotOccupyTheOnlyWorkerForever) {
  // One connection worker and a stuck client: without the I/O deadline the
  // half-sent request would park the worker indefinitely and the healthy
  // request below would never be served.
  HttpServer::Options options;
  options.workers = 1;
  options.io_deadline_ms = 300;
  server_ = std::make_unique<HttpServer>(options);
  server_->Handle("/hello", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "hi\n";
    return response;
  });
  ASSERT_TRUE(server_->Start().ok());

  std::thread stuck([this] {
    HalfSendAndRead(server_->port(), "GET /hello HTTP/1.1\r\n");
  });
  // Give the stuck connection time to claim the lone worker, then demand
  // service. HttpFetch blocks until the 408 frees the slot; transport-level
  // success + 200 here is exactly the "slot freed" guarantee.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto result = HttpFetch(server_->port(), "GET", "/hello");
  stuck.join();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hi\n");
}

TEST_F(HttpServerTest, ConcurrentClientsAllGetAnswers) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 10;
  std::vector<std::thread> clients;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([this, t, &failures] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto result = HttpFetch(server_->port(), "GET", "/hello");
        if (!result.ok || result.status != 200 || result.body != "hi\n") {
          ++failures[t];
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

TEST_F(HttpServerTest, StopIsIdempotentAndRefusesSecondStart) {
  StartServer();
  uint16_t port = server_->port();
  EXPECT_TRUE(server_->serving());
  EXPECT_FALSE(server_->Start().ok());  // Already started.
  server_->Stop();
  EXPECT_FALSE(server_->serving());
  server_->Stop();  // Second Stop is a no-op.
  // The port is actually released: no one answers anymore.
  auto result = HttpFetch(port, "GET", "/hello");
  EXPECT_FALSE(result.ok);
}

TEST(HttpStatusTextTest, KnownAndUnknownCodes) {
  EXPECT_STREQ(HttpStatusText(200), "OK");
  EXPECT_STREQ(HttpStatusText(404), "Not Found");
  EXPECT_STREQ(HttpStatusText(503), "Service Unavailable");
  // Unknown codes still produce a non-empty reason phrase.
  EXPECT_NE(HttpStatusText(299)[0], '\0');
}

}  // namespace
}  // namespace jfeed::obs
