// Self-tests of the benchmark's own arithmetic and HTTP client.
//
//   python3 dashbench/run.py --selftest
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client.h"
#include "core/search_server.h"
#include "measure.h"
#include "webapp/http_server.h"

namespace dashbench {
namespace {

// ---- Percentile rule -------------------------------------------------

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, SmallestValueWithCeilQnSamplesAtOrBelow) {
  EXPECT_EQ(Percentile(OneTo(100), 0.50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99);
  EXPECT_EQ(Percentile(OneTo(100), 1.00), 100);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_EQ(Percentile({5, 1, 3}, 0.50), 3);  // ceil(1.5) = 2nd smallest
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({}, 0.50), 0);
}

TEST(Percentile, FailuresCountAsInfinitelyLate) {
  const std::vector<double> sample = {1, 2, 3, kFailed};
  EXPECT_EQ(Percentile(sample, 0.50), 2);
  EXPECT_EQ(Percentile(sample, 0.75), 3);
  EXPECT_EQ(Percentile(sample, 0.99), kFailed);  // ceil(3.96) = 4th
  std::vector<double> mostly_fine = OneTo(1000);
  mostly_fine.push_back(kFailed);
  EXPECT_EQ(Percentile(mostly_fine, 0.99), 991);
}

// ---- Span self time --------------------------------------------------

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan) {
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  // Overlapping children count once: [10,30] + [50,60] + [90,100].
  EXPECT_EQ(SelfTime({0, 100}, {{15, 30}, {10, 20}, {50, 60}, {90, 120}}), 60);
  // A child outside the span covers nothing; one straddling its start
  // covers only its inside part.
  EXPECT_EQ(SelfTime({0, 100}, {{200, 300}, {-10, 5}}), 95);
  // Contiguous children covering the whole span leave no self time.
  EXPECT_EQ(SelfTime({0, 100}, {{0, 40}, {40, 100}}), 0);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {20, 30}}), 0);
}

// ---- Rounds the figures are taken over -------------------------------

TEST(KeptRounds, SetsAsideStolenRoundsButKeepsAtLeastHalf) {
  using Rounds = std::vector<std::size_t>;
  EXPECT_EQ(KeptRounds({}, 0.02), Rounds{});
  EXPECT_EQ(KeptRounds({0.0, 0.01, 0.02}, 0.02), (Rounds{0, 1, 2}));
  EXPECT_EQ(KeptRounds({0.0, 0.5, 0.01, 0.3, 0.0, 0.001}, 0.02), (Rounds{0, 2, 4, 5}));
  // Too few clean rounds: the half with the least steal, in round order.
  EXPECT_EQ(KeptRounds({0.3, 0.1, 0.2, 0.25}, 0.02), (Rounds{1, 2}));
  EXPECT_EQ(KeptRounds({0.3, 0.1, 0.2}, 0.02), (Rounds{1, 2}));
  // Ties go to the earlier round.
  EXPECT_EQ(KeptRounds({0.1, 0.1, 0.1, 0.1}, 0.02), (Rounds{0, 1}));
}

// ---- Answer check ----------------------------------------------------

TEST(AnswerCheck, FiresOnABodyThatDiffersByOneByte) {
  dash::core::SearchResult r;
  r.fragments = {3, 4};
  r.score = 0.0833333333;
  r.size_words = 12;
  r.params = {{"r", "10"}};
  r.url = "warehouse.example/q1?r=10";
  const std::string expected = dash::core::SearchService::RenderResults({r, r});
  const std::uint64_t served = BodyHash(expected);
  EXPECT_TRUE(AnswerMatches(served, expected));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string wrong = expected;
    wrong[i] = static_cast<char>(wrong[i] ^ 0x01);
    EXPECT_FALSE(AnswerMatches(BodyHash(wrong), expected)) << "byte " << i;
  }
  EXPECT_FALSE(AnswerMatches(served, expected + "\n"));
  EXPECT_FALSE(AnswerMatches(served, expected.substr(1)));
}

// ---- Client framing --------------------------------------------------

// A webapp::HttpServer answering every request with `body`.
class SyntheticServer {
 public:
  explicit SyntheticServer(std::string body)
      : server_(
            [body = std::move(body)](const dash::webapp::HttpRequest& request,
                                     Clock::time_point) {
              dash::webapp::HttpResponse response;
              response.body = request.path == "/echo" ? request.query_string : body;
              return response;
            },
            dash::webapp::HttpServer::Options{}) {
    server_.Start();
  }
  int port() const { return server_.port(); }
  dash::webapp::HttpServer::Stats stats() const { return server_.stats(); }

 private:
  dash::webapp::HttpServer server_;
};

TEST(Client, FramesAContentLengthBody) {
  const std::string big(200000, 'x');  // many recv() calls
  SyntheticServer server(big);
  LoopbackClient client(server.port());
  Exchange exchange;
  auto response = client.Get("/anything", &exchange);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, big);
  EXPECT_TRUE(exchange.opened);
  EXPECT_LE(exchange.start, exchange.connect);
  EXPECT_LE(exchange.connect, exchange.done);
  response = client.Get("/echo?q=burger&k=2");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "q=burger&k=2");
}

TEST(Client, ClosesOnConnectionCloseAndCountsConnections) {
  SyntheticServer server("ok\n");
  LoopbackClient client(server.port());
  for (int i = 0; i < 3; ++i) {
    auto response = client.Get("/");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(WantsClose(*response));  // the server always says close
  }
  EXPECT_EQ(client.connections_opened(), 3u);
  EXPECT_EQ(server.stats().accepted, 3u);
}

// A raw loopback listener whose connections are served by `serve`.
class RawServer {
 public:
  explicit RawServer(std::function<void(int listen_fd)> serve) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    thread_ = std::thread([this, serve = std::move(serve)] { serve(fd_); });
  }
  ~RawServer() {
    thread_.join();
    ::close(fd_);
  }
  RawServer(const RawServer&) = delete;
  RawServer& operator=(const RawServer&) = delete;
  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

// Reads one request head (GETs have no body).
void ReadRequest(int fd) {
  std::string buffer;
  char c = 0;
  while (buffer.find("\r\n\r\n") == std::string::npos && ::recv(fd, &c, 1, 0) == 1) {
    buffer += c;
  }
}

void Send(int fd, const std::string& bytes) {
  ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

TEST(Client, FailsWhenThePeerClosesMidBody) {
  RawServer server([](int listen_fd) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    ReadRequest(fd);
    Send(fd, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly part of it");
    ::close(fd);
  });
  LoopbackClient client(server.port());
  EXPECT_FALSE(client.Get("/search?q=x").has_value());
}

TEST(Client, ReusesAKeptAliveConnection) {
  RawServer server([](int listen_fd) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    for (const char* body : {"first", "second!"}) {
      ReadRequest(fd);
      Send(fd, "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(std::strlen(body)) +
                   "\r\n\r\n" + body);
    }
    ::close(fd);
  });
  LoopbackClient client(server.port());
  auto first = client.Get("/a");
  Exchange exchange;
  auto second = client.Get("/b", &exchange);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->body, "first");
  EXPECT_EQ(second->body, "second!");
  EXPECT_FALSE(exchange.opened);
  EXPECT_EQ(client.connections_opened(), 1u);
}

TEST(Client, RetriesOnceWhenAnIdleConnectionWasClosed) {
  RawServer server([](int listen_fd) {
    for (const char* body : {"one", "two"}) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      ReadRequest(fd);
      Send(fd, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n" + std::string(body));
      ::close(fd);  // no "Connection: close", yet the connection ends
    }
  });
  LoopbackClient client(server.port());
  auto first = client.Get("/a");
  auto second = client.Get("/b");
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->body, "two");
  EXPECT_EQ(client.connections_opened(), 2u);
}

}  // namespace
}  // namespace dashbench
