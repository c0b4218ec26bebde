#include "serving.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/logging.h"

namespace carlbench {

carl::Status WireClient::Connect(uint16_t port, int connections,
                                 Handler handler) {
  handler_ = std::move(handler);
  for (int i = 0; i < connections; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return carl::Status::Internal("socket() failed");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return carl::Status::Internal("connect() failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->reader = std::thread([this, fd] {
      std::string payload;
      while (carl::serve::ReadFrame(fd, &payload).ok()) {
        uint64_t read_ns = NowNs();
        carl::serve::ServeResponse response;
        carl::Status status = carl::serve::DecodeResponse(payload, &response);
        if (!status.ok()) {
          response.code = status.code();
          response.message = status.message();
        }
        handler_(response, read_ns, NowNs() - read_ns);
      }
    });
    conns_.push_back(std::move(conn));
  }
  return carl::Status::OK();
}

carl::Status WireClient::Send(int conn,
                              const carl::serve::ServeRequest& request,
                              uint64_t* encode_ns) {
  uint64_t start = NowNs();
  std::string frame = carl::serve::EncodeRequest(request);
  *encode_ns = NowNs() - start;
  return carl::serve::WriteFrame(conns_[static_cast<size_t>(conn)]->fd, frame);
}

void WireClient::Close() {
  for (auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }
  conns_.clear();
}

carl::Status SyncClient::Connect(uint16_t port) {
  return client_.Connect(
      port, 1,
      [this](const carl::serve::ServeResponse& response, uint64_t read_ns,
             uint64_t decode_ns) {
        std::lock_guard<std::mutex> lock(mu_);
        if (pending_ == nullptr) return;
        for (Exchange& exchange : *pending_) {
          if (exchange.request.request_id != response.request_id) continue;
          exchange.response = response;
          exchange.read_ns = read_ns;
          exchange.decode_ns = decode_ns;
          ++received_;
          cv_.notify_one();
          return;
        }
      });
}

carl::Status SyncClient::Call(std::vector<Exchange>* exchanges) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = exchanges;
    received_ = 0;
  }
  for (Exchange& exchange : *exchanges) {
    exchange.send_ns = NowNs();
    carl::Status status = client_.Send(0, exchange.request, &exchange.encode_ns);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ = nullptr;
      return status;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  bool done = cv_.wait_for(lock, std::chrono::seconds(120), [&] {
    return received_ == exchanges->size();
  });
  pending_ = nullptr;
  return done ? carl::Status::OK()
              : carl::Status::DeadlineExceeded("no response within 120 s");
}

ServedDatasets::ServedDatasets(Named datasets, int workers)
    : datasets_(std::move(datasets)) {
  carl::serve::ServeOptions options;
  options.num_workers = workers;
  // Admission never rejects: an open loop past capacity must show as
  // latency and backlog, not as refusals.
  options.max_queue_depth = size_t{1} << 20;
  service_ = std::make_unique<carl::serve::ServeService>(options);
  for (const auto& [name, data] : datasets_) {
    CARL_CHECK_OK(service_->RegisterInstance(name, data.schema.get(),
                                             data.instance.get()));
  }
  service_->Start();
  tcp_ = std::make_unique<carl::serve::TcpServer>(service_.get());
  CARL_CHECK_OK(tcp_->Listen(0));
}

ServedDatasets::~ServedDatasets() {
  tcp_->Stop();
  service_->Shutdown();
}

const carl::datagen::Dataset& ServedDatasets::dataset(
    const std::string& name) const {
  for (const auto& [n, data] : datasets_) {
    if (n == name) return data;
  }
  CARL_CHECK(false) << "no dataset " << name;
  return datasets_.front().second;
}

}  // namespace carlbench
