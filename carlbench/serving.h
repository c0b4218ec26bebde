// A pipelined carl_serve client over loopback TCP. TcpClient allows one
// blocking call at a time, so it cannot keep many requests in flight on a
// schedule; this client writes frames with EncodeRequest/WriteFrame from
// the caller's thread and reads responses on one reader thread per
// connection, handing each decoded response to a callback.

#ifndef CARLBENCH_SERVING_H_
#define CARLBENCH_SERVING_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datagen/dataset.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "serve/wire.h"

namespace carlbench {

class WireClient {
 public:
  /// Runs on a reader thread: the decoded response, when its frame was
  /// fully read, and how long decoding took.
  using Handler = std::function<void(const carl::serve::ServeResponse&,
                                     uint64_t read_ns, uint64_t decode_ns)>;

  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Opens `connections` sockets to 127.0.0.1:`port`.
  carl::Status Connect(uint16_t port, int connections, Handler handler);

  /// Encodes `request` and writes it on connection `conn`. Only one
  /// thread may send on a connection. `encode_ns` receives the encode
  /// time.
  carl::Status Send(int conn, const carl::serve::ServeRequest& request,
                    uint64_t* encode_ns);

  int connections() const { return static_cast<int>(conns_.size()); }

  /// Shuts every socket down and joins the readers. Idempotent.
  void Close();

 private:
  struct Conn {
    int fd = -1;
    std::thread reader;
  };
  Handler handler_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// One request/response round trip of a SyncClient, with its timings.
struct Exchange {
  carl::serve::ServeRequest request;
  carl::serve::ServeResponse response;
  uint64_t send_ns = 0;    // before encoding
  uint64_t encode_ns = 0;
  uint64_t read_ns = 0;    // response frame fully read
  uint64_t decode_ns = 0;
};

/// Blocking calls over one pipelined connection: Call writes a batch of
/// requests back to back and returns when every response has arrived.
class SyncClient {
 public:
  carl::Status Connect(uint16_t port);
  carl::Status Call(std::vector<Exchange>* exchanges);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Exchange>* pending_ = nullptr;  // guarded by mu_
  size_t received_ = 0;                       // guarded by mu_
  WireClient client_;  // last: its readers use the members above
};

/// Generated datasets registered with a started ServeService that
/// listens on a kernel-assigned loopback port. Destruction stops the
/// socket front door, then drains and joins the service, then frees the
/// datasets.
class ServedDatasets {
 public:
  using Named = std::vector<std::pair<std::string, carl::datagen::Dataset>>;
  ServedDatasets(Named datasets, int workers);
  ~ServedDatasets();
  ServedDatasets(const ServedDatasets&) = delete;
  ServedDatasets& operator=(const ServedDatasets&) = delete;

  uint16_t port() const { return tcp_->port(); }
  carl::serve::ServeService& service() { return *service_; }
  const carl::datagen::Dataset& dataset(const std::string& name) const;

 private:
  Named datasets_;
  std::unique_ptr<carl::serve::ServeService> service_;
  std::unique_ptr<carl::serve::TcpServer> tcp_;
};

}  // namespace carlbench

#endif  // CARLBENCH_SERVING_H_
