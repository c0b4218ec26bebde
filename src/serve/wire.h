// carl_serve wire format: the request/response messages of the query
// service and their binary encoding.
//
// Framing: every message travels as one length-prefixed frame —
//
//   uint32 LE payload length | payload bytes
//
// — capped at kMaxFrameBytes. The payload is a flat sequence of TLV
// fields: uint8 tag, uint32 LE length, `length` payload bytes. Decoders
// skip unknown tags (forward compatibility) and reject truncated fields.
// Integers are fixed-width little-endian; doubles are their raw IEEE-754
// bit pattern (little-endian), so an answer round-trips the wire
// BIT-IDENTICAL to the in-process value — the serve test suite asserts
// exact equality against direct CarlEngine calls, NaN patterns included.
//
// The full field catalog lives in docs/serving.md. Bootstrap sample
// vectors and the peer condition are deliberately not on the wire: the
// client knows its query, and samples are a debugging payload, not a
// serving one (std_error/CI travel as scalars).

#ifndef CARL_SERVE_WIRE_H_
#define CARL_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"

namespace carl {
namespace serve {

/// Hard cap on one frame's payload. Programs and answers are small; a
/// larger frame is a protocol error, not a workload.
constexpr size_t kMaxFrameBytes = 16 * 1024 * 1024;

/// One query over the wire. `instance` names a dataset registered with
/// the service; `program` is the CaRL model text; `query` the causal
/// query text. deadline_ms counts from ADMISSION (queue wait included,
/// see docs/serving.md); zero fields fall back to the service defaults.
struct ServeRequest {
  uint64_t request_id = 0;
  std::string instance;
  std::string program;
  std::string query;
  double deadline_ms = 0.0;
  uint64_t memory_budget = 0;  ///< guard arena-byte ceiling; 0 = default
  uint64_t max_bindings = 0;   ///< guard binding ceiling; 0 = unlimited
  // EngineOptions subset with serving semantics; the rest stay at their
  // engine defaults.
  uint32_t bootstrap_replicates = 0;
  uint64_t seed = 42;
};

/// One effect estimate over the wire (samples intentionally omitted).
struct WireEstimate {
  double value = 0.0;
  double std_error = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
};

/// The answer + status + timing of one request. `code`/`message` mirror
/// carl::Status; every engine Status code has a stable wire value
/// (WireCode/CodeFromWire).
struct ServeResponse {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;

  /// 0 = no answer (error), 1 = ATE answer, 2 = relational effects.
  uint8_t kind = 0;
  WireEstimate ate;
  WireEstimate aie, are, aoe, aie_psi;
  double naive_treated = 0.0, naive_control = 0.0, naive_diff = 0.0;
  uint64_t num_units = 0, dropped_units = 0;
  bool relational = false;
  std::string response_attribute;
  uint8_t criterion = 0;  ///< 0 = not checked, 1 = failed, 2 = passed

  /// Milliseconds this request waited in the admission queue.
  double queue_ms = 0.0;
  /// Engine-side per-phase breakdown (see engine.h).
  QueryTiming timing;
  /// True when this request ran on a shard engine that another request
  /// created (and grounded).
  bool coalesced = false;

  bool ok() const { return code == StatusCode::kOk; }
};

constexpr uint8_t kAnswerNone = 0;
constexpr uint8_t kAnswerAte = 1;
constexpr uint8_t kAnswerEffects = 2;

/// Stable StatusCode <-> wire mapping. Unknown wire values decode as
/// kInternal (a protocol-version skew must surface, not alias kOk).
uint32_t WireCode(StatusCode code);
StatusCode CodeFromWire(uint32_t wire);

std::string EncodeRequest(const ServeRequest& request);
Status DecodeRequest(std::string_view payload, ServeRequest* request);

std::string EncodeResponse(const ServeResponse& response);
Status DecodeResponse(std::string_view payload, ServeResponse* response);

/// Blocking frame I/O over a connected socket/pipe fd. ReadFrame returns
/// kUnavailable on clean EOF before any byte, kInvalidArgument on an
/// oversized length prefix, kInternal on a mid-frame error.
Status WriteFrame(int fd, std::string_view payload);
Status ReadFrame(int fd, std::string* payload);

/// Flattens an engine QueryResponse into the wire form (status, answer
/// variant, timing). queue_ms/coalesced/request_id are the service's to
/// fill.
ServeResponse FromQueryResponse(const QueryResponse& response);

}  // namespace serve
}  // namespace carl

#endif  // CARL_SERVE_WIRE_H_
