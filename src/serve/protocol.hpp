/// \file
/// \brief The experiment-service wire protocol: newline-delimited JSON
/// requests and responses over a local Unix-domain socket
/// (docs/SERVING.md, "The protocol").
///
/// One request per line, one response line per request, in order. Every
/// response is an object with `"ok": true|false`; failures carry a
/// structured `"error": {"code", "message"}` object — the trust boundary
/// never answers malformed or hostile input with a crash or a raw
/// exception dump. Requests:
///
///   {"op":"submit", "spec":{...scenario...}, "name":"..."?}  -> {"ok":true,"id":N,"state":"queued"}
///   {"op":"status", "id":N}                                   -> {"ok":true,"id":N,"state":"...", ...}
///   {"op":"result", "id":N, "wait":bool?}                     -> {"ok":true,"id":N,"manifest":{...}}
///   {"op":"cancel", "id":N}                                   -> {"ok":true,"id":N,"state":"cancelled"}
///   {"op":"stats"}                                            -> {"ok":true,"cache":{...},"runs":{...}, ...}
///   {"op":"shutdown"}                                         -> {"ok":true,"draining":N}
///
/// This header also owns the *sandbox rule* for network-supplied scenario
/// specs: a trace path submitted over the socket must stay inside the
/// server's sandbox root — out-of-tree paths (absolute, or escaping via
/// ..) are rejected with a structured error, never opened.
#pragma once

#include <cstdint>
#include <string>

#include "exp/scenario_spec.hpp"
#include "obs/json_reader.hpp"

namespace mcsim::serve {

/// Machine-readable error codes (the `error.code` field). Stable strings —
/// clients and the serve-smoke CI job match on them.
inline constexpr const char* kErrBadJson = "bad-json";
inline constexpr const char* kErrBadRequest = "bad-request";
inline constexpr const char* kErrInvalidScenario = "invalid-scenario";
inline constexpr const char* kErrSandbox = "sandbox-violation";
inline constexpr const char* kErrUnknownRun = "unknown-run";
inline constexpr const char* kErrRunFailed = "run-failed";
inline constexpr const char* kErrRunCancelled = "run-cancelled";
inline constexpr const char* kErrNotCancellable = "not-cancellable";
inline constexpr const char* kErrShuttingDown = "shutting-down";

/// What a request asks for.
enum class Op : std::uint8_t { kSubmit, kStatus, kResult, kCancel, kStats, kShutdown };

/// A parsed, validated request. `spec` is populated for kSubmit only.
struct Request {
  Op op = Op::kStats;
  exp::ScenarioSpec spec;
  std::string name;      ///< submit: optional client-chosen label
  std::uint64_t id = 0;  ///< status/result/cancel
  bool wait = true;      ///< result: block until the run reaches a terminal state
};

/// Thrown by parse_request on any protocol violation; `code` is one of the
/// kErr* strings above and the message is safe to echo to the client.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Parse one request line. This is THE trust boundary: malformed JSON,
/// unknown ops, missing/mistyped fields, invalid scenario specs and
/// out-of-sandbox trace paths all surface as ProtocolError (-> a
/// structured error response), never as a crash. `sandbox_root` is the
/// directory trace paths must resolve under (empty = reject all trace
/// specs).
Request parse_request(const std::string& line, const std::string& sandbox_root);

/// Resolve `path` against `root` and require the result to stay inside it.
/// Returns the joined, lexically normalized path. Throws ProtocolError
/// (kErrSandbox) for absolute paths and any path whose normal form escapes
/// the root — the rule is lexical (no symlink chasing): the daemon serves
/// whatever the operator parked under the root, nothing else.
std::string sandboxed_path(const std::string& root, const std::string& path);

// -- response builders ------------------------------------------------------
// Responses are compact single-line JSON (the framing is one line per
// message, so the pretty-printing obs::JsonWriter cannot be used here).

/// `{"ok":false,"error":{"code":...,"message":...}}`
std::string error_response(const std::string& code, const std::string& message);

/// `{"ok":true, <body>}` — `body` is a pre-rendered, comma-led fragment
/// ("" for a bare ok). Prefer the typed helpers below.
std::string ok_response(const std::string& body);

/// Render a parsed JSON value compactly (no whitespace), preserving number
/// spellings verbatim — embedding a manifest in a response line keeps every
/// double bit-exact through the extra parse/serialize hop.
std::string compact_json(const obs::JsonValue& value);

/// JSON string literal (quotes + escaping) for response fragments.
std::string json_string(const std::string& text);

}  // namespace mcsim::serve
