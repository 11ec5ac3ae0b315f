#include "serve/protocol.hpp"

#include <filesystem>

#include "obs/json.hpp"

namespace mcsim::serve {

namespace fs = std::filesystem;

namespace {

Op parse_op(const std::string& name) {
  if (name == "submit") return Op::kSubmit;
  if (name == "status") return Op::kStatus;
  if (name == "result") return Op::kResult;
  if (name == "cancel") return Op::kCancel;
  if (name == "stats") return Op::kStats;
  if (name == "shutdown") return Op::kShutdown;
  throw ProtocolError(kErrBadRequest,
                      "unknown op \"" + name +
                          "\" (expected submit, status, result, cancel, "
                          "stats, or shutdown)");
}

std::uint64_t require_id(const obs::JsonValue& request) {
  const obs::JsonValue* id = request.find("id");
  if (id == nullptr || !id->is_number()) {
    throw ProtocolError(kErrBadRequest, "request needs a numeric \"id\" field");
  }
  try {
    return id->as_uint();
  } catch (const std::exception&) {
    throw ProtocolError(kErrBadRequest,
                        "\"id\" is not a non-negative integer: " + id->number_text());
  }
}

}  // namespace

std::string sandboxed_path(const std::string& root, const std::string& path) {
  if (root.empty()) {
    throw ProtocolError(kErrSandbox,
                        "this server accepts no trace paths (no sandbox root)");
  }
  const fs::path candidate(path);
  if (candidate.is_absolute()) {
    throw ProtocolError(kErrSandbox,
                        "absolute trace paths are not served: " + path);
  }
  // Lexical containment: normalizing the relative candidate hoists every
  // surviving ".." segment to the front, so escape detection is one check —
  // and the root's own spelling ("." or a trailing slash) cannot confuse a
  // prefix comparison. No filesystem access here — existence is the run's
  // problem, escape attempts are ours.
  const fs::path candidate_normal = candidate.lexically_normal();
  if (candidate_normal.begin() != candidate_normal.end() &&
      *candidate_normal.begin() == "..") {
    throw ProtocolError(kErrSandbox, "trace path escapes the sandbox root (" +
                                         root + "): " + path);
  }
  return (fs::path(root).lexically_normal() / candidate_normal)
      .lexically_normal()
      .generic_string();
}

Request parse_request(const std::string& line, const std::string& sandbox_root) {
  obs::JsonValue document;
  try {
    document = obs::parse_json(line);
  } catch (const std::exception& error) {
    throw ProtocolError(kErrBadJson, error.what());
  }
  if (!document.is_object()) {
    throw ProtocolError(kErrBadRequest, "request must be a JSON object");
  }
  const obs::JsonValue* op_field = document.find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    throw ProtocolError(kErrBadRequest, "request needs a string \"op\" field");
  }

  Request request;
  request.op = parse_op(op_field->as_string());
  switch (request.op) {
    case Op::kSubmit: {
      const obs::JsonValue* spec = document.find("spec");
      if (spec == nullptr || !spec->is_object()) {
        throw ProtocolError(kErrBadRequest,
                            "submit needs a \"spec\" scenario object");
      }
      try {
        request.spec = exp::scenario_from_json(*spec);
      } catch (const std::exception& error) {
        throw ProtocolError(kErrInvalidScenario, error.what());
      }
      if (request.spec.mode != exp::RunMode::kPoint) {
        throw ProtocolError(
            kErrInvalidScenario,
            "the experiment service runs point-mode scenarios only (mode \"" +
                std::string(exp::run_mode_name(request.spec.mode)) +
                "\" submitted) — sweeps are a sequence of point submits");
      }
      if (request.spec.is_trace()) {
        request.spec.trace_path =
            sandboxed_path(sandbox_root, request.spec.trace_path);
      }
      if (const obs::JsonValue* name = document.find("name")) {
        if (!name->is_string()) {
          throw ProtocolError(kErrBadRequest, "\"name\" must be a string");
        }
        request.name = name->as_string();
      }
      break;
    }
    case Op::kStatus:
    case Op::kCancel:
      request.id = require_id(document);
      break;
    case Op::kResult:
      request.id = require_id(document);
      if (const obs::JsonValue* wait = document.find("wait")) {
        if (!wait->is_bool()) {
          throw ProtocolError(kErrBadRequest, "\"wait\" must be a boolean");
        }
        request.wait = wait->as_bool();
      }
      break;
    case Op::kStats:
    case Op::kShutdown:
      break;
  }
  return request;
}

std::string json_string(const std::string& text) {
  return '"' + obs::json_escape(text) + '"';
}

std::string error_response(const std::string& code, const std::string& message) {
  return "{\"ok\":false,\"error\":{\"code\":" + json_string(code) +
         ",\"message\":" + json_string(message) + "}}";
}

std::string ok_response(const std::string& body) {
  return body.empty() ? std::string("{\"ok\":true}") : "{\"ok\":true," + body + "}";
}

namespace {

void compact_into(const obs::JsonValue& value, std::string& out) {
  switch (value.kind()) {
    case obs::JsonValue::Kind::kNull:
      out += "null";
      break;
    case obs::JsonValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case obs::JsonValue::Kind::kNumber:
      // Verbatim source spelling: the value came out of our own writer
      // (max_digits10), so copying the text is the bit-preserving move.
      out += value.number_text();
      break;
    case obs::JsonValue::Kind::kString:
      out += json_string(value.as_string());
      break;
    case obs::JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const obs::JsonValue& item : value.items()) {
        if (!first) out += ',';
        first = false;
        compact_into(item, out);
      }
      out += ']';
      break;
    }
    case obs::JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        out += json_string(key);
        out += ':';
        compact_into(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string compact_json(const obs::JsonValue& value) {
  std::string out;
  compact_into(value, out);
  return out;
}

}  // namespace mcsim::serve
