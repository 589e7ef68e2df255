#include "sweepd/protocol.hpp"

namespace pns::sweepd {

namespace {

/// Starts a compact one-line message document of the given type.
class MessageWriter {
 public:
  explicit MessageWriter(const char* type)
      : writer_(line_, JsonStyle::kCompact) {
    writer_.begin_object();
    writer_.kv("type", type);
  }

  JsonWriter& w() { return writer_; }

  std::string finish() {
    writer_.end_object();
    return std::move(line_);
  }

 private:
  std::string line_;
  JsonWriter writer_;
};

}  // namespace

JsonValue parse_message(const std::string& line) {
  JsonValue msg;
  try {
    msg = parse_json(line);
  } catch (const JsonError& e) {
    throw ProtocolError(std::string("malformed message: ") + e.what());
  }
  if (msg.type() != JsonValue::Type::kObject)
    throw ProtocolError("malformed message: not a JSON object");
  const JsonValue* type = msg.find("type");
  if (!type || type->type() != JsonValue::Type::kString)
    throw ProtocolError("malformed message: missing \"type\"");
  return msg;
}

const std::string& message_type(const JsonValue& msg) {
  return msg.at("type").as_string();
}

std::string make_hello(const std::string& role, unsigned threads,
                       std::size_t reconnects) {
  MessageWriter m("hello");
  m.w().kv("role", role);
  m.w().kv("proto", kProtocolVersion);
  m.w().kv("threads", static_cast<std::uint64_t>(threads));
  if (reconnects != 0)
    m.w().kv("reconnects", static_cast<std::uint64_t>(reconnects));
  return m.finish();
}

std::string make_hello_ok() {
  MessageWriter m("hello_ok");
  m.w().kv("proto", kProtocolVersion);
  return m.finish();
}

std::string make_submit(const JobSpec& spec) {
  MessageWriter m("submit");
  m.w().key("spec");
  spec.write_json(m.w());
  return m.finish();
}

std::string make_submitted(const std::string& job,
                           const std::string& identity,
                           std::size_t total) {
  MessageWriter m("submitted");
  m.w().kv("job", job);
  m.w().kv("identity", identity);
  m.w().kv("total", static_cast<std::uint64_t>(total));
  return m.finish();
}

std::string make_lease_request() {
  return MessageWriter("lease_request").finish();
}

std::string make_lease(const std::string& job, std::uint64_t lease,
                       double timeout_s, const JobSpec& spec,
                       const std::vector<std::size_t>& indices) {
  MessageWriter m("lease");
  m.w().kv("job", job);
  m.w().kv("lease", lease);
  m.w().kv("timeout_s", timeout_s);
  m.w().key("spec");
  spec.write_json(m.w());
  m.w().key("indices");
  m.w().begin_array();
  for (const std::size_t i : indices)
    m.w().value(static_cast<std::uint64_t>(i));
  m.w().end_array();
  return m.finish();
}

std::string make_idle(std::size_t active_jobs, double poll_s) {
  MessageWriter m("idle");
  m.w().kv("active_jobs", static_cast<std::uint64_t>(active_jobs));
  m.w().kv("poll_s", poll_s);
  return m.finish();
}

std::string make_row(const std::string& job, std::uint64_t lease,
                     std::size_t index, double wall_s,
                     const sweep::SummaryRow& row) {
  MessageWriter m("row");
  m.w().kv("job", job);
  if (lease != 0) m.w().kv("lease", lease);
  m.w().kv("i", static_cast<std::uint64_t>(index));
  if (wall_s >= 0.0) m.w().kv("wall_s", wall_s);
  m.w().key("row");
  sweep::write_summary_row_json(m.w(), row);
  return m.finish();
}

std::string make_lease_done(const std::string& job, std::uint64_t lease) {
  MessageWriter m("lease_done");
  m.w().kv("job", job);
  m.w().kv("lease", lease);
  return m.finish();
}

std::string make_heartbeat(const std::string& job, std::uint64_t lease) {
  MessageWriter m("heartbeat");
  m.w().kv("job", job);
  m.w().kv("lease", lease);
  return m.finish();
}

std::string make_status(const std::string& job) {
  MessageWriter m("status");
  if (!job.empty()) m.w().kv("job", job);
  return m.finish();
}

std::string make_results(const std::string& job) {
  MessageWriter m("results");
  m.w().kv("job", job);
  return m.finish();
}

std::string make_results_begin(const std::string& job,
                               const std::string& identity,
                               std::size_t total, std::size_t done,
                               bool complete) {
  MessageWriter m("results_begin");
  m.w().kv("job", job);
  m.w().kv("identity", identity);
  m.w().kv("total", static_cast<std::uint64_t>(total));
  m.w().kv("done", static_cast<std::uint64_t>(done));
  m.w().kv("complete", complete);
  return m.finish();
}

std::string make_results_end(const std::string& job, std::size_t failed) {
  MessageWriter m("results_end");
  m.w().kv("job", job);
  m.w().kv("failed", static_cast<std::uint64_t>(failed));
  return m.finish();
}

std::string make_watch(const std::string& job) {
  MessageWriter m("watch");
  m.w().kv("job", job);
  return m.finish();
}

std::string make_watch_ok(const std::string& job, std::size_t total,
                          std::size_t done) {
  MessageWriter m("watch_ok");
  m.w().kv("job", job);
  m.w().kv("total", static_cast<std::uint64_t>(total));
  m.w().kv("done", static_cast<std::uint64_t>(done));
  return m.finish();
}

std::string make_job_done(const std::string& job, std::size_t failed) {
  MessageWriter m("job_done");
  m.w().kv("job", job);
  m.w().kv("failed", static_cast<std::uint64_t>(failed));
  return m.finish();
}

std::string make_shutdown() { return MessageWriter("shutdown").finish(); }

std::string make_bye() { return MessageWriter("bye").finish(); }

std::string make_error(const std::string& text) {
  MessageWriter m("error");
  m.w().kv("error", text);
  return m.finish();
}

}  // namespace pns::sweepd
