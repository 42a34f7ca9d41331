#include "serve_mix.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "corpus/corpus.h"
#include "harness.h"
#include "json/json.h"

namespace fsbench {

namespace {

constexpr std::size_t kBlameParams = 8;
/// One request in 1000 is an invalidate. No recorded fsdep usage gives a
/// read/write ratio; this is an arbitrary fixed choice.
constexpr std::uint64_t kInvalidatePeriod = 1000;

}  // namespace

std::vector<std::string> registryParameters() {
  std::vector<std::string> params;
  for (const fsdep::model::Component& component : fsdep::corpus::ecosystem().components()) {
    for (const fsdep::model::Parameter& param : component.parameters) {
      params.push_back(param.qualifiedName());
    }
  }
  return params;
}

ServeMix makeServeMix(std::uint64_t seed, const std::vector<std::string>& registry_params) {
  ServeMix mix;
  mix.invalidate_period = kInvalidatePeriod;
  for (const char* scenario : {"s1", "s2", "s3", "s4", "all"}) {
    for (const bool json : {false, true}) {
      for (const bool inter : {false, true}) {
        mix.keys.push_back(ServeKey{"extract", scenario, "", json, inter, false});
      }
    }
  }
  for (const bool inter : {false, true}) {
    for (const bool self_deps : {false, true}) {
      mix.keys.push_back(ServeKey{"depgraph", "", "", false, inter, self_deps});
    }
  }
  mix.keys.push_back(ServeKey{"docck", "", "", false, false, false});

  // Seeded draw of distinct registry parameters for blame.
  std::vector<std::string> pool = registry_params;
  std::uint64_t state = seed ^ 0x626c616d65ull;  // "blame"
  for (std::size_t i = 0; i < kBlameParams && i < pool.size(); ++i) {
    const std::size_t pick = i + static_cast<std::size_t>(splitmix64(state) % (pool.size() - i));
    std::swap(pool[i], pool[pick]);
    mix.blame_params.push_back(pool[i]);
  }
  for (const std::string& param : mix.blame_params) {
    for (const bool inter : {false, true}) {
      mix.keys.push_back(ServeKey{"blame", "", param, false, inter, false});
    }
  }
  return mix;
}

RequestStream::RequestStream(const ServeMix& mix, std::uint64_t seed, std::size_t client)
    : mix_(mix), state_(seed * 0x100000001b3ull + client + 1) {
  phase_ = random() % mix_.invalidate_period;
}

std::uint64_t RequestStream::random() { return splitmix64(state_); }

int RequestStream::next() {
  const std::uint64_t position = position_++;
  if ((position + phase_) % mix_.invalidate_period == mix_.invalidate_period - 1) return -1;
  return static_cast<int>(random() % mix_.keys.size());
}

std::string requestLine(const ServeKey& key, std::size_t index) {
  fsdep::json::Object request;
  std::string id = "k";
  id += std::to_string(index);
  request["id"] = std::move(id);
  request["type"] = key.type;
  if (!key.scenario.empty()) request["scenario"] = key.scenario;
  if (!key.param.empty()) request["param"] = key.param;
  if (key.type != "docck") request[key.inter ? "inter" : "intra"] = true;
  if (key.json) request["json"] = true;
  if (key.self_deps) request["self_deps"] = true;
  return fsdep::json::writeCompact(fsdep::json::Value(std::move(request)));
}

ServeConnection::~ServeConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool ServeConnection::open(const std::string& socket_path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "connect(" + socket_path + "): " + std::strerror(errno);
    return false;
  }
  return true;
}

bool ServeConnection::roundTrip(const std::string& line, std::string& response) {
  if (fd_ < 0) return false;
  const std::string framed = line + "\n";
  for (std::size_t sent = 0; sent < framed.size();) {
    const ssize_t n = ::write(fd_, framed.data() + sent, framed.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  std::size_t nl = 0;
  char chunk[65536];
  while ((nl = buffer_.find('\n')) == std::string::npos) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  response.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return true;
}

ResponseCheck checkResponse(const std::string& raw, const std::string& expected) {
  ResponseCheck check;
  fsdep::Result<fsdep::json::Value> parsed = [&] {
    Span span("json.parse");
    return fsdep::json::parse(raw);
  }();
  if (!parsed.ok() || !parsed.value().isObject()) return check;
  const fsdep::json::Object& response = parsed.value().asObject();
  const fsdep::json::Value* ok = response.find("ok");
  const fsdep::json::Value* text = response.find("stdout");
  const fsdep::json::Value* cached = response.find("cached");
  const fsdep::json::Value* wall = response.find("wall_us");
  check.matches = ok != nullptr && ok->asBool() && text != nullptr && text->isString() &&
                  text->asString() == expected;
  check.cached = cached != nullptr && cached->asBool();
  check.wall_us = wall != nullptr ? static_cast<double>(wall->asInt()) : 0;
  return check;
}

std::string invalidateLine() { return R"({"id":"inv","type":"invalidate"})"; }

}  // namespace fsbench
