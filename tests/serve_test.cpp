// fsdep serve protocol tests: an in-process daemon on a temp socket,
// driven through both the raw line handler and real socket round trips.
// Byte-identity against the direct pipeline, memoized warm queries,
// malformed-request tolerance, a `stats` answer that is the registry's,
// and clean shutdown.
#include "tools/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "extract/scoring.h"
#include "json/json.h"
#include "model/serialization.h"
#include "obs/metrics.h"

namespace fsdep::tools {
namespace {

namespace fs = std::filesystem;

std::string testSocketPath(const char* name) {
  return (fs::temp_directory_path() /
          ("fsdep-serve-test-" + std::string(name) + "-" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

json::Object parseResponse(const std::string& line) {
  Result<json::Value> parsed = json::parse(line);
  EXPECT_TRUE(parsed.ok()) << "response is not JSON: " << line;
  EXPECT_TRUE(parsed.value().isObject());
  return parsed.value().asObject();
}

/// The response's error text ("" when it has none).
std::string errorOf(const json::Object& response) {
  const json::Value* error = response.find("error");
  return error != nullptr && error->isString() ? error->asString() : "";
}

/// What the one-shot CLI prints for `fsdep extract --scenario <id>`.
std::string directExtractText(const std::string& scenario_id) {
  if (const corpus::Scenario* s = corpus::findScenario(scenario_id)) {
    const std::vector<model::Dependency> deps = corpus::runScenario(*s);
    std::string text;
    for (const model::Dependency& dep : deps) {
      text += dep.summary();
      text.push_back('\n');
    }
    text += "\n" + std::to_string(deps.size()) + " dependencies extracted\n";
    return text;
  }
  ADD_FAILURE() << "unknown scenario " << scenario_id;
  return {};
}

/// The process-wide sum of one serve counter family.
std::uint64_t servedTotal(const char* name) { return obs::Registry::global().counterSum(name); }

TEST(ServeProtocol, PingAndUnknownTypeAndMalformedLine) {
  ServeDaemon daemon(ServeOptions{testSocketPath("proto")});

  json::Object ping = parseResponse(daemon.handleLine(R"({"id":"7","type":"ping"})"));
  EXPECT_TRUE(ping.find("ok")->asBool());
  EXPECT_EQ(ping.find("id")->asString(), "7");
  EXPECT_EQ(ping.find("stdout")->asString(), "pong");
  EXPECT_TRUE(ping.contains("wall_us"));

  json::Object unknown = parseResponse(daemon.handleLine(R"({"type":"frobnicate"})"));
  EXPECT_FALSE(unknown.find("ok")->asBool());
  EXPECT_NE(unknown.find("error")->asString().find("unknown request type"), std::string::npos);

  json::Object missing = parseResponse(daemon.handleLine(R"({"id":"x"})"));
  EXPECT_FALSE(missing.find("ok")->asBool());

  json::Object garbage = parseResponse(daemon.handleLine("this is not json"));
  EXPECT_FALSE(garbage.find("ok")->asBool());
  EXPECT_NE(garbage.find("error")->asString().find("malformed"), std::string::npos);

  json::Object not_object = parseResponse(daemon.handleLine("[1,2,3]"));
  EXPECT_FALSE(not_object.find("ok")->asBool());
}

TEST(ServeProtocol, DeeplyNestedLineIsRejectedAndTheDaemonKeepsServing) {
  ServeDaemon daemon(ServeOptions{testSocketPath("deep")});
  json::Object deep = parseResponse(daemon.handleLine(std::string(200000, '[')));
  EXPECT_FALSE(deep.find("ok")->asBool());
  EXPECT_NE(errorOf(deep).find("nesting too deep"), std::string::npos) << errorOf(deep);
  json::Object ping = parseResponse(daemon.handleLine(R"({"type":"ping"})"));
  EXPECT_TRUE(ping.find("ok")->asBool());
}

TEST(ServeProtocol, ExtractMatchesDirectPipelineByteForByte) {
  ServeDaemon daemon(ServeOptions{testSocketPath("extract")});
  const std::string expected = directExtractText("s1");
  const std::uint64_t memo_hits = servedTotal("serve.memo_hits");

  json::Object cold =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1"})"));
  ASSERT_TRUE(cold.find("ok")->asBool());
  EXPECT_EQ(cold.find("stdout")->asString(), expected);
  EXPECT_FALSE(cold.find("cached")->asBool());

  json::Object warm =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1"})"));
  ASSERT_TRUE(warm.find("ok")->asBool());
  EXPECT_EQ(warm.find("stdout")->asString(), expected) << "memoized answer must not drift";
  EXPECT_TRUE(warm.find("cached")->asBool());
  EXPECT_EQ(servedTotal("serve.memo_hits") - memo_hits, 1u);

  // A different option string is a different memo slot, not a stale hit.
  json::Object other = parseResponse(
      daemon.handleLine(R"({"type":"extract","scenario":"s1","no_bridging":true})"));
  ASSERT_TRUE(other.find("ok")->asBool());
  EXPECT_FALSE(other.find("cached")->asBool());

  json::Object bad =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s9"})"));
  EXPECT_FALSE(bad.find("ok")->asBool());
  EXPECT_NE(bad.find("error")->asString().find("unknown scenario"), std::string::npos);
}

// The `stats` answer reads the registry, and each request adds to
// serve.requests exactly once: a line that does not parse counts under
// type "".
TEST(ServeProtocol, StatsAnswerIsTheRegistry) {
  ServeDaemon daemon(ServeOptions{testSocketPath("stats")});
  const std::uint64_t requests = servedTotal("serve.requests");
  const std::uint64_t memo_hits = servedTotal("serve.memo_hits");
  const std::uint64_t errors = servedTotal("serve.errors");
  const std::uint64_t untyped =
      obs::Registry::global().counterValue("serve.requests", {{"type", ""}});

  EXPECT_TRUE(parseResponse(daemon.handleLine(R"({"type":"ping"})")).find("ok")->asBool());
  for (int round = 0; round < 2; ++round) {  // the second is a memo hit
    json::Object extract =
        parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s2"})"));
    ASSERT_TRUE(extract.find("ok")->asBool()) << errorOf(extract);
    EXPECT_EQ(extract.find("cached")->asBool(), round == 1);
  }
  EXPECT_FALSE(parseResponse(daemon.handleLine("not json")).find("ok")->asBool());
  EXPECT_FALSE(parseResponse(daemon.handleLine(R"({"type":"frobnicate"})")).find("ok")->asBool());

  json::Object answer = parseResponse(daemon.handleLine(R"({"type":"stats"})"));
  ASSERT_TRUE(answer.find("ok")->asBool()) << errorOf(answer);
  const Result<json::Value> stats = json::parse(answer.find("stdout")->asString());
  ASSERT_TRUE(stats.ok() && stats.value().isObject());
  const json::Object& counts = stats.value().asObject();
  EXPECT_EQ(static_cast<std::uint64_t>(counts.find("requests")->asInt()),
            servedTotal("serve.requests"));
  EXPECT_EQ(static_cast<std::uint64_t>(counts.find("memo_hits")->asInt()),
            servedTotal("serve.memo_hits"));
  EXPECT_EQ(static_cast<std::uint64_t>(counts.find("errors")->asInt()),
            servedTotal("serve.errors"));
  // Six requests, the `stats` one included; one memo hit; two errors.
  EXPECT_EQ(servedTotal("serve.requests") - requests, 6u);
  EXPECT_EQ(servedTotal("serve.memo_hits") - memo_hits, 1u);
  EXPECT_EQ(servedTotal("serve.errors") - errors, 2u);
  EXPECT_EQ(obs::Registry::global().counterValue("serve.requests", {{"type", ""}}) - untyped, 1u);
}

TEST(ServeProtocol, ExtractAnswersTheXfsAndBtrfsScenarios) {
  ServeDaemon daemon(ServeOptions{testSocketPath("ss6")});
  for (const std::string id : {"xfs", "btrfs"}) {
    json::Object response =
        parseResponse(daemon.handleLine(R"({"type":"extract","scenario":")" + id + R"("})"));
    ASSERT_TRUE(response.find("ok")->asBool()) << errorOf(response);
    EXPECT_EQ(response.find("stdout")->asString(), directExtractText(id)) << id;
  }
}

TEST(ServeProtocol, WrongTypedFieldIsRejectedAndDoesNotPoisonTheMemo) {
  // "json":"true" used to be ignored (a text answer) and memoized under
  // the key of "json":true, so the correct request got text back.
  ServeDaemon daemon(ServeOptions{testSocketPath("typed")});
  json::Object wrong = parseResponse(
      daemon.handleLine(R"({"type":"extract","scenario":"s1","json":"true"})"));
  EXPECT_FALSE(wrong.find("ok")->asBool());
  EXPECT_NE(errorOf(wrong).find("'json'"), std::string::npos) << errorOf(wrong);

  json::Object right =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1","json":true})"));
  ASSERT_TRUE(right.find("ok")->asBool());
  EXPECT_FALSE(right.find("cached")->asBool());
  const Result<json::Value> deps = json::parse(right.find("stdout")->asString());
  ASSERT_TRUE(deps.ok()) << "json:true must answer JSON";
  EXPECT_TRUE(deps.value().isObject());
}

TEST(ServeProtocol, FieldTheCommandDoesNotTakeIsRejected) {
  ServeDaemon daemon(ServeOptions{testSocketPath("unknown-field")});
  json::Object response =
      parseResponse(daemon.handleLine(R"({"type":"docck","scenario":"s1"})"));
  EXPECT_FALSE(response.find("ok")->asBool());
  EXPECT_NE(errorOf(response).find("'scenario'"), std::string::npos) << errorOf(response);
  // The removed executor switch is a field no command takes any more.
  response = parseResponse(daemon.handleLine(R"({"type":"extract","legacy_walk":true})"));
  EXPECT_FALSE(response.find("ok")->asBool());
  EXPECT_NE(errorOf(response).find("'legacy_walk'"), std::string::npos) << errorOf(response);
}

TEST(ServeProtocol, MemoKeyIsTheCanonicalTypedOptions) {
  // An explicit intra and json:false run the same command the same way
  // as leaving them out.
  ServeDaemon daemon(ServeOptions{testSocketPath("canonical")});
  json::Object cold =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1"})"));
  ASSERT_TRUE(cold.find("ok")->asBool());
  EXPECT_FALSE(cold.find("cached")->asBool());
  json::Object warm = parseResponse(daemon.handleLine(
      R"({"type":"extract","scenario":"s1","intra":true,"json":false})"));
  ASSERT_TRUE(warm.find("ok")->asBool());
  EXPECT_TRUE(warm.find("cached")->asBool());
  EXPECT_EQ(warm.find("stdout")->asString(), cold.find("stdout")->asString());
}

TEST(ServeProtocol, BlameRequiresParamAndListsDependencies) {
  ServeDaemon daemon(ServeOptions{testSocketPath("blame")});

  json::Object missing = parseResponse(daemon.handleLine(R"({"type":"blame"})"));
  EXPECT_FALSE(missing.find("ok")->asBool());

  json::Object blame = parseResponse(
      daemon.handleLine(R"({"type":"blame","param":"mke2fs.sparse_super2"})"));
  ASSERT_TRUE(blame.find("ok")->asBool());
  EXPECT_NE(blame.find("stdout")->asString().find("mke2fs.sparse_super2"),
            std::string::npos);
}

TEST(ServeProtocol, InvalidateClearsTheMemo) {
  ServeDaemon daemon(ServeOptions{testSocketPath("invalidate")});
  ASSERT_TRUE(parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("ok")->asBool());
  EXPECT_TRUE(
      parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("cached")->asBool());

  ASSERT_TRUE(
      parseResponse(daemon.handleLine(R"({"type":"invalidate"})")).find("ok")->asBool());
  EXPECT_FALSE(
      parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("cached")->asBool())
      << "invalidate must clear the response memo";
}

TEST(ServeSocket, RoundTripAndConcurrentClientsAndShutdown) {
  const std::string socket_path = testSocketPath("socket");
  ServeDaemon daemon(ServeOptions{socket_path});
  const Result<bool> started = daemon.start();
  ASSERT_TRUE(started.ok()) << started.error().message;
  ASSERT_TRUE(daemon.running());

  // Typed client round trip.
  json::Object ping;
  ping["id"] = "t1";
  ping["type"] = "ping";
  const Result<ServeResponse> pong = serveRequest(socket_path, ping);
  ASSERT_TRUE(pong.ok()) << pong.error().message;
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().stdout_text, "pong");
  EXPECT_EQ(pong.value().id, "t1");

  // Raw round trip (malformed request must produce an error response,
  // not a dropped connection).
  const Result<std::string> raw = serveRoundTrip(socket_path, "not json at all");
  ASSERT_TRUE(raw.ok()) << raw.error().message;
  EXPECT_FALSE(parseResponse(raw.value()).find("ok")->asBool());

  // Concurrent clients: every thread gets a correct, complete response.
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> good{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      json::Object request;
      request["type"] = "ping";
      const Result<ServeResponse> response = serveRequest(socket_path, request);
      if (response.ok() && response.value().ok && response.value().stdout_text == "pong") {
        good.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(good.load(), kClients);

  // Shutdown request unblocks wait(); the socket file disappears.
  json::Object shutdown;
  shutdown["type"] = "shutdown";
  ASSERT_TRUE(serveRequest(socket_path, shutdown).ok());
  daemon.wait();
  daemon.stop();
  EXPECT_FALSE(fs::exists(socket_path));

  // Clients now get a transport error, not a hang.
  EXPECT_FALSE(serveRoundTrip(socket_path, R"({"type":"ping"})").ok());
}

}  // namespace
}  // namespace fsdep::tools
