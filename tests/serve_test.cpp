// serve_test.cpp -- the serving subsystem: the cross-circuit session LRU
// (eviction order, exact byte accounting, key separation, bit-identical
// rebuilds), the wire protocol, and the request engine (served responses
// bytewise identical to direct AnalysisSession runs, deadline'd requests
// never poisoning the cache, stats, the TCP transport).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/library.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"
#include "test_util.hpp"
#include "util/json.hpp"

namespace ndet::serve {
namespace {

SessionOptions single_thread() {
  SessionOptions options;
  options.num_threads = 1;
  return options;
}

/// Runs the key's worst-case stage under a lease and returns the charged
/// bytes the session reports for itself.
std::size_t touch(SessionCache& cache, const std::string& circuit) {
  SessionCache::Lease lease = cache.acquire(CacheKey{circuit});
  (void)lease.session().worst_case();
  cache.update(lease);
  return lease.session().stats().set_memory_bytes;
}

TEST(SessionCache, AccountingMatchesSetMemoryBytesExactly) {
  SessionCache cache(/*budget_bytes=*/0, single_thread());  // unbounded
  std::size_t expected = 0;
  for (const char* circuit : {"paper_example", "bbtas", "dk27"})
    expected += touch(cache, circuit);
  const SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, expected);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SessionCache, SecondAcquireIsAHit) {
  SessionCache cache(0, single_thread());
  touch(cache, "bbtas");
  SessionCache::Lease lease = cache.acquire(CacheKey{"bbtas"});
  EXPECT_TRUE(lease.hit());
  EXPECT_EQ(cache.stats().hits, 1u);
  // The memoized stage is served without recomputation.
  (void)lease.session().worst_case();
  EXPECT_EQ(lease.session().stats().worst_case_hits, 1u);
}

TEST(SessionCache, EvictsLeastRecentlyUsedUnderBytePressure) {
  // bbtas charges ~35KB; a 2.5-working-set budget holds two or three small
  // circuits but not five, so the oldest must go first.
  SessionCache cache(/*budget_bytes=*/80u << 10, single_thread());
  const std::vector<std::string> order = {"paper_example", "bbtas", "dk27",
                                          "lion9", "train11"};
  for (const std::string& circuit : order) touch(cache, circuit);

  const SessionCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, 80u << 10);
  EXPECT_GT(stats.evictions, 0u);
  // Whatever survived is exactly the most-recent tail of the touch order.
  const std::vector<std::string> resident = cache.resident_lru_order();
  ASSERT_FALSE(resident.empty());
  ASSERT_LE(resident.size(), order.size());
  EXPECT_EQ(resident,
            std::vector<std::string>(order.end() - resident.size(),
                                     order.end()));
  // The evicted head is gone, the tail is present.
  EXPECT_FALSE(cache.contains(CacheKey{"paper_example"}));
  EXPECT_TRUE(cache.contains(CacheKey{order.back()}));
}

TEST(SessionCache, ReacquireRefreshesRecency) {
  SessionCache cache(0, single_thread());
  touch(cache, "bbtas");
  touch(cache, "dk27");
  touch(cache, "bbtas");  // bbtas is now the most recent again
  EXPECT_EQ(cache.resident_lru_order(),
            (std::vector<std::string>{"dk27", "bbtas"}));
}

TEST(SessionCache, DistinctOptionsDoNotCollide) {
  SessionCache cache(0, single_thread());
  SessionCache::Lease a = cache.acquire(CacheKey{"bbtas", 20});
  SessionCache::Lease b =
      cache.acquire(CacheKey{"bbtas", 20, SetRepresentation::kDense});
  SessionCache::Lease c = cache.acquire(CacheKey{"bbtas", 16});
  EXPECT_FALSE(a.hit());
  EXPECT_FALSE(b.hit());
  EXPECT_FALSE(c.hit());
  EXPECT_NE(&a.session(), &b.session());
  EXPECT_NE(&a.session(), &c.session());
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SessionCache, PinnedEntriesSurviveEviction) {
  SessionCache cache(/*budget_bytes=*/1, single_thread());  // evict everything
  SessionCache::Lease pinned = cache.acquire(CacheKey{"bbtas"});
  (void)pinned.session().worst_case();
  cache.update(pinned);  // over budget, but the lease pins the entry
  EXPECT_TRUE(cache.contains(CacheKey{"bbtas"}));
  // Another circuit's update can evict it once nothing else pins it... but
  // not while this lease is live.
  EXPECT_GT(cache.stats().bytes, 1u);
}

TEST(SessionCache, OversizedEntryLeavesWhenItsLeaseIsReleased) {
  SessionCache cache(/*budget_bytes=*/1, single_thread());
  {
    SessionCache::Lease lease = cache.acquire(CacheKey{"bbtas"});
    (void)lease.session().worst_case();
    cache.update(lease);  // over budget, but the lease pins the entry
    EXPECT_TRUE(cache.contains(CacheKey{"bbtas"}));
  }
  // Dropping the last pin re-runs eviction: nothing stays resident past
  // the budget once no request needs it.
  EXPECT_FALSE(cache.contains(CacheKey{"bbtas"}));
  const SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(SessionCache, EvictedThenReusedRebuildsBitIdentical) {
  const std::string direct = [] {
    AnalysisSession session("bbtas", single_thread());
    return to_json(session.worst_case());
  }();

  SessionCache cache(/*budget_bytes=*/40u << 10, single_thread());
  std::string first;
  {
    SessionCache::Lease lease = cache.acquire(CacheKey{"bbtas"});
    first = to_json(lease.session().worst_case());
    cache.update(lease);
  }
  // Push bbtas out under byte pressure...
  touch(cache, "dk27");
  touch(cache, "lion9");
  ASSERT_FALSE(cache.contains(CacheKey{"bbtas"}));
  // ...and the rebuilt session reproduces the result byte for byte.
  SessionCache::Lease rebuilt = cache.acquire(CacheKey{"bbtas"});
  EXPECT_FALSE(rebuilt.hit());
  EXPECT_EQ(to_json(rebuilt.session().worst_case()), first);
  EXPECT_EQ(first, direct);
}

TEST(SessionCache, FlushDropsEverythingUnpinned) {
  SessionCache cache(0, single_thread());
  touch(cache, "bbtas");
  touch(cache, "dk27");
  cache.flush();
  const SessionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(SessionCache, UnknownCircuitIsNotAdmitted) {
  SessionCache cache(0, single_thread());
  EXPECT_THROW((void)cache.acquire(CacheKey{"no_such_circuit"}), Error);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesAFullRequest) {
  const Request r = parse_request(
      R"({"id":9,"type":"average_case","circuit":"dk27","deadline_ms":250,)"
      R"("max_inputs":18,"representation":"dense","nmax":3,"num_sets":7,)"
      R"("seed":11,"definition":"dissimilar","def2_probe_limit":16,)"
      R"("keep_test_sets":true})");
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.type, RequestType::kAverageCase);
  EXPECT_EQ(r.circuit, "dk27");
  EXPECT_EQ(r.deadline_ms, 250u);
  EXPECT_EQ(r.key.max_inputs, 18);
  EXPECT_EQ(r.key.representation, SetRepresentation::kDense);
  EXPECT_EQ(r.average.nmax, 3);
  EXPECT_EQ(r.average.num_sets, 7u);
  EXPECT_EQ(r.average.seed, 11u);
  EXPECT_EQ(r.average.definition, DetectionDefinition::kDissimilar);
  EXPECT_EQ(r.average.def2_probe_limit, 16u);
  EXPECT_TRUE(r.average.keep_test_sets);
}

TEST(Protocol, RejectsBadRequests) {
  for (const char* bad : {
           "not json at all",
           "[]",                                        // not an object
           R"({"type":"frobnicate","circuit":"x"})",    // unknown type
           R"({"type":"worst_case"})",                  // missing circuit
           R"({"type":"worst_case","circuit":""})",     // empty circuit
           R"({"type":"worst_case","circuit":"bbtas","nmax":3})",  // wrong key
           R"({"type":"ping","circuit":"bbtas"})",      // key not in vocab
           R"({"type":"worst_case","circuit":"bbtas","max_inputs":99})",
           R"({"type":"average_case","circuit":"bbtas","num_sets":0})",
           R"({"type":"average_case","circuit":"bbtas","num_sets":100001})",
           R"({"type":"average_case","circuit":"bbtas",)"
           R"("num_sets":1000000000000})",
           R"({"type":"average_case","circuit":"bbtas",)"
           R"("def2_probe_limit":1025})",
           R"({"type":"average_case","circuit":"bbtas",)"
           R"("def2_probe_limit":1000000})",
           // A partition takes only a budget: its cones are built with
           // default options, and there is one grouping mode.
           R"({"type":"partition","circuit":"bbtas","by_structure":true})",
           R"({"type":"partition","circuit":"bbtas","min_overlap":0.25})",
           R"({"type":"partition","circuit":"bbtas","max_inputs":20})",
           R"({"type":"partition","circuit":"bbtas",)"
           R"("representation":"dense"})",
       }) {
    try {
      (void)parse_request(bad);
      ADD_FAILURE() << "expected rejection for: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput) << bad;
    }
  }

  // Procedure 1's caps are inclusive.
  const Request at_caps = parse_request(
      R"({"type":"average_case","circuit":"bbtas","num_sets":100000,)"
      R"("def2_probe_limit":1024})");
  EXPECT_EQ(at_caps.average.num_sets, 100'000u);
  EXPECT_EQ(at_caps.average.def2_probe_limit, 1'024u);

  // A capped parameter is refused at the parse, so the reply echoes the
  // request's id and type before any session is built.
  ServerOptions options;
  options.concurrency = 1;
  options.threads = 1;
  Server server(options);
  for (const char* line :
       {R"({"id":11,"type":"average_case","circuit":"cse",)"
        R"("num_sets":1000000000000})",
        R"({"id":11,"type":"average_case","circuit":"cse",)"
        R"("definition":"dissimilar","def2_probe_limit":1000000})"}) {
    const json::Value v = json::parse(server.handle_line(line));
    EXPECT_EQ(v.at("id").as_uint64(), 11u) << line;
    EXPECT_EQ(v.at("type").as_string(), "average_case") << line;
    EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input") << line;
  }
  const json::Value partition = json::parse(server.handle_line(
      R"({"id":12,"type":"partition","circuit":"bbtas","max_inputs":20})"));
  EXPECT_EQ(partition.at("id").as_uint64(), 12u);
  EXPECT_EQ(partition.at("type").as_string(), "partition");
  EXPECT_EQ(partition.at("error").at("kind").as_string(), "invalid_input");
}

// --- server -----------------------------------------------------------------

ServerOptions small_server() {
  ServerOptions options;
  options.concurrency = 2;
  options.threads = 2;
  return options;
}

TEST(Server, ResponsesAreBitIdenticalToDirectSessions) {
  Server server(small_server());
  AnalysisSession direct("bbtas", single_thread());

  const std::string worst =
      server.handle_line(R"({"id":1,"type":"worst_case","circuit":"bbtas"})");
  EXPECT_NE(worst.find("\"ok\":true"), std::string::npos) << worst;
  EXPECT_NE(worst.find("\"result\":" + to_json(direct.worst_case())),
            std::string::npos);

  Procedure1Request request;
  request.nmax = 2;
  request.num_sets = 6;
  request.seed = 5;
  const std::string average = server.handle_line(
      R"({"id":2,"type":"average_case","circuit":"bbtas","nmax":2,)"
      R"("num_sets":6,"seed":5})");
  EXPECT_NE(average.find("\"result\":" + to_json(direct.average_case(request))),
            std::string::npos)
      << average;

  JsonWriter cones;
  cones.begin_array();
  for (const ConeReport& report :
       direct.partitioned(PartitionOptions{.max_inputs = 8}))
    cones.raw(to_json(report));
  cones.end_array();
  const std::string partition = server.handle_line(
      R"({"id":3,"type":"partition","circuit":"bbtas","budget":8})");
  EXPECT_NE(partition.find("\"result\":" + cones.str()), std::string::npos);

  // The second identical request is a cache hit with the same payload.
  const std::string again =
      server.handle_line(R"({"id":4,"type":"worst_case","circuit":"bbtas"})");
  EXPECT_NE(again.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(again.find("\"result\":" + to_json(direct.worst_case())),
            std::string::npos);
}

/// The raw "result" bytes of a success reply: the envelope splices them
/// between "result": and its trailing "session" object.
std::string result_bytes(const std::string& reply) {
  const std::string key = "\"result\":";
  const std::size_t begin = reply.find(key);
  const std::size_t end = reply.rfind(",\"session\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin)
    return {};
  return reply.substr(begin + key.size(), end - begin - key.size());
}

TEST(Server, ResultPayloadsMatchRecordedDigests) {
  // FNV-1a digests of each reply's "result" bytes, recorded at commit
  // 6e55a6d.  Every analysis type, both detection definitions, a dense
  // database and multi-cone partitions; a change that alters any served
  // payload fails here.  When a payload changes on purpose, replace its
  // digest with the one the failure prints.
  struct Golden {
    const char* line;
    std::uint64_t digest;
  };
  const Golden golden[] = {
      {R"({"id":1,"type":"worst_case","circuit":"paper_example"})",
       0xbfce58b2bc031888},
      {R"({"id":2,"type":"worst_case","circuit":"bbtas"})",
       0xfc37a16748ae1415},
      {R"({"id":3,"type":"worst_case","circuit":"bbara",)"
       R"("representation":"dense"})",
       0xad27233e96c4fc0b},
      {R"({"id":4,"type":"average_case","circuit":"bbara","nmax":2,)"
       R"("num_sets":48})",
       0x88c840e04e9f3173},
      {R"({"id":5,"type":"average_case","circuit":"bbara","nmax":2,)"
       R"("num_sets":16,"definition":"dissimilar"})",
       0xb3552cfba57f132c},
      {R"({"id":6,"type":"average_case","circuit":"dk27","nmax":2,)"
       R"("num_sets":8,"seed":7})",
       0x0a17b62b705350f2},
      {R"({"id":7,"type":"partition","circuit":"c17","budget":4})",
       0x5ca669cedc389ee9},
      {R"({"id":8,"type":"partition","circuit":"tav","budget":4})",
       0x53044cef430832ae},
      {R"({"id":9,"type":"partition","circuit":"bbara","budget":8})",
       0xbbd91973c4749eb0},
  };
  Server server(small_server());
  for (const Golden& g : golden) {
    const std::string reply = server.handle_line(g.line);
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    const std::uint64_t digest = ndet::testing::fnv1a64(result_bytes(reply));
    EXPECT_EQ(digest, g.digest)
        << g.line << "\n  result digest 0x" << std::hex << digest
        << ", recorded 0x" << g.digest << std::dec;
  }
}

TEST(Server, DeadlinedRequestNeverPoisonsTheCache) {
  Server server(small_server());
  // keyb's exhaustive stage takes far longer than 1ms.
  std::optional<ErrorKind> failure;
  const std::string aborted = server.handle_line(
      R"({"id":1,"type":"worst_case","circuit":"keyb","deadline_ms":1})",
      &failure);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(*failure, ErrorKind::kDeadlineExceeded);
  EXPECT_NE(aborted.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(aborted.find("\"kind\":\"deadline_exceeded\""), std::string::npos);
  // The aborted stage is attributed...
  EXPECT_EQ(aborted.find("\"stage\":\"\""), std::string::npos) << aborted;

  // ...and the entry was NOT poisoned: the same key served fresh (no
  // deadline) now computes the full result, identical to a direct run.
  failure.reset();
  const std::string ok = server.handle_line(
      R"({"id":2,"type":"worst_case","circuit":"keyb"})", &failure);
  EXPECT_FALSE(failure.has_value());
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos);
  AnalysisSession direct("keyb", single_thread());
  EXPECT_NE(ok.find("\"result\":" + to_json(direct.worst_case())),
            std::string::npos);
}

TEST(Server, DeadlinePastTheClocksRangeMeansNoDeadline) {
  Server server(small_server());
  for (const char* deadline : {"10000000000000", "18446744073709551615"}) {
    std::optional<ErrorKind> failure;
    const std::string reply = server.handle_line(
        std::string(R"({"id":1,"type":"worst_case","circuit":"bbtas",)") +
            R"("deadline_ms":)" + deadline + "}",
        &failure);
    EXPECT_FALSE(failure.has_value()) << deadline;
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  }
}

TEST(Server, MalformedLinesBecomeErrorResponsesNotThrows) {
  Server server(small_server());
  std::optional<ErrorKind> failure;
  const std::string response = server.handle_line("{oops", &failure);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(*failure, ErrorKind::kInvalidInput);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"kind\":\"invalid_input\""), std::string::npos);
  EXPECT_NE(response.find("line 1"), std::string::npos) << response;
  // Every response line is itself valid JSON.
  EXPECT_NO_THROW((void)json::parse(response));
}

TEST(Server, OversizeLinesAreRejected) {
  ServerOptions options = small_server();
  options.max_line_bytes = 64;
  Server server(options);
  const std::string big(1000, 'x');
  std::optional<ErrorKind> failure;
  (void)server.handle_line(big, &failure);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(*failure, ErrorKind::kInvalidInput);
}

TEST(Server, StatsReportCountsAndCacheTelemetry) {
  Server server(small_server());
  (void)server.handle_line(R"({"id":1,"type":"worst_case","circuit":"bbtas"})");
  (void)server.handle_line(R"({"id":2,"type":"worst_case","circuit":"bbtas"})");
  (void)server.handle_line(R"({"id":3,"type":"ping"})");
  (void)server.handle_line("garbage");

  const std::string response =
      server.handle_line(R"({"id":4,"type":"stats"})");
  const json::Value v = json::parse(response);
  EXPECT_TRUE(v.at("ok").as_bool());
  const json::Value& stats = v.at("result");
  EXPECT_EQ(stats.at("malformed").as_uint64(), 1u);
  EXPECT_GE(stats.at("accepted").as_uint64(), 5u);
  const json::Value& worst = stats.at("requests").at("worst_case");
  EXPECT_EQ(worst.at("count").as_uint64(), 2u);
  EXPECT_EQ(worst.at("ok").as_uint64(), 2u);
  EXPECT_GT(worst.at("latency_ms").at("p99").as_double(), 0.0);
  EXPECT_GE(worst.at("latency_ms").at("p99").as_double(),
            worst.at("latency_ms").at("p50").as_double());
  const json::Value& cache = stats.at("cache");
  EXPECT_EQ(cache.at("hits").as_uint64(), 1u);
  EXPECT_EQ(cache.at("misses").as_uint64(), 1u);
  EXPECT_GT(cache.at("bytes").as_uint64(), 0u);
}

/// Runs serve_tcp on an ephemeral port in `serving` and returns the port.
/// The promise lives in the serving thread's closure, so it outlives its
/// one use.
int serve_in_background(Server& server, std::thread& serving) {
  std::promise<int> bound;
  std::future<int> port = bound.get_future();
  serving = std::thread([&server, bound = std::move(bound)]() mutable {
    server.serve_tcp(0, [&bound](int p) { bound.set_value(p); });
  });
  return port.get();
}

/// A socket connected to 127.0.0.1:`port`.
int dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Sends `request` on a new connection, half-closes it, and returns all
/// the server writes back before EOF.
std::string round_trip(int port, const std::string& request) {
  const int fd = dial(port);
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof chunk)) > 0)
    response.append(chunk, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

TEST(Server, TcpRoundTrip) {
  Server server(small_server());
  std::thread serving;
  const int port = serve_in_background(server, serving);
  ASSERT_GT(port, 0);
  const std::string response = round_trip(
      port, "{\"id\":5,\"type\":\"worst_case\",\"circuit\":\"bbtas\"}\n");
  server.shutdown();
  serving.join();

  ASSERT_FALSE(response.empty());
  const json::Value v = json::parse(response.substr(0, response.find('\n')));
  EXPECT_EQ(v.at("id").as_uint64(), 5u);
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("circuit").as_string(), "bbtas");
}

TEST(Server, ServeStreamAnswersEveryLine) {
  // Several lines on one TCP connection, the daemon's stream transport:
  // each non-blank line gets exactly one reply, a malformed one included.
  Server server(small_server());
  std::thread serving;
  const int port = serve_in_background(server, serving);
  ASSERT_GT(port, 0);
  const std::string response = round_trip(
      port,
      "{\"id\":1,\"type\":\"worst_case\",\"circuit\":\"bbtas\"}\n"
      "\n"  // blank lines are skipped, not answered
      "{\"id\":2,\"type\":\"ping\"}\n"
      "not json\n"
      "{\"id\":3,\"type\":\"worst_case\",\"circuit\":\"dk27\"}\n");
  server.shutdown();
  serving.join();

  std::istringstream lines(response);
  std::string line;
  std::vector<std::uint64_t> ids;
  std::size_t malformed = 0;
  while (std::getline(lines, line)) {
    const json::Value v = json::parse(line);  // every line is valid JSON
    const std::uint64_t id = v.at("id").as_uint64();
    if (id == 0) {
      ++malformed;
      EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input");
      continue;
    }
    ids.push_back(id);
    EXPECT_TRUE(v.at("ok").as_bool()) << line;
    if (id == 1) {
      EXPECT_EQ(v.at("circuit").as_string(), "bbtas");
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(malformed, 1u);
}

TEST(Server, ConcurrentMixedRequestsAllSucceedAndMatch) {
  // A miniature in-process load test: 4 client threads hammer 4 circuits
  // through a budget small enough to force eviction; every response must
  // still match the direct computation bit for bit.
  ServerOptions options = small_server();
  options.cache_bytes = 64u << 10;
  Server server(options);

  const std::vector<std::string> circuits = {"paper_example", "bbtas", "dk27",
                                             "lion9"};
  std::map<std::string, std::string> expected;
  for (const std::string& circuit : circuits) {
    AnalysisSession direct(circuit, single_thread());
    expected[circuit] = to_json(direct.worst_case());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 12; ++i) {
        const std::string& circuit = circuits[(c + i) % circuits.size()];
        const std::string response = server.handle_line(
            "{\"id\":1,\"type\":\"worst_case\",\"circuit\":\"" + circuit +
            "\"}");
        if (response.find("\"result\":" + expected[circuit]) ==
            std::string::npos)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The four working sets sum past the budget, so eviction must have run.
  // (The final byte count may sit transiently above the budget when the
  // last update ran while other leases still pinned their entries, so only
  // the eviction counter is asserted.)
  EXPECT_GT(server.cache().stats().evictions, 0u);
}

// --- admission queue --------------------------------------------------------

AdmittedLine make_line(std::uint64_t id, Priority priority,
                       std::size_t bytes = 2) {
  AdmittedLine line;
  line.request.id = id;
  line.request.priority = priority;
  line.bytes = bytes;
  line.respond = [](std::string&&) {};
  return line;
}

/// Closes the queue and pops what it still holds: the ids in dispatch
/// order.
std::vector<std::uint64_t> drain_ids(AdmissionQueue& queue) {
  queue.close();
  std::vector<std::uint64_t> ids;
  AdmittedLine out;
  while (queue.pop(out)) ids.push_back(out.request.id);
  return ids;
}

TEST(AdmissionQueue, InteractiveLaneDispatchesFirstFifoWithinLane) {
  AdmissionQueue queue(/*max_depth=*/0, /*max_bytes=*/0);
  std::vector<AdmittedLine> displaced;
  AdmittedLine b1 = make_line(1, Priority::kBatch);
  AdmittedLine b2 = make_line(2, Priority::kBatch);
  AdmittedLine i1 = make_line(3, Priority::kInteractive);
  AdmittedLine i2 = make_line(4, Priority::kInteractive);
  ASSERT_TRUE(queue.offer(b1, &displaced));
  ASSERT_TRUE(queue.offer(b2, &displaced));
  ASSERT_TRUE(queue.offer(i1, &displaced));
  ASSERT_TRUE(queue.offer(i2, &displaced));
  EXPECT_TRUE(displaced.empty());

  // Deterministic at the queue level: both interactive entries first, each
  // lane in admission order.
  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{3, 4, 1, 2}));
}

TEST(AdmissionQueue, DepthBoundShedsNewestAndCountsByPriority) {
  AdmissionQueue queue(/*max_depth=*/2, /*max_bytes=*/0);
  std::vector<AdmittedLine> displaced;
  AdmittedLine a = make_line(1, Priority::kBatch);
  AdmittedLine b = make_line(2, Priority::kBatch);
  AdmittedLine c = make_line(3, Priority::kBatch);
  ASSERT_TRUE(queue.offer(a, &displaced));
  ASSERT_TRUE(queue.offer(b, &displaced));
  EXPECT_FALSE(queue.offer(c, &displaced));
  // The rejected line keeps its request (and its responder with it).
  EXPECT_EQ(c.request.id, 3u);
  EXPECT_TRUE(static_cast<bool>(c.respond));
  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_batch, 1u);
  EXPECT_EQ(stats.shed_interactive, 0u);
  EXPECT_EQ(stats.displaced, 0u);
}

TEST(AdmissionQueue, ByteBoundSheds) {
  AdmissionQueue queue(/*max_depth=*/0, /*max_bytes=*/8);
  std::vector<AdmittedLine> displaced;
  AdmittedLine small = make_line(1, Priority::kBatch, 5);
  AdmittedLine big = make_line(2, Priority::kBatch, 6);
  ASSERT_TRUE(queue.offer(small, &displaced));
  EXPECT_FALSE(queue.offer(big, &displaced));  // 5 + 6 > 8
  EXPECT_EQ(queue.stats().bytes, 5u);
}

TEST(AdmissionQueue, InteractiveDisplacesNewestBatchEntries) {
  AdmissionQueue queue(/*max_depth=*/2, /*max_bytes=*/0);
  std::vector<AdmittedLine> displaced;
  AdmittedLine b1 = make_line(1, Priority::kBatch);
  AdmittedLine b2 = make_line(2, Priority::kBatch);
  AdmittedLine i1 = make_line(3, Priority::kInteractive);
  ASSERT_TRUE(queue.offer(b1, &displaced));
  ASSERT_TRUE(queue.offer(b2, &displaced));
  // Full queue, but an interactive offer displaces the NEWEST batch entry.
  ASSERT_TRUE(queue.offer(i1, &displaced));
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0].request.id, 2u);
  EXPECT_TRUE(static_cast<bool>(displaced[0].respond));

  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.displaced, 1u);
  EXPECT_EQ(stats.shed_batch, 1u);

  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{3, 1}));
}

TEST(AdmissionQueue, BatchNeverDisplaces) {
  AdmissionQueue queue(/*max_depth=*/1, /*max_bytes=*/0);
  std::vector<AdmittedLine> displaced;
  AdmittedLine i1 = make_line(1, Priority::kInteractive);
  AdmittedLine b1 = make_line(2, Priority::kBatch);
  ASSERT_TRUE(queue.offer(i1, &displaced));
  EXPECT_FALSE(queue.offer(b1, &displaced));
  EXPECT_TRUE(displaced.empty());
}

TEST(AdmissionQueue, CloseShedsNewOffersButDrainsQueuedLines) {
  AdmissionQueue queue(0, 0);
  std::vector<AdmittedLine> displaced;
  AdmittedLine queued = make_line(1, Priority::kBatch);
  ASSERT_TRUE(queue.offer(queued, &displaced));
  queue.close();
  AdmittedLine late = make_line(2, Priority::kBatch);
  EXPECT_FALSE(queue.offer(late, &displaced));
  AdmittedLine out;
  EXPECT_TRUE(queue.pop(out));  // close() drains, it does not drop
  EXPECT_EQ(out.request.id, 1u);
  EXPECT_FALSE(queue.pop(out));  // closed and empty
}

// --- protocol: priority, health, shed envelope ------------------------------

TEST(Protocol, ParsesPriorityAndHealth) {
  EXPECT_EQ(parse_priority("interactive"), Priority::kInteractive);
  EXPECT_EQ(parse_priority("batch"), Priority::kBatch);
  EXPECT_THROW((void)parse_priority("urgent"), Error);

  const Request plain = parse_request(
      R"({"id":1,"type":"worst_case","circuit":"bbtas"})");
  EXPECT_EQ(plain.priority, Priority::kInteractive);  // the default
  const Request batch = parse_request(
      R"({"id":2,"type":"worst_case","circuit":"bbtas","priority":"batch"})");
  EXPECT_EQ(batch.priority, Priority::kBatch);
  const Request health = parse_request(R"({"id":3,"type":"health"})");
  EXPECT_EQ(health.type, RequestType::kHealth);
  EXPECT_THROW((void)parse_request(R"({"type":"health","circuit":"x"})"),
               Error);
}

TEST(Protocol, ShedResponseRoundTrip) {
  const std::string shed = shed_response(7, "worst_case", "queue full", 250);
  EXPECT_TRUE(is_shed_response(shed));
  EXPECT_EQ(retry_after_ms_of(shed), 250u);
  const json::Value v = json::parse(shed);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("id").as_uint64(), 7u);
  EXPECT_EQ(v.at("error").at("kind").as_string(), "resource_exhausted");
  EXPECT_EQ(v.at("error").at("retry_after_ms").as_uint64(), 250u);

  // Ordinary errors -- even resource_exhausted ones without the hint -- are
  // NOT retry triggers.
  const std::string plain = error_response(
      8, "worst_case", Error(ErrorKind::kResourceExhausted, "oom"), 1.0);
  EXPECT_FALSE(is_shed_response(plain));
}

// --- server: admission, priorities, health, drain ---------------------------

/// Submits through the admission path and blocks for the response.
std::string submit_sync(Server& server, const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  server.submit(line, [&](std::string&& response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

TEST(Server, SubmitAnswersUnparseableLinesWithoutQueueing) {
  // A line that does not parse, or exceeds the line cap, is answered
  // inside submit and never takes queue room.
  std::vector<std::string> replies;
  ServerOptions options = small_server();
  options.max_line_bytes = 64;
  Server server(options);
  for (const std::string& line : {std::string("not json"),
                                  std::string(1000, 'x')}) {
    const std::size_t before = replies.size();
    EXPECT_FALSE(server.submit(
        line, [&](std::string&& r) { replies.push_back(std::move(r)); }));
    // The responder ran before submit returned.
    ASSERT_EQ(replies.size(), before + 1);
    EXPECT_EQ(json::parse(replies.back()).at("error").at("kind").as_string(),
              "invalid_input");
  }
  const AdmissionStats admission = server.admission_stats();
  EXPECT_EQ(admission.admitted, 0u);
  EXPECT_EQ(admission.depth, 0u);
  EXPECT_EQ(admission.bytes, 0u);
  const json::Value stats =
      json::parse(server.handle_line(R"({"id":1,"type":"stats"})"));
  EXPECT_EQ(stats.at("result").at("malformed").as_uint64(), 2u);
}

TEST(Server, ParseErrorsEchoTheRequestIdAndType) {
  // The request names its id and type, but worst_case takes no "nmax":
  // the error must still reach the pipelining client that sent id 8.
  const std::string line =
      R"({"id":8,"type":"worst_case","circuit":"bbtas","nmax":3})";
  const auto expect_echo = [](const std::string& response) {
    const json::Value v = json::parse(response);
    EXPECT_EQ(v.at("id").as_uint64(), 8u) << response;
    EXPECT_EQ(v.at("type").as_string(), "worst_case") << response;
    EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input");
  };
  const auto malformed = [](Server& server) {
    return json::parse(server.handle_line(R"({"id":1,"type":"stats"})"))
        .at("result")
        .at("malformed")
        .as_uint64();
  };
  {
    Server server(small_server());
    expect_echo(server.handle_line(line));
    EXPECT_EQ(malformed(server), 1u);
  }
  {
    Server server(small_server());
    expect_echo(submit_sync(server, line));
    EXPECT_EQ(malformed(server), 1u);
  }

  // Only what the line names is echoed.
  Server server(small_server());
  const std::pair<const char*, std::pair<std::uint64_t, const char*>>
      cases[] = {
          {R"({"id":-1,"type":"ping","x":1})", {0, "ping"}},
          {R"({"id":5,"type":"frobnicate"})", {5, "unknown"}},
          {R"({"id":6,"type":7})", {6, "unknown"}},
          {R"([{"id":9,"type":"ping"}])", {0, "unknown"}},
          {R"({"id":3,"type":"ping"} trailing)", {0, "unknown"}},
      };
  for (const auto& [text, echo] : cases) {
    const json::Value v = json::parse(server.handle_line(text));
    EXPECT_EQ(v.at("id").as_uint64(), echo.first) << text;
    EXPECT_EQ(v.at("type").as_string(), echo.second) << text;
    EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input") << text;
  }
}

TEST(Server, SubmitShedsWhenQueueFullWithExactlyOneResponseEach) {
  ServerOptions options = small_server();
  options.concurrency = 1;  // one dispatcher to block
  options.max_queue_depth = 2;
  Server server(options);

  // Occupy the dispatcher with a slow request (keyb's exhaustive stage,
  // deadline-capped so the test stays fast under TSan), then wait until it
  // has been popped off the queue.
  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(
      R"({"id":100,"type":"worst_case","circuit":"keyb","deadline_ms":300})",
      [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  while (server.admission_stats().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Fill the queue, then overflow it: every line gets exactly one response,
  // the overflow synchronously as a typed shed with a retry hint.
  std::atomic<int> responses{0};
  std::atomic<int> sheds{0};
  for (int i = 0; i < 4; ++i) {
    server.submit(
        R"({"id":1,"type":"worst_case","circuit":"bbtas","priority":"batch"})",
        [&](std::string&& response) {
          responses.fetch_add(1);
          if (is_shed_response(response)) {
            sheds.fetch_add(1);
            EXPECT_GE(retry_after_ms_of(response), 1u);
          }
        });
  }
  EXPECT_EQ(sheds.load(), 2);      // 2 queued, 2 shed (synchronously)
  EXPECT_GE(responses.load(), 2);  // the sheds responded already

  // The blocker resolves (as a deadline error -- it was capped) and the
  // dispatcher then drains the two queued lines.
  const std::string slow = slow_future.get();
  EXPECT_FALSE(is_shed_response(slow));
  while (responses.load() < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(responses.load(), 4);  // exactly one response per submitted line
  EXPECT_EQ(server.admission_stats().shed_batch, 2u);
}

TEST(Server, InteractiveDispatchesBeforeQueuedBatch) {
  ServerOptions options = small_server();
  options.concurrency = 1;
  Server server(options);

  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(
      R"({"id":100,"type":"worst_case","circuit":"keyb","deadline_ms":300})",
      [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  while (server.admission_stats().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::mutex order_mutex;
  std::vector<std::string> order;
  std::atomic<int> done{0};
  auto record = [&](const char* tag) {
    return [&, tag](std::string&&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
      done.fetch_add(1);
    };
  };
  // Batch enqueued FIRST, interactive second -- the dispatcher must still
  // take the interactive lane first.
  server.submit(
      R"({"id":1,"type":"worst_case","circuit":"bbtas","priority":"batch"})",
      record("batch"));
  server.submit(
      R"({"id":2,"type":"worst_case","circuit":"dk27","priority":"interactive"})",
      record("interactive"));
  (void)slow_future.get();
  while (done.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"interactive", "batch"}));
}

TEST(Server, HealthReportsServingOverloadedAndDraining) {
  ServerOptions options = small_server();
  options.concurrency = 1;
  options.max_queue_depth = 4;
  Server server(options);

  const auto health_state = [&] {
    const std::string response =
        server.handle_line(R"({"id":1,"type":"health"})");
    return json::parse(response).at("result").at("state").as_string();
  };
  EXPECT_EQ(health_state(), "serving");

  // Block the dispatcher, then fill the queue to its high-water mark.
  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(
      R"({"id":100,"type":"worst_case","circuit":"keyb","deadline_ms":300})",
      [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  while (server.admission_stats().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i)
    server.submit(
        R"({"id":1,"type":"ping"})",  // answered synchronously, never queued
        [&](std::string&&) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 3);
  for (int i = 0; i < 3; ++i)
    server.submit(
        R"({"id":1,"type":"worst_case","circuit":"bbtas","priority":"batch"})",
        [&](std::string&&) { done.fetch_add(1); });
  EXPECT_EQ(health_state(), "overloaded");  // 3 of 4 = past the 3/4 mark

  server.begin_drain();
  EXPECT_EQ(health_state(), "draining");  // health still answers in drain
  (void)slow_future.get();
  EXPECT_TRUE(server.wait_drained(30000));
  EXPECT_EQ(server.state(), ServerState::kStopped);
  EXPECT_EQ(done.load(), 6);
}

TEST(Server, DrainShedsNewWorkFinishesAdmittedWorkAndStops) {
  ServerOptions options = small_server();
  Server server(options);

  std::promise<std::string> admitted_promise;
  std::future<std::string> admitted_future = admitted_promise.get_future();
  server.submit(
      R"({"id":1,"type":"worst_case","circuit":"bbtas"})",
      [&](std::string&& r) { admitted_promise.set_value(std::move(r)); });

  server.begin_drain();
  EXPECT_EQ(server.state(), ServerState::kDraining);

  // New analysis work is shed as draining; ping still answers.
  const std::string late =
      submit_sync(server, R"({"id":2,"type":"worst_case","circuit":"dk27"})");
  EXPECT_TRUE(is_shed_response(late));
  EXPECT_NE(late.find("draining"), std::string::npos) << late;
  const std::string ping = submit_sync(server, R"({"id":3,"type":"ping"})");
  EXPECT_NE(ping.find("\"ok\":true"), std::string::npos);

  // Admitted-before-drain work still completes successfully (within the
  // default 5s budget; bbtas takes milliseconds).
  const std::string admitted = admitted_future.get();
  EXPECT_NE(admitted.find("\"ok\":true"), std::string::npos) << admitted;
  EXPECT_TRUE(server.wait_drained(30000));
  EXPECT_EQ(server.state(), ServerState::kStopped);
}

TEST(Server, DrainBudgetDeadlinesOverBudgetWork) {
  ServerOptions options = small_server();
  options.drain_ms = 1;  // a budget keyb's exhaustive stage cannot meet
  Server server(options);

  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(R"({"id":1,"type":"worst_case","circuit":"keyb"})",
                [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  server.begin_drain();

  // The drain budget fires as a LABELED deadline: the response is
  // deadline_exceeded and its message says "drain budget", so a drained-out
  // request is distinguishable from an ordinary per-request deadline.
  const std::string response = slow_future.get();
  EXPECT_NE(response.find("\"kind\":\"deadline_exceeded\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("drain budget"), std::string::npos) << response;
  EXPECT_TRUE(server.wait_drained(30000));
}

TEST(Server, OwnDeadlineDuringDrainIsNotTheDrainBudget) {
  ServerOptions options = small_server();
  options.drain_ms = 60000;  // the drain budget cannot be what fires
  Server server(options);

  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(
      R"({"id":1,"type":"worst_case","circuit":"keyb","deadline_ms":20})",
      [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  server.begin_drain();

  const std::string response = slow_future.get();
  const json::Value reply = json::parse(response);
  const json::Value& error = reply.at("error");
  EXPECT_EQ(error.at("kind").as_string(), "deadline_exceeded") << response;
  const std::string message = error.at("message").as_string();
  EXPECT_NE(message.find("deadline exceeded"), std::string::npos) << response;
  EXPECT_EQ(message.find("drain budget"), std::string::npos) << response;
  EXPECT_TRUE(server.wait_drained(30000));
}

TEST(Server, DrainShedCountsAsAnErrorOnEveryEntryPath) {
  // Counted once per type and once per priority lane, as a served line is,
  // so the per-type and per-lane totals in stats agree during a drain.
  const std::string line =
      R"({"id":1,"type":"worst_case","circuit":"bbtas","priority":"batch"})";
  for (const bool via_submit : {false, true}) {
    SCOPED_TRACE(via_submit ? "submit" : "handle_line");
    Server server(small_server());
    server.begin_drain();
    const std::string reply =
        via_submit ? submit_sync(server, line) : server.handle_line(line);
    EXPECT_TRUE(is_shed_response(reply)) << reply;
    const json::Value stats =
        json::parse(server.handle_line(R"({"id":2,"type":"stats"})"));
    for (const json::Value* counters :
         {&stats.at("result").at("requests").at("worst_case"),
          &stats.at("result").at("priority").at("batch")}) {
      EXPECT_EQ(counters->at("count").as_uint64(), 1u);
      EXPECT_EQ(counters->at("errors").as_uint64(), 1u);
    }
  }
}

TEST(Server, StatsExposeAdmissionAndPriorityTelemetry) {
  ServerOptions options = small_server();
  options.concurrency = 1;
  options.max_queue_depth = 1;
  Server server(options);

  // One slow blocker, one queued batch line, one shed batch line.
  std::promise<std::string> slow_promise;
  std::future<std::string> slow_future = slow_promise.get_future();
  server.submit(
      R"({"id":1,"type":"worst_case","circuit":"keyb","deadline_ms":300})",
      [&](std::string&& r) { slow_promise.set_value(std::move(r)); });
  while (server.admission_stats().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<int> done{0};
  for (int i = 0; i < 2; ++i)
    server.submit(
        R"({"id":2,"type":"worst_case","circuit":"bbtas","priority":"batch"})",
        [&](std::string&&) { done.fetch_add(1); });
  (void)slow_future.get();
  while (done.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const json::Value v =
      json::parse(server.handle_line(R"({"id":9,"type":"stats"})"));
  const json::Value& stats = v.at("result");
  EXPECT_EQ(stats.at("state").as_string(), "serving");
  const json::Value& admission = stats.at("admission");
  EXPECT_EQ(admission.at("shed_batch").as_uint64(), 1u);
  EXPECT_EQ(admission.at("displaced").as_uint64(), 0u);
  EXPECT_GE(admission.at("peak_depth").as_uint64(), 1u);
  EXPECT_GE(admission.at("admitted").as_uint64(), 2u);
  EXPECT_EQ(admission.at("rejected_connections").as_uint64(), 0u);
  EXPECT_GE(admission.at("retry_after_ms").as_uint64(), 1u);
  const json::Value& priority = stats.at("priority");
  EXPECT_GE(priority.at("interactive").at("count").as_uint64(), 1u);
  EXPECT_EQ(priority.at("batch").at("count").as_uint64(), 1u);
  EXPECT_GE(priority.at("batch").at("latency_ms").at("p99").as_double(), 0.0);
}

TEST(Server, TcpConnectionCapRejectsExcessWithTypedResponse) {
  ServerOptions options = small_server();
  options.max_connections = 1;
  Server server(options);
  std::thread serving;
  const int port = serve_in_background(server, serving);

  const auto read_line = [](int fd) {
    std::string buffer;
    char chunk[4096];
    ssize_t got;
    while (buffer.find('\n') == std::string::npos &&
           (got = ::read(fd, chunk, sizeof chunk)) > 0)
      buffer.append(chunk, static_cast<std::size_t>(got));
    return buffer.substr(0, buffer.find('\n'));
  };

  // First connection occupies the single slot (a round trip proves the
  // handler is live, which also proves the accept loop moved on).
  const int first = dial(port);
  const std::string ping = "{\"id\":1,\"type\":\"ping\"}\n";
  ASSERT_EQ(::write(first, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));
  EXPECT_NE(read_line(first).find("\"ok\":true"), std::string::npos);

  // Second connection: one typed shed line, then close -- never a silent
  // reset.
  const int second = dial(port);
  const std::string rejection = read_line(second);
  EXPECT_TRUE(is_shed_response(rejection)) << rejection;
  EXPECT_NE(rejection.find("connection limit"), std::string::npos);
  ::close(second);
  EXPECT_EQ(server.rejected_connections(), 1u);

  // The capped connection still serves.
  ASSERT_EQ(::write(first, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));
  EXPECT_NE(read_line(first).find("\"ok\":true"), std::string::npos);
  ::close(first);

  server.shutdown();
  serving.join();
}

TEST(Server, TcpUnterminatedLineOverTheCapIsRejected) {
  // A client that never sends a newline must not make the daemon buffer
  // without bound: once the unterminated bytes pass max_line_bytes the
  // connection gets one typed invalid_input line and is closed.
  ServerOptions options = small_server();
  options.max_line_bytes = 1024;
  Server server(options);
  std::thread serving;
  const int fd = dial(serve_in_background(server, serving));
  // A receive timeout turns a daemon that keeps buffering into a failure
  // instead of a hang.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::string flood(8192, 'x');
  EXPECT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(flood.size()));

  std::string received;
  ssize_t got;
  char chunk[4096];
  while ((got = ::read(fd, chunk, sizeof chunk)) > 0)
    received.append(chunk, static_cast<std::size_t>(got));
  const int read_errno = errno;
  ::close(fd);
  const json::Value stats =
      json::parse(server.handle_line(R"({"id":2,"type":"stats"})"));
  server.shutdown();
  serving.join();

  // EOF: neither the 5 s timeout (a daemon still buffering) nor a reset.
  EXPECT_EQ(got, 0) << "read: " << std::strerror(read_errno);
  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  const std::string line = received.substr(0, received.size() - 1);
  const json::Value v = json::parse(line);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input");
  EXPECT_NE(line.find("request line exceeds 1024 bytes"), std::string::npos)
      << line;
  EXPECT_EQ(stats.at("result").at("malformed").as_uint64(), 1u);
}

/// Lines of /proc/self/maps.  A thread that has exited but was never
/// joined keeps its stack mapped, so this counts leaked handler threads.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Server, TcpJoinsFinishedConnectionHandlers) {
  Server server(small_server());
  std::thread serving;
  const int port = serve_in_background(server, serving);

  // One ping per connection; the EOF the client reads means the handler
  // has closed its side.
  const auto ping_once = [port] {
    EXPECT_NE(round_trip(port, "{\"id\":1,\"type\":\"ping\"}\n")
                  .find("\"ok\":true"),
              std::string::npos);
  };

  // Warm-up: the dispatchers, allocator arenas and a sanitizer runtime's
  // per-thread state are all mapped after the first few connections.
  for (int i = 0; i < 16; ++i) ping_once();
  const std::size_t before = mapping_count();
  for (int i = 0; i < 256; ++i) ping_once();
  const std::size_t after = mapping_count();
  server.shutdown();
  serving.join();

  // Unjoined handlers would add two mappings (stack + guard page) each.
  EXPECT_LT(after, before + 64) << before << " -> " << after;
}

TEST(Server, BenchPathsAreNotServed) {
  // A served path would let any client make the daemon open and read any
  // file.  The file is a valid circuit that AnalysisSession still loads.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ndet_served_path_" + std::to_string(::getpid()) + ".bench");
  {
    std::ofstream out(path);
    out << write_bench(c17());
  }
  EXPECT_EQ(AnalysisSession(path.string()).circuit().input_count(),
            c17().input_count());

  Server server(small_server());
  std::optional<ErrorKind> failure;
  const std::string response = server.handle_line(
      R"({"id":1,"type":"worst_case","circuit":")" + path.string() + R"("})",
      &failure);
  std::filesystem::remove(path);
  ASSERT_TRUE(failure.has_value()) << response;
  EXPECT_EQ(*failure, ErrorKind::kInvalidInput);
  // The request parsed, so the error echoes its id and type for a
  // pipelining client.
  const json::Value v = json::parse(response);
  EXPECT_EQ(v.at("id").as_uint64(), 1u);
  EXPECT_EQ(v.at("type").as_string(), "worst_case");
  EXPECT_EQ(v.at("error").at("kind").as_string(), "invalid_input");
  EXPECT_EQ(server.cache().stats().entries, 0u);
}

// --- session cache: lease fairness ------------------------------------------

TEST(SessionCache, InteractiveAcquireBeatsWaitingBatchAcquire) {
  SessionCache cache(0, single_thread());
  const CacheKey key{"bbtas"};

  std::mutex order_mutex;
  std::vector<std::string> order;
  {
    // Hold the entry, then line up a batch waiter FIRST and an interactive
    // waiter second; on release the interactive one must win the handoff.
    SessionCache::Lease held = cache.acquire(key);
    std::thread batch([&] {
      SessionCache::Lease lease = cache.acquire(key, Priority::kBatch);
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back("batch");
    });
    while (cache.waiters(key) < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread interactive([&] {
      SessionCache::Lease lease = cache.acquire(key, Priority::kInteractive);
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back("interactive");
    });
    while (cache.waiters(key) < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // `held` drops here; both waiters run to completion in priority order.
    {
      SessionCache::Lease releasing = std::move(held);
    }
    batch.join();
    interactive.join();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"interactive", "batch"}));
}

}  // namespace
}  // namespace ndet::serve
