#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace ndet;

Schedule load_schedule(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "perfbench: cannot open schedule " + path);
  Schedule schedule;
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    const std::size_t tab1 = row.find('\t');
    const std::size_t tab2 = row.find('\t', tab1 + 1);
    require(tab1 == 1 && tab2 != std::string::npos &&
                (row[0] == 'S' || row[0] == 'T'),
            "perfbench: malformed schedule row: " + row);
    ScheduledRequest request;
    request.key = std::stoul(row.substr(tab1 + 1, tab2 - tab1 - 1));
    request.line = row.substr(tab2 + 1);
    if (request.key >= schedule.distinct.size())
      schedule.distinct.resize(request.key + 1);
    if (schedule.distinct[request.key].empty())
      schedule.distinct[request.key] = request.line;
    (row[0] == 'S' ? schedule.setup : schedule.timed)
        .push_back(std::move(request));
  }
  for (const std::string& line : schedule.distinct)
    require(!line.empty(), "perfbench: schedule skips a request key");
  return schedule;
}

SessionOptions session_options_for(const serve::Request& request,
                                   unsigned threads) {
  SessionOptions options;
  options.max_inputs = request.key.max_inputs;
  options.representation = request.key.representation;
  options.num_threads = threads;
  return options;
}

std::string result_payload(AnalysisSession& session,
                           const serve::Request& request) {
  switch (request.type) {
    case serve::RequestType::kWorstCase:
      return to_json(session.worst_case());
    case serve::RequestType::kAverageCase:
      return to_json(session.average_case(request.average));
    case serve::RequestType::kPartition: {
      JsonWriter w;
      w.begin_array();
      for (const ConeReport& report : session.partitioned(request.partition))
        w.raw(to_json(report));
      w.end_array();
      return w.str();
    }
    default:
      throw Error(ErrorKind::kInvalidInput,
                  "perfbench: schedules hold analysis requests only");
  }
}

std::vector<std::string> expected_payloads(
    const std::vector<std::string>& distinct, unsigned workers) {
  std::vector<std::string> expected(distinct.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::map<serve::CacheKey, std::unique_ptr<AnalysisSession>> sessions;
      for (std::size_t i = next.fetch_add(1); i < distinct.size();
           i = next.fetch_add(1)) {
        const serve::Request request = serve::parse_request(distinct[i]);
        auto& session = sessions[request.key];
        if (!session)
          session = std::make_unique<AnalysisSession>(
              request.circuit, session_options_for(request, 1));
        expected[i] = result_payload(*session, request);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return expected;
}

bool result_span(const std::string& response, std::size_t& begin,
                 std::size_t& length) {
  if (response.compare(0, 6, "{\"id\":") != 0) return false;
  const std::size_t ok = response.find(",\"ok\":true,", 6);
  if (ok == std::string::npos || ok > 32) return false;
  const std::size_t at = response.find("\"result\":", ok);
  const std::size_t end = response.rfind(",\"session\":");
  if (at == std::string::npos || end == std::string::npos || end < at)
    return false;
  begin = at + 9;
  length = end - begin;
  return true;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  require(out.good(), "perfbench: cannot write " + path);
}

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, "perfbench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw Error(ErrorKind::kInternal, "perfbench: cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() { ::close(fd_); }

void Connection::round_trip(const std::string& line, std::string& response) {
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0 && errno == EINTR) continue;
    require(n > 0, "perfbench: write to the server failed");
    written += static_cast<std::size_t>(n);
  }
  response.clear();
  char chunk[1 << 16];
  while (true) {
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    require(got > 0, "perfbench: the server closed the connection");
    response.append(chunk, static_cast<std::size_t>(got));
    if (response.back() == '\n') break;
  }
  response.pop_back();
}

}  // namespace perfbench
