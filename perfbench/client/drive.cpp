// drive.cpp -- the timed runs: launch the real ndetd on loopback TCP, replay
// a workload's set-up, then drive its timed schedule in a closed loop (each
// connection sends its next line only after the previous reply arrived) and
// record per-request latency at the client.  Every response is kept; after
// the daemon has exited, the expected payloads are computed through direct
// AnalysisSessions and perfbench/metrics.py compares them byte for byte.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace ndet;

namespace {

/// Threads that compute the expected payloads after the timed phase.
constexpr unsigned kValidateThreads = 4;

/// One ndetd child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon(const std::string& binary, std::size_t cache_bytes) {
    int err[2];
    require(::pipe(err) == 0, "perfbench: pipe() failed");
    launched_ = Clock::now();
    pid_ = ::fork();
    require(pid_ >= 0, "perfbench: fork() failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the client
      const int null_fd = ::open("/dev/null", O_RDWR);
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(err[1], STDERR_FILENO);
      ::close(err[0]);
      ::close(err[1]);
      const std::string cache = "--cache-bytes=" + std::to_string(cache_bytes);
      ::execl(binary.c_str(), "ndetd", "--listen=0", "--threads=2",
              "--concurrency=2", cache.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(err[1]);
    err_fd_ = err[0];
    // ndetd advertises its port on stderr once it is accepting.
    const std::string marker = "listening on 127.0.0.1:";
    std::string seen;
    char chunk[256];
    std::size_t at;
    while ((at = seen.find(marker)) == std::string::npos ||
           seen.find('\n', at) == std::string::npos) {
      const ssize_t got = ::read(err_fd_, chunk, sizeof chunk);
      if (got <= 0) {
        stop();
        throw Error(ErrorKind::kInternal,
                    "perfbench: ndetd exited before listening: " + seen);
      }
      seen.append(chunk, static_cast<std::size_t>(got));
    }
    port_ = std::stoi(seen.substr(at + marker.size()));
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  Clock::time_point launched() const { return launched_; }

  /// SIGTERM (ndetd's graceful drain) and wait; returns the exit status, or
  /// -1 when the daemon did not exit normally.
  int stop() {
    if (pid_ <= 0) return exit_status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (err_fd_ >= 0) ::close(err_fd_);
    err_fd_ = -1;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return exit_status_;
  }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  int exit_status_ = -1;
  Clock::time_point launched_;
};

/// Latency and response line of every request of a replayed schedule.
struct Replay {
  explicit Replay(std::size_t requests)
      : latency_ms(requests, 0.0), responses(requests) {}

  std::vector<double> latency_ms;
  std::vector<std::string> responses;
};

/// Sends requests [begin, end) over `connections` in a closed loop: a shared
/// cursor, and each connection waits for its reply before taking the next
/// request.
void replay(const std::vector<ScheduledRequest>& requests, std::size_t begin,
            std::size_t end, std::vector<std::unique_ptr<Connection>>& connections,
            Replay& result) {
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections.size(); ++c) {
    threads.emplace_back([&, c] {
      Connection& connection = *connections[c];
      for (std::size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        const auto sent = Clock::now();
        connection.round_trip(requests[i].line, result.responses[i]);
        result.latency_ms[i] = seconds_between(sent, Clock::now()) * 1e3;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

std::string stats_of(Connection& connection) {
  std::string response;
  connection.round_trip("{\"id\":0,\"type\":\"stats\"}\n", response);
  const std::size_t at = response.find("\"result\":");
  require(at != std::string::npos && response.back() == '}',
          "perfbench: malformed stats response");
  return response.substr(at + 9, response.size() - at - 10);
}

/// Field `index` (1-based, as in proc(5)) of /proc/<pid>/stat.
std::uint64_t proc_stat_field(pid_t pid, int index) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  require(paren != std::string::npos, "perfbench: cannot read /proc stat");
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  for (int i = 3; i <= index; ++i) fields >> field;  // field 3 follows ')'
  return std::stoull(field);
}

double cpu_ms(pid_t pid) {
  const double ticks = static_cast<double>(proc_stat_field(pid, 14) +
                                           proc_stat_field(pid, 15));
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  throw Error(ErrorKind::kInternal, "perfbench: no VmHWM in /proc status");
}

std::vector<ScheduledRequest> with_newlines(std::vector<ScheduledRequest> requests) {
  for (ScheduledRequest& request : requests) request.line += '\n';
  return requests;
}

/// Launches ndetd, connects and replays the set-up; every set-up reply must
/// be a success.
std::unique_ptr<Daemon> set_up(const CliArgs& args, const Schedule& schedule,
                               std::vector<std::unique_ptr<Connection>>& connections) {
  auto daemon = std::make_unique<Daemon>(
      args.get("ndetd", "ndetd"),
      static_cast<std::size_t>(args.get_u64("cache-bytes", 0)));
  connections.clear();
  for (std::uint64_t c = 0; c < args.get_u64("connections", 1); ++c)
    connections.push_back(std::make_unique<Connection>(daemon->port()));
  const std::vector<ScheduledRequest> setup = with_newlines(schedule.setup);
  Replay done(setup.size());
  replay(setup, 0, setup.size(), connections, done);
  std::size_t begin = 0, length = 0;
  for (const std::string& response : done.responses)
    require(result_span(response, begin, length),
            "perfbench: a set-up request failed: " + response.substr(0, 300));
  return daemon;
}

}  // namespace

int run_drive(const CliArgs& args) {
  const Schedule schedule = load_schedule(args.get("schedule", ""));
  const std::string out = args.get("out", ".");
  const std::uint64_t setups = std::max<std::uint64_t>(1, args.get_u64("setups", 1));
  const std::vector<ScheduledRequest> timed = with_newlines(schedule.timed);

  // Set-up is measured `setups` times on fresh daemons; the last one serves
  // the timed phase.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Connection>> connections;
  std::unique_ptr<Daemon> daemon;
  for (std::uint64_t s = 0; s < setups; ++s) {
    if (daemon) {
      connections.clear();
      require(daemon->stop() == 0, "perfbench: ndetd did not drain cleanly");
    }
    daemon = set_up(args, schedule, connections);
    setup_s.push_back(seconds_between(daemon->launched(), Clock::now()));
  }

  const std::string stats_before = stats_of(*connections.front());
  const double cpu_before = cpu_ms(daemon->pid());
  // The timed phase runs as `rounds` consecutive blocks of the schedule, so
  // that a block's statistics can be taken on their own.
  const std::size_t rounds =
      std::max<std::uint64_t>(1, args.get_u64("rounds", 1));
  Replay run(timed.size());
  std::vector<double> round_wall_s;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    replay(timed, r * timed.size() / rounds, (r + 1) * timed.size() / rounds,
           connections, run);
    round_wall_s.push_back(seconds_between(start, Clock::now()));
  }
  const double cpu_after = cpu_ms(daemon->pid());
  const std::uint64_t hwm_kb = vm_hwm_kb(daemon->pid());
  const std::string stats_after = stats_of(*connections.front());
  connections.clear();
  const int exit_status = daemon->stop();

  std::string served;
  for (std::size_t i = 0; i < timed.size(); ++i)
    served += std::to_string(timed[i].key) + '\t' + run.responses[i] + '\n';
  write_file(out + "/served.txt", served);

  const auto validate_start = Clock::now();
  const std::vector<std::string> expected =
      expected_payloads(schedule.distinct, kValidateThreads);
  const double validate_s = seconds_between(validate_start, Clock::now());
  std::string expected_rows;
  for (std::size_t key = 0; key < expected.size(); ++key)
    expected_rows += std::to_string(key) + '\t' + expected[key] + '\n';
  write_file(out + "/expected.txt", expected_rows);

  JsonWriter w;
  w.begin_object();
  w.key("setup_s").begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("round_wall_s").begin_array();
  for (double s : round_wall_s) w.value(s);
  w.end_array();
  w.key("latency_ms").begin_array();
  for (double ms : run.latency_ms) w.value(ms);
  w.end_array();
  w.key("stats_before").raw(stats_before);
  w.key("stats_after").raw(stats_after);
  w.key("server_cpu_ms").value(cpu_after - cpu_before);
  w.key("vm_hwm_kb").value(hwm_kb);
  w.key("daemon_exit").value(static_cast<std::int64_t>(exit_status));
  w.key("validate_s").value(validate_s);
  w.end_object();
  write_file(out + "/drive.json", w.str());
  return 0;
}

}  // namespace perfbench
