// serve_route: the live request path through the built anu_serve.
//
// anu_serve runs 5 protocol nodes with the paper speeds (--slow
// 9,3,1.8,1.286,1), heartbeats on and a quarter-second tuning interval, so
// the map retunes while the benchmark routes. One benchmark thread keeps a
// fixed window of ROUTE requests outstanding on one UDP socket (closed loop)
// with keys drawn Zipf-skewed from a 1M-name population. ROUTE replies carry
// no request id; loopback UDP keeps order on one socket, so the n-th reply
// answers the n-th request.
//
// Two anu_serve quirks are worked around here, not fixed: `--port 0` binds
// an ephemeral port but reports "port 0", so the benchmark picks a free port
// itself; and the ROUTE socket keeps the kernel's default receive buffer, so
// the window is sized to never overflow it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/anu_balancer.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace anu;

constexpr std::size_t kNodes = 5;
constexpr const char* kSlow = "9,3,1.8,1.286,1";
constexpr double kSlowFactors[kNodes] = {9, 3, 1.8, 1.286, 1};
constexpr double kTuningInterval = 0.25;
constexpr std::size_t kPopulation = 1'000'000;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kKeyPool = 1 << 18;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kMaxWindow = 32;
/// Conservative kernel charge per queued small datagram (skb truesize).
constexpr std::size_t kDatagramCharge = 2048;
constexpr double kWarmupSeconds = 0.5;
constexpr double kRateWindowSeconds = 0.5;
constexpr std::int64_t kReplyTimeoutNs = 500'000'000;
constexpr std::size_t kSpanEvery = 4096;

/// One `anu_serve: retune version=V shares=a,b,... agree=yes|no` log line.
struct Retune {
  std::uint64_t version = 0;
  std::vector<double> shares;
  bool agree = false;
};

bool parse_retune(const std::string& line, Retune& out) {
  const char* p = std::strstr(line.c_str(), "retune version=");
  if (p == nullptr) return false;
  unsigned long long version = 0;
  int used = 0;
  if (std::sscanf(p, "retune version=%llu shares=%n", &version, &used) != 1 ||
      used == 0) {
    return false;
  }
  out.version = version;
  out.shares.clear();
  const char* s = p + used;
  char* end = nullptr;
  for (;;) {
    const double v = std::strtod(s, &end);
    if (end == s) break;
    out.shares.push_back(v);
    s = end;
    if (*s != ',') break;
    ++s;
  }
  out.agree = std::strstr(s, "agree=yes") != nullptr;
  return out.shares.size() == kNodes;
}

std::uint16_t free_udp_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// A UDP socket connected to the ROUTE port; -1 on failure.
int route_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The receive buffer a fresh UDP socket gets — what anu_serve's ROUTE
/// socket runs with, since it never sets SO_RCVBUF.
std::size_t default_rcvbuf() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  int size = 0;
  socklen_t len = sizeof(size);
  if (fd >= 0) {
    if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, &len) != 0) size = 0;
    ::close(fd);
  }
  return size > 0 ? static_cast<std::size_t>(size) : 0;
}

/// utime and stime of a process, in seconds, from /proc/<pid>/stat.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes proc_cpu(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  CpuTimes t;
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return t;
  // Fields after "(comm)": state is field 3; utime and stime are 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) t.user = std::strtod(field.c_str(), nullptr) / tick;
    if (i == 15) t.sys = std::strtod(field.c_str(), nullptr) / tick;
  }
  return t;
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// A running anu_serve child with its stdout captured.
struct Server {
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;
  std::int64_t started_ns = 0;
  std::string pending;  // partial stdout line
  std::vector<Retune> retunes;
  std::vector<std::string> lines;
  bool exited = false;
  int status = 0;
};

class ServeRoute final : public Workload {
 public:
  explicit ServeRoute(const Options& opts) : opts_(opts) {
    char exe[4096] = {};
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
      serve_bin_ = (std::filesystem::path(std::string(exe, static_cast<std::size_t>(n)))
                        .parent_path() /
                    "anu_serve")
                       .string();
    }
    const double phases = opts.trace ? 2.0 : 1.0;
    run_seconds_ = opts.seconds + phases * kWarmupSeconds + 2.0;
  }

  ~ServeRoute() override {
    close_socket();
    stop(main_);
  }

  double setup(Verdict& verdict) override {
    make_keys();
    window_ = std::min(kMaxWindow, std::max<std::size_t>(1, default_rcvbuf() / kDatagramCharge));
    std::vector<double> times;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      Server s;
      const bool last = rep + 1 == kSetupRepeats;
      const std::int64_t t0 = now_ns();
      if (!spawn(s, last ? run_seconds_ : 30.0, verdict) || !await_first_reply(s, verdict)) {
        stop(s);
        return 0.0;
      }
      times.push_back(ns_to_s(now_ns() - t0));
      if (last) {
        main_ = std::move(s);
      } else {
        stop(s);
      }
    }
    sock_ = route_socket(main_.port);
    verdict.check(sock_ >= 0, "cannot open the ROUTE client socket");
    pin_apart(main_.pid);
    return median(times);
  }

  EndToEnd measure(double seconds, Spans& spans, Layers& layers,
                   Verdict& verdict) override {
    EndToEnd e;
    if (main_.pid < 0 || sock_ < 0) return e;
    spans.name_track(0, "serve_route");
    spans.name_track(1, "sampled requests");
    spans.name_track(2, "anu_serve retunes");
    Loop warm;
    closed_loop(kWarmupSeconds, warm, spans, verdict);
    const CpuTimes c0 = proc_cpu(main_.pid);
    const double self0 = self_cpu_s();
    const std::int64_t t0 = now_ns();
    Loop loop;
    closed_loop(seconds, loop, spans, verdict);
    const std::int64_t t1 = now_ns();
    const CpuTimes c1 = proc_cpu(main_.pid);
    const double self1 = self_cpu_s();
    spans.add("closed_loop", t0, t1, 0,
              "\"window\":" + std::to_string(window_) + ",\"replies\":" +
                  std::to_string(loop.replied));

    outcomes(layers);
    if (loop.window_rates.empty()) {
      verdict.check(false, "no ROUTE request was answered");
      return e;
    }
    // Other tenants of the host only slow a window down, for stretches of
    // seconds, so each metric is taken from the best half-second window: the
    // least disturbed sustained rate and round-trip percentiles.
    e.throughput_per_s = *std::max_element(loop.window_rates.begin(), loop.window_rates.end());
    e.op_p50_us = *std::min_element(loop.window_p50_us.begin(), loop.window_p50_us.end());
    e.op_tail_us = *std::min_element(loop.window_p99_us.begin(), loop.window_p99_us.end());
    if (spans.enabled()) {
      const double cpu = (c1.user + c1.sys) - (c0.user + c0.sys);
      const double cpu_us_per_route = 1e6 * cpu / static_cast<double>(loop.replied);
      const double route_ns = in_process_route_ns(layers);
      layers["runtime.server_cpu_us_per_route"] = cpu_us_per_route;
      layers["runtime.server_sys_share"] = cpu > 0.0 ? (c1.sys - c0.sys) / cpu : 0.0;
      layers["runtime.route_share"] =
          cpu_us_per_route > 0.0 ? route_ns / (1e3 * cpu_us_per_route) : 0.0;
      layers["runtime.retunes"] = static_cast<double>(loop.versions.size());
      layers["loadgen.cpu_share"] = (self1 - self0) / ns_to_s(t1 - t0);
    }
    return e;
  }

  void finish(Verdict& verdict) override {
    close_socket();
    if (main_.pid < 0) {
      verdict.check(false, "anu_serve was not running");
      return;
    }
    // anu_serve stops by itself after run_seconds; give it a grace period.
    const std::int64_t deadline =
        main_.started_ns + static_cast<std::int64_t>((run_seconds_ + 10.0) * 1e9);
    while (!main_.exited && now_ns() < deadline) {
      pollfd pfd{main_.out_fd, POLLIN, 0};
      ::poll(&pfd, 1, 50);
      pump(main_, nullptr);
      reap(main_, false);
    }
    pump(main_, nullptr);
    const bool clean = main_.exited && WIFEXITED(main_.status) &&
                       WEXITSTATUS(main_.status) == 0;
    if (!main_.exited) stop(main_);
    verdict.check(clean, "anu_serve did not exit 0");
    const bool agreed = std::any_of(main_.retunes.begin(), main_.retunes.end(),
                                    [](const Retune& r) { return r.agree; });
    verdict.check(agreed, "anu_serve logged no agree=yes retune");
    if (!clean || !agreed) {
      for (const std::string& line : main_.lines) std::fprintf(stderr, "anu_serve| %s\n", line.c_str());
    }
    std::error_code ec;
    std::filesystem::remove(config_path_, ec);
  }

 private:
  /// Per half-second window: replies per second and the p50 and p99 round
  /// trip in µs.
  struct Loop {
    std::uint64_t sent = 0;
    std::uint64_t replied = 0;
    std::vector<double> window_rates;
    std::vector<double> window_p50_us;
    std::vector<double> window_p99_us;
    std::set<std::uint64_t> versions;
  };

  void make_keys() {
    // Zipf(s=1) ranks over a 1M-name population; names are salted by the
    // seed so each seed routes a different key set.
    std::vector<double> cdf(kPopulation);
    double sum = 0.0;
    for (std::size_t i = 0; i < kPopulation; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf[i] = sum;
    }
    Xoshiro256 rng(substream_seed(opts_.seed, 0));
    const std::string salt = std::to_string(substream_seed(opts_.seed, 1) % 1'000'000);
    keys_.clear();
    keys_.reserve(kKeyPool);
    for (std::size_t i = 0; i < kKeyPool; ++i) {
      const double u = rng.next_double() * sum;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      keys_.push_back("obj/" + salt + "/" + std::to_string(std::min(rank, kPopulation - 1)));
    }
  }

  bool spawn(Server& s, double run_seconds, Verdict& verdict) {
    s.port = free_udp_port();
    config_path_ = opts_.out_dir + "/anu_serve-" + std::to_string(::getpid()) + ".cfg";
    {
      std::ofstream cfg(config_path_);
      cfg << "servers " << kNodes << "\nport " << s.port
          << "\ntuning_interval_s " << kTuningInterval
          << "\nreport_grace_s 0.05\nheartbeats on\nheartbeat_interval_s 0.1"
          << "\nrun_seconds " << run_seconds << "\n";
      if (!cfg) {
        verdict.check(false, "cannot write " + config_path_);
        return false;
      }
    }
    int fds[2];
    if (s.port == 0 || ::pipe2(fds, O_CLOEXEC) != 0) {
      verdict.check(false, "cannot reserve a port or create a pipe");
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
    std::vector<std::string> args = {serve_bin_, "--config", config_path_, "--slow", kSlow};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&s.pid, serve_bin_.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      s.pid = -1;
      verdict.check(false, "cannot start " + serve_bin_);
      return false;
    }
    s.started_ns = now_ns();
    s.out_fd = fds[0];
    ::fcntl(s.out_fd, F_SETFL, O_NONBLOCK);
    return true;
  }

  /// Probes the ROUTE port until the first well-formed reply.
  bool await_first_reply(Server& s, Verdict& verdict) {
    const int fd = route_socket(s.port);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(20e9);
    bool ok = false;
    while (fd >= 0 && !ok && now_ns() < deadline) {
      (void)::send(fd, "probe", 5, 0);
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 2) > 0) {
        char buf[128];
        const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, MSG_DONTWAIT);
        if (n > 0) {
          buf[n] = '\0';
          unsigned owner = 0;
          unsigned long long version = 0;
          ok = std::sscanf(buf, "OK %u %llu", &owner, &version) == 2;
        }
      }
      pump(s, nullptr);
      reap(s, false);
      if (s.exited) break;
    }
    if (fd >= 0) ::close(fd);
    verdict.check(ok, "anu_serve never answered a ROUTE request");
    return ok;
  }

  /// Reads whatever anu_serve has written to stdout and parses retune lines.
  void pump(Server& s, Spans* spans) {
    if (s.out_fd < 0) return;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(s.out_fd, buf, sizeof(buf));
      if (n <= 0) break;
      s.pending.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t nl;
    while ((nl = s.pending.find('\n')) != std::string::npos) {
      std::string line = s.pending.substr(0, nl);
      s.pending.erase(0, nl + 1);
      Retune r;
      if (parse_retune(line, r)) {
        if (spans != nullptr) {
          const std::int64_t t = now_ns();
          spans->add("anu_serve.retune", t, t, 2,
                     "\"version\":" + std::to_string(r.version) +
                         ",\"agree\":" + (r.agree ? "true" : "false"));
        }
        s.retunes.push_back(std::move(r));
      }
      if (s.lines.size() < 400) s.lines.push_back(std::move(line));
    }
  }

  void reap(Server& s, bool block) {
    if (s.pid < 0 || s.exited) return;
    if (::waitpid(s.pid, &s.status, block ? 0 : WNOHANG) == s.pid) s.exited = true;
  }

  void stop(Server& s) {
    if (s.pid >= 0 && !s.exited) {
      ::kill(s.pid, SIGKILL);
      reap(s, true);
    }
    if (s.out_fd >= 0) {
      ::close(s.out_fd);
      s.out_fd = -1;
    }
  }

  /// Runs the load generator and anu_serve on two different CPUs, so the
  /// scheduler does not migrate or stack them between samples.
  static void pin_apart(pid_t server) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    int cpus[2] = {-1, -1};
    for (int c = 0, found = 0; c < CPU_SETSIZE && found < 2; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus[found++] = c;
    }
    if (cpus[1] < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[0], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    CPU_ZERO(&one);
    CPU_SET(cpus[1], &one);
    ::sched_setaffinity(server, sizeof(one), &one);
  }

  void close_socket() {
    if (sock_ >= 0) ::close(sock_);
    sock_ = -1;
  }

  /// Keeps window_ requests outstanding for `seconds`, then collects the
  /// replies still in flight.
  void closed_loop(double seconds, Loop& loop, Spans& spans, Verdict& verdict) {
    std::deque<std::int64_t> in_flight;  // send times, oldest first
    std::uint64_t last_version = 0;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto window_ns = static_cast<std::int64_t>(kRateWindowSeconds * 1e9);
    std::int64_t window_start = start;
    std::vector<double> window_us;
    std::int64_t last_progress = start;
    std::int64_t sampled_send = -1;
    char buf[256];
    for (;;) {
      const std::int64_t now = now_ns();
      const bool sending = now < end;
      if (!sending && in_flight.empty()) break;
      if (!sending && now - end > kReplyTimeoutNs) break;
      while (sending && in_flight.size() < window_) {
        const std::string& key = keys_[next_key_++ % keys_.size()];
        if (::send(sock_, key.data(), key.size(), 0) < 0) break;
        const std::int64_t t = now_ns();
        if (spans.enabled() && loop.sent % kSpanEvery == 0) sampled_send = t;
        in_flight.push_back(t);
        ++loop.sent;
      }
      pollfd pfds[2] = {{sock_, POLLIN, 0}, {main_.out_fd, POLLIN, 0}};
      ::poll(pfds, 2, 20);
      if (pfds[1].revents != 0) pump(main_, &spans);
      for (;;) {
        const ssize_t n = ::recv(sock_, buf, sizeof(buf) - 1, MSG_DONTWAIT);
        if (n <= 0) break;
        const std::int64_t t = now_ns();
        last_progress = t;
        buf[n] = '\0';
        if (in_flight.empty()) {
          verdict.check(false, "reply without an outstanding request");
          continue;
        }
        const std::int64_t sent = in_flight.front();
        in_flight.pop_front();
        unsigned owner = 0;
        unsigned long long version = 0;
        int used = 0;
        const bool parsed =
            std::sscanf(buf, "OK %u %llu%n", &owner, &version, &used) == 2 &&
            used == n;
        const bool ok = parsed && owner < kNodes && version >= last_version;
        if (!ok) {
          ++verdict.failed;
          verdict.check(false, std::string("bad ROUTE reply '") + buf + "'");
          continue;
        }
        last_version = version;
        loop.versions.insert(version);
        ++loop.replied;
        window_us.push_back(ns_to_us(t - sent));
        if (sent == sampled_send) {
          spans.add("route", sent, t, 1,
                    "\"owner\":" + std::to_string(owner) + ",\"version\":" +
                        std::to_string(version));
        }
      }
      const std::int64_t after = now_ns();
      if (sending && after - window_start >= window_ns && !window_us.empty()) {
        loop.window_rates.push_back(static_cast<double>(window_us.size()) /
                                    ns_to_s(after - window_start));
        loop.window_p50_us.push_back(quantile(window_us, 0.5));
        loop.window_p99_us.push_back(quantile(window_us, 0.99));
        window_start = after;
        window_us.clear();
      }
      if (!in_flight.empty() && after - last_progress > kReplyTimeoutNs) {
        // Unanswered requests: count them and start a fresh socket so a
        // late reply cannot be matched to a newer request.
        verdict.failed += in_flight.size();
        in_flight.clear();
        close_socket();
        sock_ = route_socket(main_.port);
        last_version = 0;
        last_progress = after;
        if (sock_ < 0) {
          verdict.check(false, "cannot reopen the ROUTE client socket");
          return;
        }
      }
    }
    verdict.failed += in_flight.size();
    verdict.attempted += loop.sent;
  }

  /// Outcome metrics from the retunes anu_serve logged since it started:
  /// max/min and CV of share per unit speed (the synthetic data plane's
  /// per-server latency is share x slow factor), and the total share of
  /// the mapped half moved between consecutive maps.
  void outcomes(Layers& layers) const {
    std::vector<double> prev(kNodes, 0.5 / kNodes);
    double moved = 0.0;
    for (const Retune& r : main_.retunes) {
      for (std::size_t i = 0; i < kNodes; ++i) moved += std::fabs(r.shares[i] - prev[i]);
      prev = r.shares;
    }
    std::vector<double> latency(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) latency[i] = prev[i] * kSlowFactors[i];
    const auto [lo, hi] = std::minmax_element(latency.begin(), latency.end());
    layers["outcome.vs_ideal_ratio"] = *lo > 0.0 ? *hi / *lo : 0.0;
    layers["outcome.latency_cv"] = coefficient_of_variation(latency);
    layers["outcome.moved_pct"] = 100.0 * moved;
  }

  /// Host cost of one route (hash + probes) on a 5-server map, measured in
  /// process over the benchmark's own keys.
  double in_process_route_ns(Layers& layers) const {
    const core::AnuBalancer b(core::AnuConfig{}, kNodes);
    std::uint64_t probes = 0;
    const std::int64_t t0 = now_ns();
    for (const std::string& key : keys_) probes += b.locate(key).probes;
    const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(keys_.size());
    layers["hash.route_ns"] = ns;
    layers["hash.probes_per_route"] =
        static_cast<double>(probes) / static_cast<double>(keys_.size());
    return ns;
  }

  Options opts_;
  std::string serve_bin_;
  std::string config_path_;
  double run_seconds_ = 0.0;
  std::vector<std::string> keys_;
  std::size_t next_key_ = 0;
  std::size_t window_ = 1;
  Server main_;
  int sock_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_serve_route(const Options& opts) {
  return std::make_unique<ServeRoute>(opts);
}

}  // namespace perfbench
