// anu_serve — the control plane, live.
//
// Server mode hosts an ANU cluster for real: N protocol nodes exchanging
// heartbeats, latency reports and region-map updates over loopback UDP
// sockets (runtime::UdpTransport), timed by a realtime clock
// (runtime::RealtimeClock) instead of the simulator. A client-facing UDP
// socket answers ROUTE requests — send a key, get back the owning server
// and the map version it was routed under. Every retune is logged:
//
//   anu_serve: retune version=3 shares=0.21,0.08,0.21
//
// The data plane is synthetic (per-server slow factors feed the latency
// model), so what the demo shows is the paper's control loop converging in
// wall time: slow servers shed load, the region map re-tunes live, and
// clients observe the version advancing — scripts/integration_test.sh
// asserts exactly that in CI.
//
// Client mode (--client) is the scripted driver: it sends sequential keys,
// tallies which server owns each, and exits 0 when at least 90% of
// requests got an answer.
//
//   anu_serve --servers 3 --port 9700 --run-seconds 6 --slow 1,1,4
//   anu_serve --client --port 9700 --requests 200
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "proto/protocol.h"
#include "runtime/event_loop.h"
#include "runtime/realtime_clock.h"
#include "runtime/serve_config.h"
#include "runtime/time_source.h"
#include "runtime/udp_transport.h"

using namespace anu;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--servers N] [--port P] [--run-seconds S]\n"
               "          [--slow f0,f1,...] [--config FILE] [--dump-config]\n"
               "       %s --client [--port P] [--requests N]\n",
               argv0, argv0);
  return 2;
}

std::vector<double> parse_factors(const std::string& arg) {
  std::vector<double> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::atof(item.c_str()));
  return out;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// --- client mode ------------------------------------------------------------

int run_client(std::uint16_t port, int requests) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  const sockaddr_in server = loopback(port);
  int replied = 0;
  std::map<unsigned, int> per_server;
  std::uint64_t min_version = ~0ULL, max_version = 0;
  for (int i = 0; i < requests; ++i) {
    const std::string key = "key/" + std::to_string(i);
    if (::sendto(fd, key.data(), key.size(), 0,
                 reinterpret_cast<const sockaddr*>(&server),
                 sizeof(server)) < 0) {
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 500) <= 0) continue;  // 500 ms per-request budget
    char buffer[256];
    const auto n = ::recv(fd, buffer, sizeof(buffer) - 1, 0);
    if (n <= 0) continue;
    buffer[n] = '\0';
    unsigned owner = 0;
    unsigned long long version = 0;
    if (std::sscanf(buffer, "OK %u %llu", &owner, &version) != 2) continue;
    ++replied;
    ++per_server[owner];
    if (version < min_version) min_version = version;
    if (version > max_version) max_version = version;
  }
  ::close(fd);

  std::printf("anu_serve client: sent=%d replied=%d\n", requests, replied);
  for (const auto& [owner, count] : per_server) {
    std::printf("  server %u routed %d keys\n", owner, count);
  }
  if (replied > 0) {
    std::printf("  map versions observed: %llu..%llu\n",
                static_cast<unsigned long long>(min_version),
                static_cast<unsigned long long>(max_version));
  }
  // The transport is best-effort UDP: tolerate stragglers, fail on bulk
  // loss (which would mean the server was not actually routing).
  const bool ok = replied * 10 >= requests * 9;
  std::printf("anu_serve client: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// --- server mode ------------------------------------------------------------

int run_server(const runtime::ServeSpec& spec) {
  runtime::SteadyTimeSource source;
  runtime::RealtimeClock clock(source);
  runtime::UdpTransport transport(spec.servers);

  proto::ProtocolConfig config;
  config.tuning_interval = spec.tuning_interval;
  config.report_grace = spec.report_grace;
  config.use_heartbeats = spec.use_heartbeats;
  config.heartbeat.interval = spec.heartbeat_interval;
  config.hash_seed = spec.hash_seed;

  // Synthetic data plane: server s runs slow_factors[s] times slower than
  // nominal, so its interval latency is share * slow — the same model the
  // protocol tests use. Routed client keys feed the completion counts.
  std::vector<std::uint64_t> routed(spec.servers, 0);
  const auto& slow = spec.slow_factors;
  proto::ProtocolCluster cluster(
      clock, transport, config, spec.servers,
      [&](std::uint32_t s, UnitPoint share) {
        const double latency = share.to_double() * slow[s] * 100.0 + 1e-6;
        const auto base =
            static_cast<std::size_t>(share.to_double() * 1e4) + 1;
        const auto extra = static_cast<std::size_t>(routed[s]);
        routed[s] = 0;
        return balance::ServerReport{latency, base + extra};
      });
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("fs/" + std::to_string(i));
  cluster.register_file_sets(names);

  // Client-facing ROUTE socket.
  const int route_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (route_fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in route_addr = loopback(spec.port);
  if (::bind(route_fd, reinterpret_cast<const sockaddr*>(&route_addr),
             sizeof(route_addr)) != 0) {
    std::perror("bind");
    ::close(route_fd);
    return 1;
  }
  // Read the bound address back: with --port 0 the kernel picked the port.
  socklen_t route_len = sizeof(route_addr);
  if (::getsockname(route_fd, reinterpret_cast<sockaddr*>(&route_addr),
                    &route_len) != 0) {
    std::perror("getsockname");
    ::close(route_fd);
    return 1;
  }

  runtime::EventLoop loop(clock);
  for (std::uint32_t n = 0; n < transport.fds().size(); ++n) {
    loop.add_fd(transport.fds()[n], [&transport] { transport.pump(); });
  }
  loop.add_fd(route_fd, [&] {
    char buffer[512];
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    for (;;) {
      const auto n = ::recvfrom(route_fd, buffer, sizeof(buffer) - 1,
                                MSG_DONTWAIT,
                                reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) break;
      buffer[n] = '\0';
      // Route on node 0's replica — any node gives the same answer once
      // replicas agree, which is the protocol's whole job.
      const ServerId owner = cluster.route_from(0, buffer);
      ++routed[owner.value()];
      char reply[64];
      const int len = std::snprintf(
          reply, sizeof(reply), "OK %u %llu", owner.value(),
          static_cast<unsigned long long>(cluster.version_of(0)));
      ::sendto(route_fd, reply, static_cast<std::size_t>(len), 0,
               reinterpret_cast<const sockaddr*>(&from), from_len);
      from_len = sizeof(from);
    }
  });

  std::printf("anu_serve: %zu nodes up, heartbeats %s, routing on udp port "
              "%u, tuning every %.2fs\n",
              spec.servers, spec.use_heartbeats ? "on" : "off",
              static_cast<unsigned>(ntohs(route_addr.sin_port)),
              spec.tuning_interval);
  std::fflush(stdout);

  std::uint64_t seen_version = 0;
  while (spec.run_seconds <= 0.0 || clock.now() < spec.run_seconds) {
    loop.run_once(0.05);
    const std::uint64_t version = cluster.version_of(0);
    if (version != seen_version) {
      seen_version = version;
      std::printf("anu_serve: retune version=%llu shares=",
                  static_cast<unsigned long long>(version));
      const auto& map = cluster.map_of(0);
      for (std::uint32_t s = 0; s < spec.servers; ++s) {
        std::printf("%s%.3f", s == 0 ? "" : ",",
                    map.share(ServerId(s)).to_double());
      }
      std::printf(" agree=%s\n", cluster.replicas_agree() ? "yes" : "no");
      std::fflush(stdout);
    }
  }

  std::printf("anu_serve: done after %.1fs, %llu updates published, final "
              "version=%llu\n",
              clock.now(),
              static_cast<unsigned long long>(cluster.updates_published()),
              static_cast<unsigned long long>(seen_version));
  ::close(route_fd);
  return seen_version > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  runtime::ServeSpec spec;
  spec.run_seconds = 0.0;
  bool client = false;
  bool dump = false;
  int requests = 200;
  std::vector<double> slow;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--client") {
      client = true;
    } else if (arg == "--dump-config") {
      dump = true;
    } else if (arg == "--servers") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      spec.servers = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      spec.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--run-seconds") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      spec.run_seconds = std::atof(v);
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      requests = std::atoi(v);
    } else if (arg == "--slow") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      slow = parse_factors(v);
    } else if (arg == "--config") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::ifstream is(v);
      runtime::ServeConfigError error;
      const auto parsed = runtime::parse_serve_config(is, &error);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "%s:%zu: %s\n", v, error.line,
                     error.message.c_str());
        return 2;
      }
      spec = *parsed;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec.servers == 0) return usage(argv[0]);
  if (!slow.empty()) spec.slow_factors = slow;
  spec.slow_factors.resize(spec.servers, 1.0);

  if (dump) {
    runtime::write_serve_config(std::cout, spec);
    return 0;
  }
  if (client) return run_client(spec.port, requests);
  return run_server(spec);
}
