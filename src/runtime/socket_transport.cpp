#include "runtime/socket_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// "SFPT" — distinguishes transport frames from anything else that might
/// land on the port (and from the reliable layer's in-payload "SFPR" magic).
constexpr std::uint32_t frame_magic = 0x53465054u;

enum class frame_kind : std::uint32_t {
  data = 0,       ///< one transport message (payload doubles)
  hello = 1,      ///< dialer's opening: src rank + connection epoch
  hello_ack = 2,  ///< acceptor's reply, echoing the epoch
  heartbeat = 3,  ///< keepalive, carries nothing
};

/// Fixed-size frame header, serialized field by field (little-endian host
/// assumed for loopback; memcpy avoids any padding/aliasing concerns).
struct frame_header {
  std::uint32_t magic = frame_magic;
  std::uint32_t kind = 0;
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::uint64_t payload_doubles = 0;
  std::uint32_t crc = 0;
  std::uint32_t reserved = 0;
};

constexpr std::size_t header_bytes = 36;
/// Garbage length-word backstop: no legitimate frame carries this much.
constexpr std::uint64_t max_frame_doubles = 1ull << 26;

void pack_header(const frame_header& h, unsigned char* out) {
  std::size_t off = 0;
  const auto put = [&](const void* p, std::size_t n) {
    std::memcpy(out + off, p, n);
    off += n;
  };
  put(&h.magic, 4);
  put(&h.kind, 4);
  put(&h.src, 4);
  put(&h.epoch, 8);
  put(&h.payload_doubles, 8);
  put(&h.crc, 4);
  put(&h.reserved, 4);
}

frame_header unpack_header(const unsigned char* in) {
  frame_header h;
  std::size_t off = 0;
  const auto get = [&](void* p, std::size_t n) {
    std::memcpy(p, in + off, n);
    off += n;
  };
  get(&h.magic, 4);
  get(&h.kind, 4);
  get(&h.src, 4);
  get(&h.epoch, 8);
  get(&h.payload_doubles, 8);
  get(&h.crc, 4);
  get(&h.reserved, 4);
  return h;
}

/// CRC32C over the header bytes (with the crc word zeroed) + payload bytes.
std::uint32_t frame_crc(const frame_header& h, const double* payload,
                        std::size_t payload_doubles) {
  frame_header z = h;
  z.crc = 0;
  unsigned char bytes[header_bytes];
  pack_header(z, bytes);
  std::uint32_t crc = crc32c(bytes, header_bytes);
  return crc32c(payload, payload_doubles * sizeof(double), crc);
}

/// Serialize one whole frame (header + payload) into a byte buffer.
std::vector<unsigned char> encode_frame(frame_kind kind, int src,
                                        std::uint64_t epoch,
                                        std::span<const double> payload) {
  frame_header h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.src = src;
  h.epoch = epoch;
  h.payload_doubles = payload.size();
  h.crc = frame_crc(h, payload.data(), payload.size());
  std::vector<unsigned char> bytes(header_bytes +
                                   payload.size() * sizeof(double));
  pack_header(h, bytes.data());
  if (!payload.empty())
    std::memcpy(bytes.data() + header_bytes, payload.data(),
                payload.size() * sizeof(double));
  return bytes;
}

int close_fd(int fd) { return fd >= 0 ? ::close(fd) : 0; }

/// Header-only frames (acks, fence tokens) carry at most this many payload
/// doubles; stream faults count and match only longer, data-carrying ones.
constexpr std::size_t stream_fault_min_payload = wire::header_doubles + 1;

}  // namespace

const char* to_string(stream_fault::kind k) {
  switch (k) {
    case stream_fault::kind::truncate: return "truncate";
    case stream_fault::kind::split: return "split";
    case stream_fault::kind::reset: return "reset";
    case stream_fault::kind::stall: return "stall";
  }
  return "unknown";
}

socket_stats& socket_stats::operator+=(const socket_stats& o) {
  connects += o.connects;
  reconnects += o.reconnects;
  frames_sent += o.frames_sent;
  frames_received += o.frames_received;
  heartbeats_sent += o.heartbeats_sent;
  frames_rejected += o.frames_rejected;
  stale_epoch_dropped += o.stale_epoch_dropped;
  injected_stream_faults += o.injected_stream_faults;
  send_failures += o.send_failures;
  return *this;
}

void publish_counters(const socket_stats& s) {
  obs::registry& reg = obs::registry::global();
  reg.get_counter("socket.connects").add(s.connects);
  reg.get_counter("socket.reconnects").add(s.reconnects);
  reg.get_counter("socket.frames_sent").add(s.frames_sent);
  reg.get_counter("socket.frames_received").add(s.frames_received);
  reg.get_counter("socket.heartbeats_sent").add(s.heartbeats_sent);
  reg.get_counter("socket.frames_rejected").add(s.frames_rejected);
  reg.get_counter("socket.stale_epoch_dropped").add(s.stale_epoch_dropped);
  reg.get_counter("socket.injected_stream_faults")
      .add(s.injected_stream_faults);
  reg.get_counter("socket.send_failures").add(s.send_failures);
}

struct socket_wire_impl {
  int nranks;
  fabric_options opts;
  socket_wire::deliver_fn deliver;

  std::atomic<bool> shutting_down{false};

  /// Per-rank epoch filter: the highest HELLO epoch seen per source rank.
  /// Data frames arriving on a connection with a lower epoch are stale
  /// stragglers from a superseded link and are dropped.
  struct epoch_table {
    std::mutex mutex;
    std::map<int, std::uint64_t> latest;
  };
  std::vector<epoch_table> epochs;

  std::mutex stats_mutex;
  socket_stats* stats;

  std::vector<int> listen_fds;
  std::vector<std::uint16_t> ports;

  /// Sender side of one (src, dst) link, dialed lazily and redialed (with a
  /// bumped epoch) after any failure. Indexed src * nranks + dst.
  struct out_conn {
    std::mutex mutex;
    int fd = -1;
    std::uint64_t next_epoch = 0;   ///< epoch the next dial announces
    std::int64_t data_frames = 0;   ///< stream-fault index (survives redials)
    clock_t_::time_point last_write{};
  };
  std::vector<out_conn> conns;

  std::vector<std::thread> acceptors;
  std::vector<std::thread> heartbeats;
  std::mutex readers_mutex;
  std::vector<std::thread> readers;

  socket_wire_impl(int n, const fabric_options& o, socket_wire::deliver_fn d,
                   socket_stats* totals)
      : nranks(n),
        opts(o),
        deliver(std::move(d)),
        epochs(static_cast<std::size_t>(n)),
        stats(totals),
        conns(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {}

  void bump(std::int64_t socket_stats::* field, std::int64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats->*field += by;
  }

  bool stopping() const {
    return shutting_down.load(std::memory_order_acquire);
  }

  out_conn& conn(int src, int dst) {
    return conns[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(nranks) +
                 static_cast<std::size_t>(dst)];
  }

  /// Bounded-deadline full read with a poll loop: handles partial reads,
  /// EINTR, and wakes up promptly on wire shutdown. Returns false on EOF,
  /// error, shutdown, or `deadline` passing with bytes still owed.
  bool read_fully(int fd, unsigned char* out, std::size_t n,
                  clock_t_::time_point deadline) {
    std::size_t off = 0;
    while (off < n) {
      if (stopping()) return false;
      pollfd pf{};
      pf.fd = fd;
      pf.events = POLLIN;
      const int rv = ::poll(&pf, 1, 20);
      if (rv < 0 && errno != EINTR) return false;
      if (rv <= 0 || (pf.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        if (clock_t_::now() >= deadline) return false;
        continue;
      }
      const ssize_t r = ::recv(fd, out + off, n - off, 0);
      if (r == 0) return false;  // orderly EOF
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        return false;  // reset or hard error
      }
      off += static_cast<std::size_t>(r);
      deadline = clock_t_::now() + opts.heartbeat_timeout;
    }
    return true;
  }

  /// Full write with partial-write handling; MSG_NOSIGNAL instead of a
  /// process-wide SIGPIPE handler. Returns false on any hard error.
  static bool write_fully(int fd, const unsigned char* p, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pf{};
        pf.fd = fd;
        pf.events = POLLOUT;
        ::poll(&pf, 1, 50);
        continue;
      }
      return false;
    }
    return true;
  }

  /// One frame, fully read and CRC-verified. Returns false when the stream
  /// died or the frame is malformed (*rejected distinguishes the latter).
  bool read_frame(int fd, frame_header* h, std::vector<double>* payload,
                  bool* rejected) {
    *rejected = false;
    unsigned char hdr[header_bytes];
    if (!read_fully(fd, hdr, header_bytes,
                    clock_t_::now() + opts.heartbeat_timeout))
      return false;
    *h = unpack_header(hdr);
    if (h->magic != frame_magic ||
        h->kind > static_cast<std::uint32_t>(frame_kind::heartbeat) ||
        h->payload_doubles > max_frame_doubles) {
      *rejected = true;
      return false;
    }
    payload->assign(h->payload_doubles, 0.0);
    if (h->payload_doubles > 0) {
      std::vector<unsigned char> body(h->payload_doubles * sizeof(double));
      if (!read_fully(fd, body.data(), body.size(),
                      clock_t_::now() + opts.heartbeat_timeout)) {
        *rejected = true;  // died mid-frame: poisoned stream
        return false;
      }
      std::memcpy(payload->data(), body.data(), body.size());
    }
    if (frame_crc(*h, payload->data(), payload->size()) != h->crc) {
      *rejected = true;
      return false;
    }
    return true;
  }

  /// Per accepted connection: parse frames until the stream dies. The first
  /// frame must be a HELLO naming the source rank and the connection epoch;
  /// the reply HELLO_ACK is the only thing ever written on this side.
  void reader_loop(int dst, int fd) {
    int src = -1;
    std::uint64_t conn_epoch = 0;
    for (;;) {
      frame_header h;
      std::vector<double> payload;
      bool rejected = false;
      if (!read_frame(fd, &h, &payload, &rejected)) {
        if (rejected) bump(&socket_stats::frames_rejected);
        break;
      }
      const auto kind = static_cast<frame_kind>(h.kind);
      if (kind == frame_kind::hello) {
        if (h.src < 0 || h.src >= nranks) break;
        src = h.src;
        conn_epoch = h.epoch;
        {
          epoch_table& table = epochs[static_cast<std::size_t>(dst)];
          std::lock_guard<std::mutex> lock(table.mutex);
          std::uint64_t& latest =
              table.latest.try_emplace(src, conn_epoch).first->second;
          latest = std::max(latest, conn_epoch);
        }
        const std::vector<unsigned char> ack =
            encode_frame(frame_kind::hello_ack, dst, conn_epoch, {});
        if (!write_fully(fd, ack.data(), ack.size())) break;
        continue;
      }
      if (kind == frame_kind::heartbeat) continue;
      if (kind == frame_kind::hello_ack) break;  // protocol violation here
      // Data before HELLO, or claiming a different source: poisoned peer.
      if (src < 0 || h.src != src) break;
      bool stale = false;
      {
        epoch_table& table = epochs[static_cast<std::size_t>(dst)];
        std::lock_guard<std::mutex> lock(table.mutex);
        const auto it = table.latest.find(src);
        stale = it != table.latest.end() && conn_epoch < it->second;
      }
      if (stale) {
        // A replacement link already shook hands: whatever this straggler
        // still carries was (re)sent on the new link too, or will be.
        bump(&socket_stats::stale_epoch_dropped);
        continue;
      }
      deliver(dst, src, std::move(payload));
      bump(&socket_stats::frames_received);
    }
    close_fd(fd);
  }

  /// Per-rank accept loop: nonblocking listener polled on a short tick so
  /// shutdown is prompt; every accepted connection gets a reader thread.
  void acceptor_loop(int rank) {
    const int lfd = listen_fds[static_cast<std::size_t>(rank)];
    while (!stopping()) {
      pollfd pf{};
      pf.fd = lfd;
      pf.events = POLLIN;
      const int rv = ::poll(&pf, 1, 20);
      if (rv < 0 && errno != EINTR) break;
      if (rv <= 0 || (pf.revents & POLLIN) == 0) continue;
      // Ownership of the accepted fd moves into the reader thread below,
      // which closes it when the connection drains.
      const int fd =
          ::accept(lfd, nullptr, nullptr);  // lint: resource-leak-ok — the reader thread owns and closes fd
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::lock_guard<std::mutex> lock(readers_mutex);
      readers.emplace_back([this, rank, fd] { reader_loop(rank, fd); });
    }
  }

  static void kill_locked(out_conn& c) {
    close_fd(c.fd);
    c.fd = -1;
  }

  /// Dial + HELLO/HELLO_ACK handshake under the conn lock. The epoch
  /// counter bumps on every dial, so the acceptor can order this link's
  /// incarnations and discard stragglers from the superseded one.
  bool dial_locked(out_conn& c, int src, int dst) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports[static_cast<std::size_t>(dst)]);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close_fd(fd);
      return false;
    }
    const std::uint64_t epoch = c.next_epoch;
    const std::vector<unsigned char> hello =
        encode_frame(frame_kind::hello, src, epoch, {});
    if (!write_fully(fd, hello.data(), hello.size())) {
      close_fd(fd);
      return false;
    }
    // The handshake read uses the connect deadline: a silent acceptor must
    // not park us for heartbeat_timeout.
    frame_header h;
    if (!read_ack(fd, &h, clock_t_::now() + opts.connect_timeout) ||
        static_cast<frame_kind>(h.kind) != frame_kind::hello_ack ||
        h.epoch != epoch) {
      close_fd(fd);
      return false;
    }
    c.fd = fd;
    c.next_epoch = epoch + 1;
    c.last_write = clock_t_::now();
    bump(&socket_stats::connects);
    if (epoch > 0) bump(&socket_stats::reconnects);
    return true;
  }

  bool read_ack(int fd, frame_header* h, clock_t_::time_point deadline) {
    unsigned char hdr[header_bytes];
    if (!read_fully(fd, hdr, header_bytes, deadline)) return false;
    *h = unpack_header(hdr);
    if (h->magic != frame_magic || h->payload_doubles != 0) return false;
    return frame_crc(*h, nullptr, 0) == h->crc;
  }

  const stream_fault* match_stream_fault(out_conn& c, int src, int dst,
                                         std::size_t payload_doubles) {
    if (payload_doubles < stream_fault_min_payload) return nullptr;
    const std::int64_t idx = c.data_frames++;
    for (const stream_fault& f : opts.stream_faults.faults)
      if (f.src == src && f.dst == dst && f.nth == idx) return &f;
    return nullptr;
  }

  /// Frame one injected image and push it down the byte stream, applying
  /// any due stream fault. A write failure only kills the link and loses
  /// this frame — the reliable layer above heals the loss and the next
  /// write redials.
  void write_data(int src, int dst, std::span<const double> payload) {
    out_conn& c = conn(src, dst);
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.fd < 0 && !dial_locked(c, src, dst)) {
      bump(&socket_stats::send_failures);
      return;
    }
    const std::vector<unsigned char> bytes = encode_frame(
        frame_kind::data, src, /*epoch=*/c.next_epoch - 1, payload);
    const stream_fault* fault =
        match_stream_fault(c, src, dst, payload.size());
    if (fault != nullptr) {
      bump(&socket_stats::injected_stream_faults);
      switch (fault->what) {
        case stream_fault::kind::reset:
          // Kill the link before the frame goes out: the frame is lost and
          // the receiver sees a dead stream.
          kill_locked(c);
          bump(&socket_stats::send_failures);
          return;
        case stream_fault::kind::truncate: {
          // Half a frame, then death: the receiver reads a valid header,
          // starves waiting for the body, and poisons the link.
          const std::size_t cut = bytes.size() / 2;
          write_fully(c.fd, bytes.data(), cut);
          kill_locked(c);
          bump(&socket_stats::send_failures);
          return;
        }
        case stream_fault::kind::split: {
          // Dribble the frame out in small chunks: exercises the
          // receiver's partial-read reassembly. No data is lost.
          const std::size_t step = std::max<std::size_t>(bytes.size() / 3, 1);
          std::size_t off = 0;
          bool ok = true;
          while (ok && off < bytes.size()) {
            const std::size_t n = std::min(step, bytes.size() - off);
            ok = write_fully(c.fd, bytes.data() + off, n);
            off += n;
            if (off < bytes.size())
              std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (!ok) {
            kill_locked(c);
            bump(&socket_stats::send_failures);
            return;
          }
          c.last_write = clock_t_::now();
          bump(&socket_stats::frames_sent);
          return;
        }
        case stream_fault::kind::stall:
          // A stalled peer link: sit on the frame, then deliver normally.
          std::this_thread::sleep_for(opts.stall_duration);
          break;
      }
    }
    if (!write_fully(c.fd, bytes.data(), bytes.size())) {
      kill_locked(c);
      bump(&socket_stats::send_failures);
      return;
    }
    c.last_write = clock_t_::now();
    bump(&socket_stats::frames_sent);
  }

  /// Keep rank `src`'s idle established links warm so receivers don't
  /// declare them dead between exchange phases.
  void heartbeat_loop(int src) {
    auto next = clock_t_::now() + opts.heartbeat_interval;
    while (!stopping()) {
      // Short ticks rather than one long sleep, so teardown never waits a
      // whole (possibly test-lengthened) heartbeat interval.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (clock_t_::now() < next) continue;
      next = clock_t_::now() + opts.heartbeat_interval;
      for (int dst = 0; dst < nranks; ++dst) {
        out_conn& c = conn(src, dst);
        std::lock_guard<std::mutex> lock(c.mutex);
        if (c.fd < 0) continue;
        if (clock_t_::now() - c.last_write < opts.heartbeat_interval)
          continue;
        const std::vector<unsigned char> beat =
            encode_frame(frame_kind::heartbeat, src, 0, {});
        if (write_fully(c.fd, beat.data(), beat.size())) {
          c.last_write = clock_t_::now();
          bump(&socket_stats::heartbeats_sent);
        } else {
          kill_locked(c);
        }
      }
    }
  }
};

socket_wire::socket_wire(int num_ranks, const fabric_options& opts,
                         deliver_fn deliver, socket_stats* totals) {
  SFP_REQUIRE(num_ranks >= 1, "socket wire needs at least one rank");
  SFP_REQUIRE(totals != nullptr, "socket wire needs a stats sink");
  impl_ = std::make_unique<socket_wire_impl>(num_ranks, opts,
                                             std::move(deliver), totals);
  socket_wire_impl& w = *impl_;
  const int n = num_ranks;
  // Bind every rank's listener up front so dial order can't race readiness.
  w.listen_fds.assign(static_cast<std::size_t>(n), -1);
  w.ports.assign(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SFP_REQUIRE(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // kernel-assigned
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    SFP_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "bind(127.0.0.1:0) failed");
    SFP_REQUIRE(::listen(fd, 64) == 0, "listen() failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    SFP_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                              &len) == 0,
                "getsockname() failed");
    w.listen_fds[static_cast<std::size_t>(p)] = fd;
    w.ports[static_cast<std::size_t>(p)] = ntohs(bound.sin_port);
  }
  w.acceptors.reserve(static_cast<std::size_t>(n));
  w.heartbeats.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    w.acceptors.emplace_back([&w, p] { w.acceptor_loop(p); });
    w.heartbeats.emplace_back([&w, p] { w.heartbeat_loop(p); });
  }
}

socket_wire::~socket_wire() {
  socket_wire_impl& w = *impl_;
  // Teardown in dependency order: stop accepting and reading, close the
  // sender sides (readers then see EOF), and join everything.
  w.shutting_down.store(true, std::memory_order_release);
  for (auto& t : w.heartbeats) t.join();
  for (auto& c : w.conns) {
    std::lock_guard<std::mutex> lock(c.mutex);
    socket_wire_impl::kill_locked(c);
  }
  for (auto& t : w.acceptors) t.join();
  for (const int fd : w.listen_fds) close_fd(fd);
  std::lock_guard<std::mutex> lock(w.readers_mutex);
  for (auto& t : w.readers) t.join();
}

void socket_wire::write(int src, int dst, std::span<const double> image) {
  impl_->write_data(src, dst, image);
}

}  // namespace sfp::runtime
