#include "runtime/socket_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/reliable.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// "SFPT" — distinguishes transport frames from anything else that might
/// land on the port (and from the reliable layer's in-payload "SFPR" magic).
constexpr std::uint32_t frame_magic = 0x53465054u;

enum class frame_kind : std::uint32_t {
  data = 0,       ///< one transport message (tag + payload doubles)
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
  std::int32_t tag = 0;
  std::uint64_t epoch = 0;
  std::uint64_t payload_doubles = 0;
  std::uint32_t crc = 0;
  std::uint32_t reserved = 0;
};

constexpr std::size_t header_bytes = 40;
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
  put(&h.tag, 4);
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
  get(&h.tag, 4);
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
std::vector<unsigned char> encode_frame(frame_kind kind, int src, int tag,
                                        std::uint64_t epoch,
                                        std::span<const double> payload) {
  frame_header h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.src = src;
  h.tag = tag;
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

struct socket_fabric_impl {
  int nranks;
  socket_fabric_options opts;

  std::atomic<bool> abort_flag{false};
  std::atomic<int> failed{-1};
  std::atomic<bool> shutting_down{false};

  /// Per-rank receive side: reader threads push, the rank thread pops.
  struct inbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::pair<int, int>, std::deque<std::vector<double>>> queues;
  };
  std::vector<inbox> inboxes;

  /// Per-rank epoch filter: the highest HELLO epoch seen per source rank.
  /// Data frames arriving on a connection with a lower epoch are stale
  /// stragglers from a superseded link and are dropped.
  struct epoch_table {
    std::mutex mutex;
    std::map<int, std::uint64_t> latest;
  };
  std::vector<epoch_table> epochs;

  std::vector<rank_counters> counters;
  std::mutex stats_mutex;
  socket_stats stats;

  std::vector<int> listen_fds;
  std::vector<std::uint16_t> ports;

  std::mutex readers_mutex;
  std::vector<std::thread> readers;

  explicit socket_fabric_impl(int n, socket_fabric_options o)
      : nranks(n),
        opts(std::move(o)),
        inboxes(static_cast<std::size_t>(n)),
        epochs(static_cast<std::size_t>(n)),
        counters(static_cast<std::size_t>(n)) {}

  void bump(std::int64_t socket_stats::* field, std::int64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.*field += by;
  }

  void trigger_abort(int rank) {
    int expected = -1;
    failed.compare_exchange_strong(expected, rank, std::memory_order_acq_rel);
    abort_flag.store(true, std::memory_order_release);
    // Lock-then-notify closes the race against a rank that checked the flag
    // but has not yet parked on its inbox.
    for (auto& box : inboxes) {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.ready.notify_all();
    }
  }

  bool abort_requested() const {
    return abort_flag.load(std::memory_order_acquire);
  }

  bool stopping() const {
    return shutting_down.load(std::memory_order_acquire);
  }

  /// Bounded-deadline full read with a poll loop: handles partial reads,
  /// EINTR, and wakes up promptly on fabric shutdown. Returns false on
  /// EOF, error, shutdown, or `deadline` passing with bytes still owed.
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

  void deliver(int dst, int src, int tag, std::vector<double> payload) {
    inbox& box = inboxes[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.queues[{src, tag}].push_back(std::move(payload));
    }
    box.ready.notify_all();
    bump(&socket_stats::frames_received);
  }

  /// Bounded-wait dequeue, as in world::take_any: lowest source rank
  /// first, drain-then-abort on a fabric abort.
  bool take_any(int dst, int tag, std::chrono::microseconds wait,
                any_message* out) {
    inbox& box = inboxes[static_cast<std::size_t>(dst)];
    std::unique_lock<std::mutex> lock(box.mutex);
    const auto find_match = [&]() {
      for (auto it = box.queues.begin(); it != box.queues.end(); ++it)
        if (it->first.second == tag && !it->second.empty()) return it;
      return box.queues.end();
    };
    const auto ready = [&] {
      return abort_requested() || find_match() != box.queues.end();
    };
    if (!box.ready.wait_for(lock, wait, ready)) return false;
    const auto it = find_match();
    if (it == box.queues.end()) {
      ++counters[static_cast<std::size_t>(dst)].aborts_observed;
      throw world_aborted(dst, failed.load(std::memory_order_acquire));
    }
    out->src = it->first.first;
    out->tag = it->first.second;
    out->payload = std::move(it->second.front());
    it->second.pop_front();
    ++counters[static_cast<std::size_t>(dst)].messages_received;
    counters[static_cast<std::size_t>(dst)].doubles_received +=
        static_cast<std::int64_t>(out->payload.size());
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
            encode_frame(frame_kind::hello_ack, dst, 0, conn_epoch, {});
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
      deliver(dst, src, h.tag, std::move(payload));
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
};

/// Sender-side endpoint: the transport a rank thread drives. Outgoing links
/// are dialed lazily and redialed (with a bumped epoch) after any failure;
/// a heartbeat thread keeps established links warm.
namespace {

class socket_endpoint final : public transport {
 public:
  socket_endpoint(socket_fabric_impl* fab, int rank)
      : fab_(fab),
        rank_(rank),
        pipeline_(fab->opts.faults, rank,
                  &fab->counters[static_cast<std::size_t>(rank)]),
        conns_(static_cast<std::size_t>(fab->nranks)) {
    heartbeat_ = std::thread([this] { heartbeat_loop(); });
  }

  ~socket_endpoint() override {
    stop_.store(true, std::memory_order_release);
    heartbeat_.join();
    for (auto& c : conns_) {
      std::lock_guard<std::mutex> lock(c.mutex);
      kill_locked(c);
    }
  }

  int rank() const override { return rank_; }
  int size() const override { return fab_->nranks; }

  void send(int dst, int tag, std::span<const double> data) override {
    SFP_REQUIRE(dst >= 0 && dst < fab_->nranks, "destination out of range");
    SFP_TRACE_SCOPE_CAT("socket.send", "runtime");
    pipeline_.count_op();
    injection_pipeline::outcome out = pipeline_.on_send(dst, tag, data);
    for (auto& image : out.wire) write_data(dst, tag, image);
  }

  bool try_recv_any(int tag, std::chrono::microseconds wait,
                    any_message* out) override {
    SFP_REQUIRE(out != nullptr, "try_recv_any needs an output slot");
    return fab_->take_any(rank_, tag, wait, out);
  }

 private:
  struct out_conn {
    std::mutex mutex;
    int fd = -1;
    std::uint64_t next_epoch = 0;   ///< epoch the next dial announces
    std::int64_t data_frames = 0;   ///< stream-fault index (survives redials)
    clock_t_::time_point last_write{};
  };

  static void kill_locked(out_conn& c) {
    close_fd(c.fd);
    c.fd = -1;
  }

  /// Dial + HELLO/HELLO_ACK handshake under the conn lock. The epoch
  /// counter bumps on every dial, so the acceptor can order this link's
  /// incarnations and discard stragglers from the superseded one.
  bool dial_locked(out_conn& c, int dst) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(fab_->ports[static_cast<std::size_t>(dst)]);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close_fd(fd);
      return false;
    }
    const std::uint64_t epoch = c.next_epoch;
    const std::vector<unsigned char> hello =
        encode_frame(frame_kind::hello, rank_, 0, epoch, {});
    if (!fab_->write_fully(fd, hello.data(), hello.size())) {
      close_fd(fd);
      return false;
    }
    frame_header h;
    std::vector<double> payload;
    bool rejected = false;
    const auto deadline = clock_t_::now() + fab_->opts.connect_timeout;
    // The handshake read reuses the frame parser but with the connect
    // deadline: a silent acceptor must not park us for heartbeat_timeout.
    if (!read_ack(fd, &h, &payload, &rejected, deadline) ||
        static_cast<frame_kind>(h.kind) != frame_kind::hello_ack ||
        h.epoch != epoch) {
      close_fd(fd);
      return false;
    }
    c.fd = fd;
    c.next_epoch = epoch + 1;
    c.last_write = clock_t_::now();
    fab_->bump(&socket_stats::connects);
    if (epoch > 0) fab_->bump(&socket_stats::reconnects);
    return true;
  }

  bool read_ack(int fd, frame_header* h, std::vector<double>* payload,
                bool* rejected, clock_t_::time_point deadline) {
    *rejected = false;
    unsigned char hdr[header_bytes];
    if (!fab_->read_fully(fd, hdr, header_bytes, deadline)) return false;
    *h = unpack_header(hdr);
    if (h->magic != frame_magic || h->payload_doubles != 0) {
      *rejected = true;
      return false;
    }
    payload->clear();
    return frame_crc(*h, nullptr, 0) == h->crc;
  }

  const stream_fault* match_stream_fault(out_conn& c, int dst,
                                         std::size_t payload_doubles) {
    if (payload_doubles < fab_->opts.stream_fault_min_payload) return nullptr;
    const std::int64_t idx = c.data_frames++;
    for (const stream_fault& f : fab_->opts.stream_faults.faults)
      if (f.src == rank_ && f.dst == dst && f.nth == idx) return &f;
    return nullptr;
  }

  /// Frame one message-layer payload and push it down the byte stream,
  /// applying any due stream fault. A write failure only kills the link and
  /// loses this frame — the reliable layer above heals the loss and the
  /// next send redials.
  void write_data(int dst, int tag, std::span<const double> payload) {
    out_conn& c = conns_[static_cast<std::size_t>(dst)];
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.fd < 0 && !dial_locked(c, dst)) {
      fab_->bump(&socket_stats::send_failures);
      return;
    }
    const std::vector<unsigned char> bytes = encode_frame(
        frame_kind::data, rank_, tag, /*epoch=*/c.next_epoch - 1, payload);
    const stream_fault* fault = match_stream_fault(c, dst, payload.size());
    if (fault != nullptr) {
      fab_->bump(&socket_stats::injected_stream_faults);
      switch (fault->what) {
        case stream_fault::kind::reset:
          // Kill the link before the frame goes out: the frame is lost and
          // the receiver sees a dead stream.
          kill_locked(c);
          fab_->bump(&socket_stats::send_failures);
          return;
        case stream_fault::kind::truncate: {
          // Half a frame, then death: the receiver reads a valid header,
          // starves waiting for the body, and poisons the link.
          const std::size_t cut = bytes.size() / 2;
          fab_->write_fully(c.fd, bytes.data(), cut);
          kill_locked(c);
          fab_->bump(&socket_stats::send_failures);
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
            ok = fab_->write_fully(c.fd, bytes.data() + off, n);
            off += n;
            if (off < bytes.size())
              std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (!ok) {
            kill_locked(c);
            fab_->bump(&socket_stats::send_failures);
            return;
          }
          c.last_write = clock_t_::now();
          fab_->bump(&socket_stats::frames_sent);
          return;
        }
        case stream_fault::kind::stall:
          // A stalled peer link: sit on the frame, then deliver normally.
          std::this_thread::sleep_for(fab_->opts.stall_duration);
          break;
      }
    }
    if (!fab_->write_fully(c.fd, bytes.data(), bytes.size())) {
      kill_locked(c);
      fab_->bump(&socket_stats::send_failures);
      return;
    }
    c.last_write = clock_t_::now();
    fab_->bump(&socket_stats::frames_sent);
  }

  /// Keep idle established links warm so receivers don't declare them dead
  /// between exchange phases.
  void heartbeat_loop() {
    auto next = clock_t_::now() + fab_->opts.heartbeat_interval;
    while (!stop_.load(std::memory_order_acquire)) {
      // Short ticks rather than one long sleep, so teardown never waits a
      // whole (possibly test-lengthened) heartbeat interval.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (clock_t_::now() < next) continue;
      next = clock_t_::now() + fab_->opts.heartbeat_interval;
      for (auto& c : conns_) {
        std::lock_guard<std::mutex> lock(c.mutex);
        if (c.fd < 0) continue;
        if (clock_t_::now() - c.last_write < fab_->opts.heartbeat_interval)
          continue;
        const std::vector<unsigned char> beat =
            encode_frame(frame_kind::heartbeat, rank_, 0, 0, {});
        if (fab_->write_fully(c.fd, beat.data(), beat.size())) {
          c.last_write = clock_t_::now();
          fab_->bump(&socket_stats::heartbeats_sent);
        } else {
          kill_locked(c);
        }
      }
    }
  }

  socket_fabric_impl* fab_;
  int rank_;
  injection_pipeline pipeline_;
  std::vector<out_conn> conns_;
  std::atomic<bool> stop_{false};
  std::thread heartbeat_;
};

}  // namespace

socket_fabric::socket_fabric(int num_ranks)
    : socket_fabric(num_ranks, socket_fabric_options{}) {}

socket_fabric::socket_fabric(int num_ranks, socket_fabric_options opts) {
  SFP_REQUIRE(num_ranks >= 1, "socket fabric needs at least one rank");
  impl_ = std::make_unique<socket_fabric_impl>(num_ranks, std::move(opts));
}

socket_fabric::~socket_fabric() = default;

int socket_fabric::size() const { return impl_->nranks; }

int socket_fabric::failed_rank() const {
  return impl_->failed.load(std::memory_order_acquire);
}

const rank_counters& socket_fabric::counters(int rank) const {
  SFP_REQUIRE(rank >= 0 && rank < impl_->nranks, "rank out of range");
  return impl_->counters[static_cast<std::size_t>(rank)];
}

rank_counters socket_fabric::total_counters() const {
  rank_counters total;
  for (const auto& c : impl_->counters) total += c;
  return total;
}

socket_stats socket_fabric::total_stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

void socket_fabric::run(const std::function<void(transport&)>& rank_main) {
  SFP_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  socket_fabric_impl& fab = *impl_;
  const int n = fab.nranks;
  // Reset last-run state.
  fab.abort_flag.store(false, std::memory_order_release);
  fab.failed.store(-1, std::memory_order_release);
  fab.shutting_down.store(false, std::memory_order_release);
  for (auto& box : fab.inboxes) box.queues.clear();
  for (auto& table : fab.epochs) table.latest.clear();
  fab.counters.assign(static_cast<std::size_t>(n), rank_counters{});
  {
    std::lock_guard<std::mutex> lock(fab.stats_mutex);
    fab.stats = socket_stats{};
  }

  // Bind every rank's listener up front so dial order can't race readiness.
  fab.listen_fds.assign(static_cast<std::size_t>(n), -1);
  fab.ports.assign(static_cast<std::size_t>(n), 0);
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
    fab.listen_fds[static_cast<std::size_t>(p)] = fd;
    fab.ports[static_cast<std::size_t>(p)] = ntohs(bound.sin_port);
  }

  std::vector<std::thread> acceptors;
  acceptors.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    acceptors.emplace_back([&fab, p] { fab.acceptor_loop(p); });

  std::vector<std::unique_ptr<socket_endpoint>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    endpoints.push_back(std::make_unique<socket_endpoint>(&fab, p));

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  threads.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([&fab, p, &rank_main, &errors, &endpoints] {
      if (obs::trace::enabled())
        obs::trace::set_thread_name("rank " + std::to_string(p));
      try {
        rank_main(*endpoints[static_cast<std::size_t>(p)]);
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
        fab.trigger_abort(p);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Teardown in dependency order: stop accepting and reading, close the
  // sender sides (readers then see EOF), and join everything.
  fab.shutting_down.store(true, std::memory_order_release);
  endpoints.clear();  // joins heartbeats, closes outgoing links
  for (auto& t : acceptors) t.join();
  for (const int fd : fab.listen_fds) close_fd(fd);
  fab.listen_fds.clear();
  {
    std::lock_guard<std::mutex> lock(fab.readers_mutex);
    for (auto& t : fab.readers) t.join();
    fab.readers.clear();
  }

  publish_metrics_totals();

  const int failed = failed_rank();
  if (failed >= 0) {
    // The first rank whose exception escaped is the root cause; peers hold
    // cascading world_aborted.
    std::rethrow_exception(errors[static_cast<std::size_t>(failed)]);
  }
}

void socket_fabric::publish_metrics_totals() const {
  publish_counters(total_counters());
  obs::registry& reg = obs::registry::global();
  const socket_stats s = total_stats();
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

}  // namespace sfp::runtime
