#include "runtime/reliable.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

/// Magic in the high half of envelope word 0; the kind sits in the low byte.
constexpr std::uint64_t wire_magic = 0x53465052ull << 32;  // "SFPR"

/// Slicing-by-8 tables: t[0] is the bytewise table; t[s][b] is the CRC of
/// byte b followed by s zero bytes, so eight table lookups fold one 8-byte
/// word into the CRC at once.
using crc32c_tables = std::array<std::array<std::uint32_t, 256>, 8>;

crc32c_tables make_crc32c_tables() {
  crc32c_tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s)
    for (std::size_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
  return t;
}

/// Little-endian load of four bytes, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

obs::histogram& recv_wait_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.recv.queue_wait.us");
  return h;
}

double bits_to_double(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t double_to_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// CRC over the five semantic header words + the payload bytes. The crc
/// word itself is excluded, so a flipped bit anywhere in the message —
/// including the crc word — yields a mismatch.
std::uint32_t envelope_crc(const envelope& h, std::span<const double> payload) {
  const std::array<std::uint64_t, 5> words = {
      wire_magic | static_cast<std::uint64_t>(h.type), h.epoch,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(h.tag)), h.seq,
      h.payload_doubles};
  std::uint32_t crc = crc32c(words.data(), sizeof(words));
  return crc32c(payload.data(), payload.size() * sizeof(double), crc);
}

std::string unreachable_message(int self, int peer, int attempts) {
  std::ostringstream os;
  os << "rank " << self << ": peer " << peer << " unreachable after "
     << attempts << " delivery attempts";
  return os.str();
}

/// Serial-number comparison (RFC 1982 style): a < b in the presence of
/// wraparound, valid while the streams stay within 2^63 of each other.
bool seq_before(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) < 0;
}

std::uint64_t jitter_seed(const reliable_options& opts, int rank) {
  return (opts.epoch + 1) * 0x9e3779b97f4a7c15ull ^
         static_cast<std::uint64_t>(rank + 1) * 0xd1b54a32d192ed03ull;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t bytes, std::uint32_t crc) {
  static const crc32c_tables t = make_crc32c_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; bytes > 0; ++p, --bytes) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

peer_unreachable_error::peer_unreachable_error(int self, int peer,
                                               int attempts)
    : std::runtime_error(unreachable_message(self, peer, attempts)),
      rank_(self),
      peer_(peer),
      attempts_(attempts) {}

namespace wire {

std::vector<double> encode(const envelope& header,
                           std::span<const double> payload) {
  envelope h = header;
  h.payload_doubles = payload.size();
  h.crc = envelope_crc(h, payload);
  std::vector<double> message;
  message.reserve(header_doubles + payload.size());
  message.push_back(
      bits_to_double(wire_magic | static_cast<std::uint64_t>(h.type)));
  message.push_back(bits_to_double(h.epoch));
  message.push_back(bits_to_double(
      static_cast<std::uint64_t>(static_cast<std::int64_t>(h.tag))));
  message.push_back(bits_to_double(h.seq));
  message.push_back(bits_to_double(h.payload_doubles));
  message.push_back(bits_to_double(h.crc));
  message.insert(message.end(), payload.begin(), payload.end());
  return message;
}

bool decode(std::span<const double> message, bool verify_checksum,
            envelope* header, std::vector<double>* payload) {
  if (message.size() < header_doubles) return false;
  const std::uint64_t word0 = double_to_bits(message[0]);
  if ((word0 & 0xffffffff00000000ull) != wire_magic) return false;
  const std::uint64_t kind_bits = word0 & 0xffu;
  if (kind_bits > static_cast<std::uint64_t>(envelope::kind::ack))
    return false;
  envelope h;
  h.type = static_cast<envelope::kind>(kind_bits);
  h.epoch = double_to_bits(message[1]);
  h.tag = static_cast<int>(
      static_cast<std::int64_t>(double_to_bits(message[2])));
  h.seq = double_to_bits(message[3]);
  h.payload_doubles = double_to_bits(message[4]);
  h.crc = static_cast<std::uint32_t>(double_to_bits(message[5]));
  // Truncation (or a length-word flip) shows up as a size mismatch before
  // the checksum is even consulted.
  if (h.payload_doubles != message.size() - header_doubles) return false;
  const std::span<const double> body = message.subspan(header_doubles);
  if (verify_checksum && envelope_crc(h, body) != h.crc) return false;
  *header = h;
  payload->assign(body.begin(), body.end());
  return true;
}

}  // namespace wire

reliable_stats& reliable_stats::operator+=(const reliable_stats& o) {
  data_sent += o.data_sent;
  data_received += o.data_received;
  retransmits += o.retransmits;
  corruption_detected += o.corruption_detected;
  dedup_dropped += o.dedup_dropped;
  out_of_order += o.out_of_order;
  acks_sent += o.acks_sent;
  acks_received += o.acks_received;
  stale_dropped += o.stale_dropped;
  shutdown_discarded += o.shutdown_discarded;
  return *this;
}

std::chrono::microseconds compute_backoff(const reliable_options& opts,
                                          int attempts, rng& r) {
  // Capped exponential backoff: timeout * 2^attempts, clamped.
  auto backoff = opts.retransmit_timeout * (1ll << std::min(attempts, 20));
  if (backoff > opts.max_backoff) backoff = opts.max_backoff;
  // Jitter after the cap, so deadlines decorrelate even at max_backoff.
  if (opts.retransmit_jitter > 0) {
    const auto stretch = static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * opts.retransmit_jitter *
        r.uniform());
    backoff += std::chrono::microseconds(stretch);
  }
  return backoff;
}

reliable_channel::reliable_channel(transport& fabric, reliable_options opts)
    : fabric_(&fabric), opts_(opts), jitter_rng_(jitter_seed(opts, fabric.rank())) {
  SFP_REQUIRE(opts_.max_retransmits >= 1, "need at least one retransmit");
  SFP_REQUIRE(opts_.retransmit_timeout.count() > 0,
              "retransmit timeout must be positive");
}

reliable_channel::~reliable_channel() {
  // Two-generals tail: our sends may be delivered-but-unacked (the ack was
  // lost and the peer has exited). Pump for a bounded linger to service any
  // peer still retransmitting at us, then discard what is left — a peer
  // that still needed one of these messages would itself be parked in a
  // pumping call, consuming our retransmits. Skipped mid-unwind: after a
  // kill or abort the fabric is going down anyway.
  if (std::uncaught_exceptions() == 0 && !unacked_.empty()) {
    try {
      const clock::time_point give_up = clock::now() + opts_.shutdown_linger;
      while (!unacked_.empty() && clock::now() < give_up)
        pump(opts_.pump_quantum);
    } catch (...) {  // teardown is best-effort by design
      // world_aborted (or a late kill) during teardown: nothing to heal.
    }
  }
  stats_.shutdown_discarded += static_cast<std::int64_t>(unacked_.size());
  try {
    publish_metrics();
  } catch (...) {  // teardown is best-effort by design
    // registry allocation failure at teardown is not worth a terminate.
  }
}

void reliable_channel::publish_metrics() {
  reliable_stats delta = stats_;
  delta.data_sent -= published_.data_sent;
  delta.data_received -= published_.data_received;
  delta.retransmits -= published_.retransmits;
  delta.corruption_detected -= published_.corruption_detected;
  delta.dedup_dropped -= published_.dedup_dropped;
  delta.out_of_order -= published_.out_of_order;
  delta.acks_sent -= published_.acks_sent;
  delta.acks_received -= published_.acks_received;
  delta.stale_dropped -= published_.stale_dropped;
  delta.shutdown_discarded -= published_.shutdown_discarded;
  published_ = stats_;
  obs::registry& reg = obs::registry::global();
  reg.get_counter("reliable.data_sent").add(delta.data_sent);
  reg.get_counter("reliable.data_received").add(delta.data_received);
  reg.get_counter("reliable.retransmits").add(delta.retransmits);
  reg.get_counter("reliable.corruption_detected")
      .add(delta.corruption_detected);
  reg.get_counter("reliable.dedup_dropped").add(delta.dedup_dropped);
  reg.get_counter("reliable.out_of_order").add(delta.out_of_order);
  reg.get_counter("reliable.acks_sent").add(delta.acks_sent);
  reg.get_counter("reliable.acks_received").add(delta.acks_received);
  reg.get_counter("reliable.stale_dropped").add(delta.stale_dropped);
  reg.get_counter("reliable.shutdown_discarded")
      .add(delta.shutdown_discarded);
}

std::uint64_t& reliable_channel::seq_slot(
    std::map<stream_key, std::uint64_t>& m, const stream_key& key) {
  return m.try_emplace(key, opts_.first_seq).first->second;
}

void reliable_channel::send_data(int dst, int tag,
                                 std::span<const double> payload) {
  envelope h;
  h.type = envelope::kind::data;
  h.epoch = opts_.epoch;
  h.tag = tag;
  h.seq = seq_slot(next_seq_, {dst, tag})++;
  unacked_entry entry;
  entry.dst = dst;
  entry.image = wire::encode(h, payload);
  entry.deadline = clock::now() + opts_.retransmit_timeout;
  fabric_->send(dst, entry.image);
  unacked_[{dst, tag, h.seq}] = std::move(entry);
  ++stats_.data_sent;
}

void reliable_channel::send(int dst, int tag, std::span<const double> data) {
  SFP_TRACE_SCOPE_CAT("reliable.send", "runtime");
  send_data(dst, tag, data);
}

void reliable_channel::send_ack(int src, int tag, std::uint64_t seq) {
  envelope h;
  h.type = envelope::kind::ack;
  h.epoch = opts_.epoch;
  h.tag = tag;
  h.seq = seq;
  // Fire-and-forget: a lost ack is healed by the sender's retransmit and
  // our dedup re-ack, so acks are never tracked as unacked themselves.
  fabric_->send(src, wire::encode(h, {}));
  ++stats_.acks_sent;
}

void reliable_channel::drain_reorder(const stream_key& key) {
  auto buffered = reorder_.find(key);
  if (buffered == reorder_.end()) return;
  std::uint64_t& expected = seq_slot(expected_, key);
  auto& ready = ready_[key];
  // Look the expected seq up each round instead of walking from begin():
  // around the uint64 wrap the map's order (0 < ... < UINT64_MAX) no longer
  // matches stream order, but find() keeps draining correctly.
  for (;;) {
    const auto it = buffered->second.find(expected);
    if (it == buffered->second.end()) break;
    ready.push_back(std::move(it->second));
    buffered->second.erase(it);
    ++expected;
    ++stats_.data_received;
  }
  if (buffered->second.empty()) reorder_.erase(buffered);
}

void reliable_channel::handle_wire(any_message&& msg) {
  envelope h;
  std::vector<double> payload;
  if (!wire::decode(msg.payload, opts_.verify_checksums, &h, &payload)) {
    // Corrupt or truncated: drop silently; the sender's retransmit timer
    // re-delivers an intact copy. No ack — we cannot trust the header.
    ++stats_.corruption_detected;
    return;
  }
  if (h.epoch != opts_.epoch) {
    ++stats_.stale_dropped;
    return;
  }
  if (h.type == envelope::kind::ack) {
    if (unacked_.erase({msg.src, h.tag, h.seq}) > 0) ++stats_.acks_received;
    return;
  }
  const stream_key key{msg.src, h.tag};
  std::uint64_t& expected = seq_slot(expected_, key);
  // Serial comparison, not <: a stream that wraps past UINT64_MAX must not
  // mistake the post-wrap seqs for ancient duplicates.
  if (seq_before(h.seq, expected)) {
    // Duplicate of something already delivered (injected duplicate, or a
    // retransmit whose ack was lost). Re-ack so the sender stops.
    ++stats_.dedup_dropped;
    send_ack(msg.src, h.tag, h.seq);
    return;
  }
  if (h.seq == expected) {
    ready_[key].push_back(std::move(payload));
    ++expected;
    ++stats_.data_received;
    drain_reorder(key);
  } else {
    // Ahead of the stream: park it. emplace keeps the first copy if an
    // injected duplicate lands here twice.
    const bool inserted =
        reorder_[key].emplace(h.seq, std::move(payload)).second;
    if (inserted)
      ++stats_.out_of_order;
    else
      ++stats_.dedup_dropped;
  }
  send_ack(msg.src, h.tag, h.seq);
}

void reliable_channel::service_retransmits() {
  const clock::time_point now = clock::now();
  for (auto& [key, entry] : unacked_) {
    if (entry.deadline > now) continue;
    if (entry.attempts >= opts_.max_retransmits)
      throw peer_unreachable_error(fabric_->rank(), entry.dst,
                                   entry.attempts + 1);
    ++entry.attempts;
    ++stats_.retransmits;
    // Capped exponential backoff with deterministic jitter (see
    // compute_backoff): timeout * 2^attempts, clamped, stretched.
    entry.deadline = now + compute_backoff(opts_, entry.attempts, jitter_rng_);
    fabric_->send(entry.dst, entry.image);
  }
}

bool reliable_channel::pump(std::chrono::microseconds wait) {
  any_message msg;
  const bool got = fabric_->try_recv_any(wait, &msg);
  if (got) handle_wire(std::move(msg));
  service_retransmits();
  return got;
}

std::vector<double> reliable_channel::recv(int src, int tag) {
  SFP_TRACE_SCOPE_CAT("reliable.recv", "runtime");
  const stream_key key{src, tag};
  const bool bounded = opts_.recv_timeout.count() > 0;
  const clock::time_point start = clock::now();
  const clock::time_point give_up = start + opts_.recv_timeout;
  for (;;) {
    auto it = ready_.find(key);
    if (it != ready_.end() && !it->second.empty()) {
      std::vector<double> out = std::move(it->second.front());
      it->second.pop_front();
      recv_wait_hist().observe(
          std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                start)
              .count());
      return out;
    }
    if (bounded && clock::now() >= give_up)
      throw peer_unreachable_error(fabric_->rank(), src, 0);
    pump(opts_.pump_quantum);
  }
}

void reliable_channel::flush() {
  SFP_TRACE_SCOPE_CAT("reliable.flush", "runtime");
  // Pump until every send is acked; service_retransmits inside pump()
  // enforces the per-message retransmit budget, so this terminates either
  // clean or with peer_unreachable_error.
  while (!unacked_.empty()) pump(opts_.pump_quantum);
}

void reliable_channel::fence() {
  SFP_TRACE_SCOPE_CAT("reliable.fence", "runtime");
  const int n = fabric_->size();
  const int self = fabric_->rank();
  // Dissemination barrier: round r talks to rank ±2^r. Completion of any
  // rank transitively requires every rank to have entered, which is what
  // makes it safe to stop pumping afterwards. Fence rounds use reserved
  // negative logical tags so they never collide with application streams.
  for (int round = 0, hop = 1; hop < n; ++round, hop *= 2) {
    const int to = (self + hop) % n;
    const int from = (self - hop % n + n) % n;
    const int tag = -1000 - round;
    send_data(to, tag, {});
    recv(from, tag);
  }
}

}  // namespace sfp::runtime
