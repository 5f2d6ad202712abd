#include "runtime/reliable.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

/// Magic in the high half of envelope word 0; the kind sits in the low byte.
constexpr std::uint64_t wire_magic = 0x53465052ull << 32;  // "SFPR"

/// Every reliable_stats field, with the obs counter it publishes to.
constexpr std::pair<const char*, std::int64_t reliable_stats::*>
    stat_fields[] = {
        {"reliable.data_sent", &reliable_stats::data_sent},
        {"reliable.data_received", &reliable_stats::data_received},
        {"reliable.retransmits", &reliable_stats::retransmits},
        {"reliable.corruption_detected", &reliable_stats::corruption_detected},
        {"reliable.dedup_dropped", &reliable_stats::dedup_dropped},
        {"reliable.out_of_order", &reliable_stats::out_of_order},
        {"reliable.acks_sent", &reliable_stats::acks_sent},
        {"reliable.acks_received", &reliable_stats::acks_received},
        {"reliable.stale_dropped", &reliable_stats::stale_dropped},
        {"reliable.shutdown_discarded", &reliable_stats::shutdown_discarded},
};

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

/// The header as wire words, in order: magic | kind, epoch, seq, payload
/// length, crc. Each travels as the bit image of one double.
std::array<std::uint64_t, wire::header_doubles> header_words(
    const envelope& h) {
  return {wire_magic | static_cast<std::uint64_t>(h.type), h.epoch, h.seq,
          h.payload_doubles, h.crc};
}

/// CRC over the four semantic header words + the payload bytes. The crc
/// word itself is excluded, so a flipped bit anywhere in the message —
/// including the crc word — yields a mismatch.
std::uint32_t envelope_crc(const envelope& h, std::span<const double> payload) {
  const auto words = header_words(h);
  const std::uint32_t crc =
      crc32c(words.data(), (words.size() - 1) * sizeof(std::uint64_t));
  return crc32c(payload.data(), payload.size() * sizeof(double), crc);
}

/// Serial-number comparison (RFC 1982 style): a < b in the presence of
/// wraparound, valid while the streams stay within 2^63 of each other.
bool seq_before(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) < 0;
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
    : std::runtime_error("rank " + std::to_string(self) + ": peer " +
                         std::to_string(peer) + " unreachable after " +
                         std::to_string(attempts) + " delivery attempts"),
      rank_(self),
      peer_(peer) {}

namespace wire {

std::vector<double> encode(const envelope& header,
                           std::span<const double> payload) {
  envelope h = header;
  h.payload_doubles = payload.size();
  h.crc = envelope_crc(h, payload);
  std::vector<double> message;
  message.reserve(header_doubles + payload.size());
  for (const std::uint64_t word : header_words(h))
    message.push_back(std::bit_cast<double>(word));
  message.insert(message.end(), payload.begin(), payload.end());
  return message;
}

bool decode(std::span<const double> message, bool verify_checksum,
            envelope* header, std::vector<double>* payload) {
  if (message.size() < header_doubles) return false;
  const auto word = [&](std::size_t i) {
    return std::bit_cast<std::uint64_t>(message[i]);
  };
  if ((word(0) & 0xffffffff00000000ull) != wire_magic) return false;
  const std::uint64_t kind_bits = word(0) & 0xffu;
  if (kind_bits > static_cast<std::uint64_t>(envelope::kind::fence))
    return false;
  envelope h;
  h.type = static_cast<envelope::kind>(kind_bits);
  h.epoch = word(1);
  h.seq = word(2);
  h.payload_doubles = word(3);
  h.crc = static_cast<std::uint32_t>(word(4));
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
  for (const auto& f : stat_fields) this->*f.second += o.*f.second;
  return *this;
}

reliable_channel::reliable_channel(transport& fabric, reliable_options opts)
    : fabric_(&fabric), opts_(opts) {
  SFP_REQUIRE(opts_.max_retransmits >= 1, "need at least one retransmit");
}

reliable_channel::~reliable_channel() {
  // No pumping: a fault here would reach no caller. fence() settles.
  for (const auto& [rank, p] : peers_)
    stats_.shutdown_discarded += static_cast<std::int64_t>(p.unacked.size());
  try {
    publish_metrics();
  } catch (...) {  // teardown is best-effort by design
    // registry allocation failure at teardown is not worth a terminate.
  }
}

void reliable_channel::publish_metrics() {
  const reliable_stats before = std::exchange(published_, stats_);
  obs::registry& reg = obs::registry::global();
  for (const auto& [name, field] : stat_fields)
    reg.get_counter(name).add(stats_.*field - before.*field);
}

reliable_channel::peer_state& reliable_channel::peer(int rank) {
  const auto [it, fresh] = peers_.try_emplace(rank);
  if (fresh)
    it->second.next_seq = it->second.expected = it->second.next_take =
        opts_.first_seq;
  return it->second;
}

void reliable_channel::settle() {
  while (std::any_of(peers_.begin(), peers_.end(),
                     [](const auto& kv) { return !kv.second.unacked.empty(); }))
    pump({wait_reason::kind::fence});
}

void reliable_channel::send_frame(int dst, envelope::kind type,
                                  std::span<const double> payload) {
  peer_state& p = peer(dst);
  envelope h;
  h.type = type;
  h.epoch = opts_.epoch;
  h.seq = p.next_seq++;
  unacked_entry entry;
  entry.image = wire::encode(h, payload);
  fabric_->send(dst, entry.image);
  p.unacked[h.seq] = std::move(entry);
  ++stats_.data_sent;
}

void reliable_channel::send(int dst, std::span<const double> data) {
  SFP_TRACE_SCOPE_CAT("reliable.send", "runtime");
  send_frame(dst, envelope::kind::data, data);
}

void reliable_channel::send_ack(int src, std::uint64_t seq) {
  envelope h;
  h.type = envelope::kind::ack;
  h.epoch = opts_.epoch;
  h.seq = seq;
  // Fire-and-forget: a lost ack is healed by the sender's retransmit and
  // our dedup re-ack, so acks are never tracked as unacked themselves.
  fabric_->send(src, wire::encode(h, {}));
  ++stats_.acks_sent;
}

void reliable_channel::handle_wire(any_message&& msg) {
  envelope h;
  delivery d;
  if (!wire::decode(msg.payload, opts_.verify_checksums, &h, &d.payload)) {
    // Corrupt or truncated: drop silently; the next quiescent round
    // re-delivers an intact copy. No ack — we cannot trust the header.
    ++stats_.corruption_detected;
    return;
  }
  if (h.epoch != opts_.epoch) {
    ++stats_.stale_dropped;
    return;
  }
  peer_state& p = peer(msg.src);
  if (h.type == envelope::kind::ack) {
    if (p.unacked.erase(h.seq) > 0) ++stats_.acks_received;
    return;
  }
  d.type = h.type;
  // A seq before `expected` (by serial comparison, so post-wrap seqs are not
  // ancient) or already in the inbox is a duplicate — injected, or a
  // retransmit whose ack was lost — and is re-acked so the sender stops.
  if (seq_before(h.seq, p.expected) ||
      !p.inbox.emplace(h.seq, std::move(d)).second) {
    ++stats_.dedup_dropped;
  } else {
    if (h.seq != p.expected) ++stats_.out_of_order;  // parked past a gap
    // Look each seq up instead of walking from begin(): around the uint64
    // wrap the map's order no longer matches stream order.
    for (; p.inbox.contains(p.expected); ++p.expected) ++stats_.data_received;
  }
  send_ack(msg.src, h.seq);
}

void reliable_channel::pump(wait_reason why) {
  any_message msg;
  if (fabric_->recv_or_quiescent(&msg, why) == recv_status::message) {
    handle_wire(std::move(msg));
    return;
  }
  // Quiescent: every live rank is blocked and every inbox is empty, so each
  // ack that was sent has been read. A frame still unacked was lost, or its
  // ack was, or it sits in a reorder stash: resend it once. A peer that
  // exited took every frame it needed before its fence completed.
  for (auto& [rank, p] : peers_) {
    if (!p.unacked.empty() && fabric_->peer_exited(rank)) {
      stats_.shutdown_discarded += static_cast<std::int64_t>(p.unacked.size());
      p.unacked.clear();
    }
    for (auto& [seq, entry] : p.unacked) {
      if (entry.attempts >= opts_.max_retransmits)
        throw peer_unreachable_error(fabric_->rank(), rank,
                                     entry.attempts + 1);
      ++entry.attempts;
      ++stats_.retransmits;
      fabric_->send(rank, entry.image);
    }
  }
}

std::vector<double> reliable_channel::recv(int src) {
  SFP_TRACE_SCOPE_CAT("reliable.recv", "runtime");
  return take(src, envelope::kind::data);
}

std::vector<double> reliable_channel::take(int src, envelope::kind want) {
  peer_state& p = peer(src);
  const wait_reason why{want == envelope::kind::data
                            ? wait_reason::kind::recv
                            : wait_reason::kind::fence,
                        src};
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    // An arrived next_take is in order: `expected` has moved past it.
    if (const auto it = p.inbox.find(p.next_take); it != p.inbox.end()) {
      SFP_REQUIRE(it->second.type == want,
                  "stream " + std::to_string(src) + " -> " +
                      std::to_string(fabric_->rank()) +
                      (want == envelope::kind::data
                           ? ": recv met a fence token"
                           : ": fence met unreceived data"));
      std::vector<double> out = std::move(it->second.payload);
      p.inbox.erase(it);
      ++p.next_take;
      recv_wait_hist().observe(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      return out;
    }
    pump(why);
  }
}

void reliable_channel::fence() {
  SFP_TRACE_SCOPE_CAT("reliable.fence", "runtime");
  // Own sends first. pump() enforces the per-frame retransmit budget, so
  // each settle ends either clean or with peer_unreachable_error.
  settle();
  const int n = fabric_->size();
  const int self = fabric_->rank();
  // Dissemination barrier: each round sends a token to rank self + hop and
  // takes one from self - hop, hop = 1, 2, 4, ... Completion of any rank
  // transitively requires every rank to have entered. Every hop is below
  // n, so no two rounds share a peer, and a stream carries at most one
  // token per fence.
  for (int hop = 1; hop < n; hop *= 2) {
    send_frame((self + hop) % n, envelope::kind::fence, {});
    take((self - hop + n) % n, envelope::kind::fence);
  }
  // Two-generals tail: a token's receiver takes it inside its own fence,
  // so a peer may still wait for a lost one. Settle again, in the caller,
  // where a spent budget or a kill on a resend fails the rank like any
  // other op; a quiescent round discards tokens to a peer that has exited,
  // which took them and can never ack.
  settle();
}

}  // namespace sfp::runtime
