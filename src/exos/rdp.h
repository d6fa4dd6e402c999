// RDP: a reliable datagram protocol in application space (paper §6.3 /
// §7: protocol processing belongs to the application — "capturing the
// same expressiveness within a statically defined protocol is difficult").
//
// Stop-and-wait ARQ over the ExOS UDP socket: each message carries a
// 1-bit sequence number; the sender retransmits on timeout until the
// matching ACK arrives; the receiver acknowledges everything and
// suppresses duplicates. Trivial — and that is the point: it is a
// complete, application-chosen transport living entirely above the
// exokernel, tested against real injected frame loss (hw::Wire loss
// injection).
//
// Header (payload prefix, 4 bytes): [type, seq, ck_lo, ck_hi]
//   type 1 = DATA, type 2 = ACK; ck = 16-bit end-to-end checksum over
//   type, seq, and the payload. UDP validates only the IP header, so a
//   bit-flipped payload (hw::Wire corruption injection) reaches us; the
//   checksum turns corruption into a drop, and the ARQ turns the drop
//   into a retransmission.
#ifndef XOK_SRC_EXOS_RDP_H_
#define XOK_SRC_EXOS_RDP_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/base/rand.h"
#include "src/exos/udp.h"

namespace xok::exos {

class RdpEndpoint {
 public:
  struct Config {
    uint32_t peer_ip = 0;
    uint16_t peer_port = 0;
    uint64_t retransmit_cycles = hw::kClockHz / 500;  // Initial RTO: 2 ms.
    // Each timeout doubles the RTO up to this cap (20 ms), then Send keeps
    // retrying at the cap: under a long loss burst the sender stops
    // hammering the wire instead of retransmitting at a fixed 2 ms beat.
    uint64_t retransmit_cap_cycles = hw::kClockHz / 50;
    int max_retries = 64;
    // Seeded retransmit jitter. A purely deterministic backoff means N
    // clients that lost frames to the same burst retry in lockstep and
    // re-collide forever; with a non-zero seed each wait is drawn from
    // [rto/2, rto] ("equal jitter"), so the schedules decorrelate. 0
    // disarms — the exact pre-jitter timing, for tests that depend on it.
    uint64_t jitter_seed = 0;
  };

  RdpEndpoint(Process& proc, UdpSocket& socket, const Config& config)
      : proc_(proc), socket_(socket), config_(config),
        jitter_(config.jitter_seed) {}

  // Reliably delivers `payload` (blocks until acknowledged). Each attempt
  // sleeps on the socket until a frame arrives or its RTO passes; after the
  // last, kErrTimedOut. A socket error (send or receive) is returned as is.
  Status Send(std::span<const uint8_t> payload);

  // Receives the next in-order payload (blocks). ACKs are generated here,
  // so a receiver must be calling Recv (or Pump) for the peer to make
  // progress.
  Result<std::vector<uint8_t>> Recv();
  // Bounded variant: gives up with kErrTimedOut after `timeout_cycles`
  // without an in-order payload (0 = wait forever). The bound is what lets
  // a client survive a peer that lost power mid-conversation — a plain
  // blocking Recv would sleep until a reply that can never come. The wait
  // is one deadline sleep on the socket, woken early by any arrival.
  Result<std::vector<uint8_t>> Recv(uint64_t timeout_cycles);

  // Re-ACKs any retransmitted DATA sitting in the socket without blocking.
  // A receiver should pump for a grace period after its final Recv: if the
  // last ACK was lost on the wire, the peer is still retransmitting and
  // needs one more acknowledgement to finish (the two-generals tail).
  void PumpAcks();

  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  uint64_t checksum_drops() const { return checksum_drops_; }
  // Timeouts that doubled the RTO (an RTO already at the cap still counts).
  uint64_t backoffs() const { return backoffs_; }
  // Cycle timestamps of every retransmission, in order. Lets tests check
  // that two endpoints' schedules decorrelate under seeded jitter.
  const std::vector<uint64_t>& retransmit_log() const { return retransmit_log_; }

 private:
  static constexpr uint8_t kTypeData = 1;
  static constexpr uint8_t kTypeAck = 2;
  static constexpr uint32_t kHeaderBytes = 4;

  static uint16_t Checksum(uint8_t type, uint8_t seq, std::span<const uint8_t> payload);
  // Length + checksum validation; counts and rejects damaged frames.
  bool FrameValid(const Datagram& dgram);
  // `queue_only` (ring sockets): stage the ACK in the TX ring without a
  // doorbell, so a burst of retransmissions is answered with one syscall.
  void SendAck(uint8_t seq, bool queue_only = false);
  // The wait this attempt actually sleeps: `rto` exactly when jitter is
  // disarmed, else a seeded draw from [rto/2, rto].
  uint64_t JitteredWait(uint64_t rto);

  Process& proc_;
  UdpSocket& socket_;
  Config config_;
  uint8_t send_seq_ = 0;
  uint8_t recv_seq_ = 0;       // Next expected.
  bool have_peer_ack_ = false;
  uint8_t pending_ack_ = 0;    // ACK seen while waiting for data.
  uint64_t retransmissions_ = 0;
  uint64_t duplicates_dropped_ = 0;
  uint64_t checksum_drops_ = 0;
  uint64_t backoffs_ = 0;
  SplitMix64 jitter_;  // Drawn only while config_.jitter_seed != 0.
  std::vector<uint64_t> retransmit_log_;
  std::deque<Datagram> stashed_;  // DATA that arrived during a Send wait.
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_RDP_H_
