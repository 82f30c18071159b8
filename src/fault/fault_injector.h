// Deterministic crash injection at I/O boundaries.
//
// A FaultInjector attaches to one or more SimDevices and models power loss
// the way real hardware fails: at an armed crash point (the Nth page write,
// or the first write at/after a virtual-time deadline) the in-flight request
// is cut — full pages before the crash page persist, the crash page keeps a
// prefix of 512-byte sectors (sector writes are atomic; a page write is
// not), everything after is dropped — and the device goes dead, failing all
// subsequent I/O until Disarm(). The error unwinds through the engine like a
// vanished disk; the harness then discards DRAM state and runs restart
// against exactly the bytes that made it to media.
//
// Tear granularity is per device. The WAL and flash-cache devices tear at
// sector boundaries (their formats — record CRCs, frame checksums, the
// segment ring — are the machinery that must survive torn tails). The
// database device is page-atomic (pages drop whole, never tear), modelling
// the full-page-write protection the paper's PostgreSQL substrate provides;
// without it no byte-range-logging engine can recover a half-written page.
//
// The class also carries the static "aftermath surgery" primitives — torn
// and garbled block ranges applied to a quiesced device with no virtual
// time or stats charged — used by the WAL fuzz tests and by targeted
// metadata-tail corruption scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace face {

class SimDevice;
class IoScheduler;

/// Sector geometry: 512-byte sectors, 8 per 4 KB page. Sector writes are
/// atomic; page writes are not — the torn-write model of the injector.
inline constexpr uint32_t kSectorsPerPage = 8;
inline constexpr uint32_t kSectorSize = kPageSize / kSectorsPerPage;

/// How the crash-point write is cut on one device.
enum class TearGranularity : uint8_t {
  kSectorTear,  ///< crash page keeps a random prefix of sectors (default)
  kPageAtomic,  ///< pages persist whole or not at all (FPW-protected data)
};

/// Seeded probabilistic *non-terminal* fault model for one device. All
/// rates are permille (out of 1000) per request; draws happen only while a
/// profile is armed, so a disarmed injector makes zero RNG draws and
/// perturbs nothing.
struct TransientFaultProfile {
  uint32_t read_fail_permille = 0;   ///< chance a read attempt fails
  uint32_t write_fail_permille = 0;  ///< chance a write attempt fails
  /// When a failure fires, force this many *further* consecutive attempts
  /// on the device to fail before it recovers — a sticky-then-recovering
  /// window. 0 = each failure is independent. A window longer than the
  /// retry budget deterministically exhausts it (device declared lost).
  uint32_t sticky_failures = 0;
  uint32_t latency_spike_permille = 0;  ///< chance a request is slow
  uint32_t latency_spike_factor = 8;    ///< service-time multiplier when slow
  uint64_t seed = 1;                    ///< per-device RNG stream
};

/// Where and how an injected crash landed.
struct CrashSite {
  bool tripped = false;
  std::string device;            ///< device id of the crash-point request
  uint64_t block = 0;            ///< first block of that request
  uint32_t req_pages = 0;        ///< pages the request asked to write
  uint32_t pages_persisted = 0;  ///< full pages that made it to media
  uint32_t sectors_persisted = 0;///< sectors of the torn page (0 = dropped)
  uint64_t write_no = 0;         ///< page-write ordinal that tripped
  SimNanos vtime = 0;            ///< scheduler now() at the crash (if wired)
  bool in_io_batch = false;      ///< cut inside an I/O lane batch (if wired)

  std::string ToString() const;
};

/// Crash injector; see file comment. One injector may be shared by several
/// devices — the write countdown then counts page writes across all of them,
/// so crash points land in the WAL, the data array, and the flash cache
/// alike. Single-threaded, like the simulator.
class FaultInjector {
 public:
  /// Verdict for one write request, produced by OnWrite.
  struct WriteVerdict {
    bool dead = false;          ///< device is already dead: reject outright
    bool trip = false;          ///< this request is the crash point
    uint32_t keep_pages = 0;    ///< full pages to persist before the cut
    uint32_t keep_sectors = 0;  ///< sectors of page `keep_pages` to persist
  };

  /// Arm a countdown: the `nth` page write observed from now on (1-based,
  /// across all attached devices — or only the targeted one, see
  /// TargetDevice) is the crash point. `seed` drives the torn/drop choice
  /// at the cut.
  void ArmAfterWrites(uint64_t nth, uint64_t seed);

  /// Restrict the countdown/deadline to writes on one device (WAL traffic
  /// otherwise dominates the write stream and crash points would rarely
  /// land on the flash cache or the disk array). Empty string = any device.
  /// Sticky across Arm calls.
  void TargetDevice(std::string device_id) { target_ = std::move(device_id); }

  /// Arm a virtual-time trigger: the first page write at/after scheduler
  /// time `deadline` is the crash point. Requires AttachScheduler.
  void ArmAtTime(SimNanos deadline, uint64_t seed);

  /// Stand down: passthrough again, and revive a dead device (the power is
  /// back — restart runs against the surviving bytes).
  void Disarm();

  bool armed() const { return mode_ != Mode::kOff; }
  bool dead() const { return dead_; }
  bool tripped() const { return site_.tripped; }
  const CrashSite& site() const { return site_; }
  /// Page writes seen since construction (armed or not) — callers use the
  /// rate observed during a warmup phase to size countdown windows.
  uint64_t writes_observed() const { return writes_observed_; }
  /// Per-device page-write count (0 for devices never written).
  uint64_t writes_observed_on(const std::string& device_id) const {
    auto it = per_device_writes_.find(device_id);
    return it != per_device_writes_.end() ? it->second : 0;
  }

  /// Wire the scheduler whose clock stamps crash sites and drives ArmAtTime.
  void AttachScheduler(const IoScheduler* sched) { sched_ = sched; }
  /// Set how writes tear on the device with this id (default kSectorTear).
  void SetTearGranularity(const std::string& device_id, TearGranularity g) {
    granularity_[device_id] = g;
  }

  /// Device-side hook: called by SimDevice for every write request before
  /// any byte moves. Decides whether (and how much of) the request persists.
  WriteVerdict OnWrite(const std::string& device_id, uint64_t block,
                       uint32_t n_pages);

  // --- per-device transient faults ------------------------------------------
  // Orthogonal to the crash machinery above: transient verdicts fail single
  // attempts with retryable errors instead of cutting power, and are scoped
  // to one device id — arming one shard's flash never touches another's.

  /// Verdict for one I/O attempt from the transient layer.
  struct TransientVerdict {
    bool fail = false;            ///< fail this attempt (retryable)
    bool killed = false;          ///< device administratively dead (terminal)
    uint32_t latency_factor = 1;  ///< multiply this request's service time
  };

  /// Arm (or re-arm) the transient profile for one device.
  void ArmTransient(const std::string& device_id,
                    const TransientFaultProfile& profile);
  /// Stand down the transient profile and any kill for one device; other
  /// devices' profiles are untouched (no global Disarm needed).
  void DisarmDevice(const std::string& device_id);
  /// Administratively kill one device: every subsequent attempt on it gets
  /// a terminal (non-retryable) verdict until DisarmDevice.
  void KillDevice(const std::string& device_id);

  /// Cheap guard for the per-request hot path: true iff any device has a
  /// transient profile or kill in effect.
  bool transient_active() const { return transient_active_; }
  /// Called by SimDevice for every attempt while transient_active().
  TransientVerdict OnAttempt(const std::string& device_id, bool is_write);
  /// Transient failures injected on one device so far (all attempts).
  uint64_t transient_failures_on(const std::string& device_id) const;

  // --- power-loss aftermath surgery -----------------------------------------
  // Direct corruption of a quiesced device: no virtual time, no stats, no
  // crash state. These model what an examined disk looks like after the
  // fact; the live injector above models how it got that way.

  /// Keep the first `keep_bytes` of `block`, fill the rest with `junk`.
  static Status TearBlockBytes(SimDevice* dev, uint64_t block,
                               uint32_t keep_bytes, char junk);
  /// Keep the first `keep_sectors` whole sectors of `block`, junk the rest.
  static Status TearBlockSectors(SimDevice* dev, uint64_t block,
                                 uint32_t keep_sectors, char junk);
  /// Overwrite `n_blocks` blocks starting at `block` with `junk`.
  static Status GarbleBlocks(SimDevice* dev, uint64_t block,
                             uint32_t n_blocks, char junk);
  /// Tear a WAL stream at byte offset `cut`: bytes before `cut` survive,
  /// the rest of that block and the next `garble_blocks` blocks read junk —
  /// the canonical torn log tail of the WAL fuzz tests.
  static Status TearWalTail(SimDevice* log_dev, uint64_t cut, char junk,
                            uint32_t garble_blocks = 3);
  /// Flip `n_bits` seeded-random bits inside `block` — silent bit-rot on
  /// idle media, the corruption the scrubber exists to catch. Distinct bits
  /// per call (sampling without replacement).
  static Status FlipBitsInBlock(SimDevice* dev, uint64_t block,
                                uint32_t n_bits, uint64_t seed);

 private:
  enum class Mode : uint8_t { kOff, kCountdown, kDeadline };

  TearGranularity GranularityFor(const std::string& device_id) const {
    auto it = granularity_.find(device_id);
    return it != granularity_.end() ? it->second
                                    : TearGranularity::kSectorTear;
  }
  /// Fill in the cut shape + crash site and flip to dead.
  WriteVerdict Trip(const std::string& device_id, uint64_t block,
                    uint32_t n_pages, uint32_t crash_page);

  /// Per-device transient-fault state; exists only for armed devices.
  struct DeviceFaultState {
    TransientFaultProfile profile;
    Random rnd{1};
    uint32_t sticky_left = 0;  ///< forced failures left in a sticky window
    bool killed = false;
    uint64_t failures = 0;     ///< transient failures injected so far
  };
  void RecomputeTransientActive();

  Mode mode_ = Mode::kOff;
  bool dead_ = false;
  uint64_t countdown_ = 0;  ///< page writes left before the crash point
  SimNanos deadline_ = 0;
  Random rnd_{1};           ///< reseeded at every Arm call
  uint64_t writes_observed_ = 0;
  std::unordered_map<std::string, uint64_t> per_device_writes_;
  std::string target_;      ///< countdown counts only this device (if set)
  const IoScheduler* sched_ = nullptr;
  std::unordered_map<std::string, TearGranularity> granularity_;
  CrashSite site_;
  bool transient_active_ = false;
  std::unordered_map<std::string, DeviceFaultState> device_faults_;
};

}  // namespace face
