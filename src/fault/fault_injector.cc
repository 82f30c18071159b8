#include "fault/fault_injector.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/sim_device.h"

namespace face {

std::string CrashSite::ToString() const {
  if (!tripped) return "crash-site: not tripped";
  std::ostringstream os;
  os << "crash-site: dev=" << device << " block=" << block
     << " req_pages=" << req_pages << " persisted=" << pages_persisted
     << "p+" << sectors_persisted << "s write_no=" << write_no
     << " vtime=" << ToSeconds(vtime) << "s";
  if (in_io_batch) os << " (in I/O lane batch)";
  return os.str();
}

void FaultInjector::ArmAfterWrites(uint64_t nth, uint64_t seed) {
  mode_ = Mode::kCountdown;
  countdown_ = std::max<uint64_t>(1, nth);
  rnd_ = Random(seed ^ 0xFA017FEEDULL);
  dead_ = false;
  site_ = CrashSite();
}

void FaultInjector::ArmAtTime(SimNanos deadline, uint64_t seed) {
  // Without a clock the deadline can never fire and the storm would pass
  // vacuously, having injected nothing.
  FACE_CHECK(sched_ != nullptr, "ArmAtTime requires AttachScheduler");
  mode_ = Mode::kDeadline;
  deadline_ = deadline;
  rnd_ = Random(seed ^ 0xFA017FEEDULL);
  dead_ = false;
  site_ = CrashSite();
}

void FaultInjector::Disarm() {
  mode_ = Mode::kOff;
  dead_ = false;
}

FaultInjector::WriteVerdict FaultInjector::Trip(const std::string& device_id,
                                                uint64_t block,
                                                uint32_t n_pages,
                                                uint32_t crash_page) {
  WriteVerdict v;
  v.trip = true;
  v.keep_pages = crash_page;
  if (GranularityFor(device_id) == TearGranularity::kSectorTear) {
    // Sector-atomic cut: the crash page keeps a uniform prefix of sectors
    // (0 = the page write was dropped whole; sectors beyond the prefix keep
    // their pre-crash contents, as a real half-written page does).
    v.keep_sectors = static_cast<uint32_t>(rnd_.Uniform(kSectorsPerPage));
  } else {
    v.keep_sectors = 0;  // page-atomic device: the crash page drops whole
  }

  mode_ = Mode::kOff;
  dead_ = true;
  site_.tripped = true;
  site_.device = device_id;
  site_.block = block;
  site_.req_pages = n_pages;
  site_.pages_persisted = v.keep_pages;
  site_.sectors_persisted = v.keep_sectors;
  site_.write_no = writes_observed_;
  site_.vtime = sched_ != nullptr ? sched_->now() : 0;
  site_.in_io_batch = sched_ != nullptr && sched_->in_batch();
  return v;
}

FaultInjector::WriteVerdict FaultInjector::OnWrite(
    const std::string& device_id, uint64_t block, uint32_t n_pages) {
  if (dead_) {
    WriteVerdict v;
    v.dead = true;
    return v;
  }
  const bool counted = target_.empty() || device_id == target_;
  if (mode_ == Mode::kCountdown && counted) {
    if (countdown_ <= n_pages) {
      const uint32_t crash_page = static_cast<uint32_t>(countdown_ - 1);
      writes_observed_ += countdown_;
      per_device_writes_[device_id] += countdown_;
      return Trip(device_id, block, n_pages, crash_page);
    }
    countdown_ -= n_pages;
  } else if (mode_ == Mode::kDeadline && counted && sched_ != nullptr &&
             sched_->now() >= deadline_) {
    // The clock is only observable between requests, so the deadline cuts
    // at the front of the first request past it.
    writes_observed_ += 1;
    per_device_writes_[device_id] += 1;
    return Trip(device_id, block, n_pages, /*crash_page=*/0);
  }
  writes_observed_ += n_pages;
  per_device_writes_[device_id] += n_pages;
  return WriteVerdict();
}

void FaultInjector::ArmTransient(const std::string& device_id,
                                 const TransientFaultProfile& profile) {
  DeviceFaultState& st = device_faults_[device_id];
  st.profile = profile;
  st.rnd = Random(profile.seed ^ 0x7A45FAB1Eull);
  st.sticky_left = 0;
  st.killed = false;
  RecomputeTransientActive();
}

void FaultInjector::DisarmDevice(const std::string& device_id) {
  device_faults_.erase(device_id);
  RecomputeTransientActive();
}

void FaultInjector::KillDevice(const std::string& device_id) {
  device_faults_[device_id].killed = true;
  RecomputeTransientActive();
}

void FaultInjector::RecomputeTransientActive() {
  transient_active_ = !device_faults_.empty();
}

uint64_t FaultInjector::transient_failures_on(
    const std::string& device_id) const {
  auto it = device_faults_.find(device_id);
  return it != device_faults_.end() ? it->second.failures : 0;
}

FaultInjector::TransientVerdict FaultInjector::OnAttempt(
    const std::string& device_id, bool is_write) {
  TransientVerdict v;
  auto it = device_faults_.find(device_id);
  if (it == device_faults_.end()) return v;
  DeviceFaultState& st = it->second;
  if (st.killed) {
    v.killed = true;
    return v;
  }
  if (st.sticky_left > 0) {
    --st.sticky_left;
    ++st.failures;
    v.fail = true;
    return v;
  }
  const uint32_t fail_permille = is_write ? st.profile.write_fail_permille
                                          : st.profile.read_fail_permille;
  if (fail_permille > 0 && st.rnd.Uniform(1000) < fail_permille) {
    st.sticky_left = st.profile.sticky_failures;
    ++st.failures;
    v.fail = true;
    return v;
  }
  if (st.profile.latency_spike_permille > 0 &&
      st.rnd.Uniform(1000) < st.profile.latency_spike_permille) {
    v.latency_factor = std::max<uint32_t>(1, st.profile.latency_spike_factor);
  }
  return v;
}

namespace {

/// Run `fn` with the device's timing disabled: aftermath surgery moves
/// bytes the way a post-mortem disk editor would, charging nothing.
template <typename Fn>
Status WithTimingOff(SimDevice* dev, Fn fn) {
  const bool was = dev->timing_enabled();
  dev->set_timing_enabled(false);
  const Status s = fn();
  dev->set_timing_enabled(was);
  return s;
}

}  // namespace

Status FaultInjector::TearBlockBytes(SimDevice* dev, uint64_t block,
                                     uint32_t keep_bytes, char junk) {
  if (keep_bytes > kPageSize) {
    return Status::InvalidArgument("torn prefix exceeds a block");
  }
  return WithTimingOff(dev, [&] {
    std::string buf(kPageSize, '\0');
    FACE_RETURN_IF_ERROR(dev->Read(block, buf.data()));
    memset(buf.data() + keep_bytes, junk, kPageSize - keep_bytes);
    return dev->Write(block, buf.data());
  });
}

Status FaultInjector::TearBlockSectors(SimDevice* dev, uint64_t block,
                                       uint32_t keep_sectors, char junk) {
  if (keep_sectors > kSectorsPerPage) {
    return Status::InvalidArgument("torn prefix exceeds a block");
  }
  return TearBlockBytes(dev, block, keep_sectors * kSectorSize, junk);
}

Status FaultInjector::GarbleBlocks(SimDevice* dev, uint64_t block,
                                   uint32_t n_blocks, char junk) {
  return WithTimingOff(dev, [&] {
    std::string buf(kPageSize, junk);
    for (uint32_t i = 0; i < n_blocks; ++i) {
      FACE_RETURN_IF_ERROR(dev->Write(block + i, buf.data()));
    }
    return Status::OK();
  });
}

Status FaultInjector::TearWalTail(SimDevice* log_dev, uint64_t cut, char junk,
                                  uint32_t garble_blocks) {
  const uint64_t block = cut / kPageSize;
  FACE_RETURN_IF_ERROR(TearBlockBytes(
      log_dev, block, static_cast<uint32_t>(cut % kPageSize), junk));
  return GarbleBlocks(log_dev, block + 1, garble_blocks, junk);
}

Status FaultInjector::FlipBitsInBlock(SimDevice* dev, uint64_t block,
                                      uint32_t n_bits, uint64_t seed) {
  if (n_bits == 0 || n_bits > kPageSize * 8) {
    return Status::InvalidArgument("bit-flip count out of range");
  }
  return WithTimingOff(dev, [&] {
    std::string buf(kPageSize, '\0');
    FACE_RETURN_IF_ERROR(dev->Read(block, buf.data()));
    Random rnd(seed ^ 0xB17F11Bull);
    // Distinct bits: re-draw on collision (n_bits is tiny vs 32768 bits).
    std::vector<uint32_t> picked;
    while (picked.size() < n_bits) {
      const uint32_t bit = static_cast<uint32_t>(rnd.Uniform(kPageSize * 8));
      if (std::find(picked.begin(), picked.end(), bit) != picked.end()) {
        continue;
      }
      picked.push_back(bit);
      buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    return dev->Write(block, buf.data());
  });
}

}  // namespace face
