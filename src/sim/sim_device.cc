#include "sim/sim_device.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace face {

SimDevice::SimDevice(std::string id, DeviceProfile profile,
                     uint64_t capacity_pages, IoScheduler* sched)
    : id_(std::move(id)),
      profile_(std::move(profile)),
      capacity_pages_(capacity_pages),
      sched_(sched),
      last_end_(profile_.stations, {UINT64_MAX, UINT64_MAX}),
      chunks_((capacity_pages + kChunkPages - 1) / kChunkPages) {
  if (sched_ != nullptr) {
    station_base_ = sched_->RegisterStations(profile_.stations);
  }
  RegisterObs();
}

void SimDevice::RegisterObs() {
  auto& reg = obs::MetricsRegistry::Instance();
  const std::string p = "sim." + id_ + ".";
  obs_reqs_[static_cast<int>(IoOp::kRead)] = reg.GetCounter(p + "read_reqs");
  obs_reqs_[static_cast<int>(IoOp::kWrite)] = reg.GetCounter(p + "write_reqs");
  obs_seq_reqs_[static_cast<int>(IoOp::kRead)] =
      reg.GetCounter(p + "seq_read_reqs");
  obs_seq_reqs_[static_cast<int>(IoOp::kWrite)] =
      reg.GetCounter(p + "seq_write_reqs");
  obs_pages_[static_cast<int>(IoOp::kRead)] = reg.GetCounter(p + "pages_read");
  obs_pages_[static_cast<int>(IoOp::kWrite)] =
      reg.GetCounter(p + "pages_written");
  obs_busy_ns_ = reg.GetCounter(p + "busy_ns");
  obs_retries_ = reg.GetCounter(p + "retries");
  obs_backoff_ns_ = reg.GetCounter(p + "backoff_ns");
  obs_service_ns_ = reg.GetHistogram(p + "service_ns");
  obs_req_pages_ = reg.GetHistogram(p + "req_pages");
  obs_span_name_ = obs::Tracer::Instance().Intern("io." + id_);
}

uint32_t SimDevice::StationFor(uint64_t block) const {
  if (profile_.stations == 1) return 0;
  return static_cast<uint32_t>((block / profile_.stripe_pages) %
                               profile_.stations);
}

uint64_t SimDevice::LocalOffset(uint64_t block) const {
  if (profile_.stations == 1) return block;
  // Spindle-local LBA: a striped sequential stream is contiguous on each
  // spindle's own address space, which is what the head position (and
  // hence sequentiality) must be judged against.
  const uint64_t stripe = profile_.stripe_pages;
  return (block / (stripe * profile_.stations)) * stripe + block % stripe;
}

char* SimDevice::PagePtr(uint64_t block) {
  auto& chunk = chunks_[block / kChunkPages];
  if (chunk == nullptr) {
    chunk = std::make_unique<char[]>(kChunkPages * kPageSize);
    memset(chunk.get(), 0, kChunkPages * kPageSize);
  }
  return chunk.get() + (block % kChunkPages) * kPageSize;
}

void SimDevice::CopyOut(uint64_t block, uint32_t n, char* out) const {
  while (n > 0) {
    const auto& chunk = chunks_[block / kChunkPages];
    const uint64_t in_chunk = block % kChunkPages;
    const uint32_t span =
        static_cast<uint32_t>(std::min<uint64_t>(n, kChunkPages - in_chunk));
    const size_t bytes = static_cast<size_t>(span) * kPageSize;
    if (chunk == nullptr) {
      memset(out, 0, bytes);
    } else {
      memcpy(out, chunk.get() + in_chunk * kPageSize, bytes);
    }
    out += bytes;
    block += span;
    n -= span;
  }
}

void SimDevice::CopyIn(uint64_t block, uint32_t n, const char* in) {
  while (n > 0) {
    auto& chunk = chunks_[block / kChunkPages];
    const uint64_t in_chunk = block % kChunkPages;
    const uint32_t span =
        static_cast<uint32_t>(std::min<uint64_t>(n, kChunkPages - in_chunk));
    const size_t bytes = static_cast<size_t>(span) * kPageSize;
    if (chunk == nullptr) {
      if (span == kChunkPages) {
        // The write covers the whole chunk: no need to zero it first.
        chunk.reset(new char[kChunkPages * kPageSize]);
      } else {
        chunk = std::make_unique<char[]>(kChunkPages * kPageSize);
      }
    }
    memcpy(chunk.get() + in_chunk * kPageSize, in, bytes);
    in += bytes;
    block += span;
    n -= span;
  }
}

Status SimDevice::ConsultFaultInjector(IoOp op, uint64_t block, uint32_t n,
                                       const char* wbuf,
                                       uint32_t* latency_factor) {
  // Transient layer first: a transiently failed attempt moves no bytes and
  // counts toward no crash countdown (the write never reached the media).
  if (fault_->transient_active()) {
    const FaultInjector::TransientVerdict t =
        fault_->OnAttempt(id_, op == IoOp::kWrite);
    if (t.killed) {
      return Status::DeviceLost(id_ + ": device killed by injector");
    }
    if (t.fail) {
      return Status::TransientIOError(id_ + ": simulated transient fault");
    }
    *latency_factor = t.latency_factor;
  }
  if (op == IoOp::kRead) {
    if (fault_->dead()) {
      // Power is off: nothing moves, nothing is charged.
      return Status::IOError(id_ + ": simulated power loss");
    }
    return Status::OK();
  }
  const FaultInjector::WriteVerdict v = fault_->OnWrite(id_, block, n);
  if (v.dead) {
    return Status::IOError(id_ + ": simulated power loss");
  }
  if (v.trip) {
    // The crash cut this request: full pages before the crash page
    // persist, the crash page keeps a sector prefix (the rest of it and
    // all later pages retain their pre-crash media contents).
    if (v.keep_pages > 0) CopyIn(block, v.keep_pages, wbuf);
    if (v.keep_sectors > 0) {
      memcpy(PagePtr(block + v.keep_pages),
             wbuf + static_cast<size_t>(v.keep_pages) * kPageSize,
             static_cast<size_t>(v.keep_sectors) * kSectorSize);
    }
    return Status::IOError(id_ + ": simulated power loss mid-write");
  }
  return Status::OK();
}

Status SimDevice::ConsultWithRetries(IoOp op, uint64_t block, uint32_t n,
                                     const char* wbuf,
                                     uint32_t* latency_factor) {
  Status s = ConsultFaultInjector(op, block, n, wbuf, latency_factor);
  for (uint32_t attempt = 1; s.IsRetryable(); ++attempt) {
    if (attempt >= retry_.max_attempts) {
      // Budget exhausted: the device is lost. Every later request fails
      // fast (no further RNG draws) until ResetHealth() re-attaches it.
      failed_ = true;
      return Status::DeviceLost(id_ + ": retry budget exhausted (" +
                                std::to_string(retry_.max_attempts) +
                                " attempts)");
    }
    const SimNanos backoff = retry_.BackoffFor(attempt);
    ++stats_.retries;
    stats_.backoff_ns += backoff;
    if (obs::Enabled()) {
      obs_retries_->Increment();
      obs_backoff_ns_->Add(backoff);
    }
    // Backoff is driver think time, not device occupancy: the token waits,
    // no station is held.
    if (timing_enabled_ && sched_ != nullptr) sched_->OnCpu(backoff);
    s = ConsultFaultInjector(op, block, n, wbuf, latency_factor);
  }
  if (s.IsDeviceLost()) failed_ = true;
  return s;
}

Status SimDevice::DoIo(IoOp op, uint64_t block, uint32_t n, char* rbuf,
                       const char* wbuf, bool* joined) {
  if (joined != nullptr) *joined = false;
  if (n == 0) return Status::InvalidArgument("zero-length I/O");
  if (block + n > capacity_pages_) {
    return Status::IOError(id_ + ": I/O beyond device capacity");
  }
  FACE_DCHECK(op != IoOp::kRead || rbuf != nullptr,
              "read without a destination buffer");
  FACE_DCHECK(op == IoOp::kRead || wbuf != nullptr,
              "write without a source buffer");
  FACE_DCHECK(joined == nullptr || profile_.stations == 1,
              "joinable request on a striped device");

  if (failed_) {
    return Status::DeviceLost(id_ + ": device offline");
  }
  uint32_t latency_factor = 1;
  if (fault_ != nullptr) {
    FACE_RETURN_IF_ERROR(ConsultWithRetries(op, block, n, wbuf,
                                            &latency_factor));
  }

  // Move the bytes, one memcpy per chunk span.
  if (op == IoOp::kRead) {
    CopyOut(block, n, rbuf);
  } else {
    CopyIn(block, n, wbuf);
  }

  if (!timing_enabled_) return Status::OK();

  // Only large batches (group flushes, multi-block WAL forces, recovery
  // read-ahead) get trace spans; per-page traffic stays counter-only so
  // traces hold thousands of events, not millions.
  obs::ScopedSpan io_span("sim", obs_span_name_, /*enabled=*/n >= 8);

  // Price the request, splitting across RAID stripes so each spindle sees
  // its own positioning + transfer and its own sequentiality history.
  uint64_t pos = block;
  uint32_t remaining = n;
  bool join = false;
  while (remaining > 0) {
    const uint32_t st = StationFor(pos);
    uint32_t span;
    if (profile_.stations == 1) {
      span = remaining;
    } else {
      const uint64_t stripe_end =
          (pos / profile_.stripe_pages + 1) * profile_.stripe_pages;
      span = static_cast<uint32_t>(
          std::min<uint64_t>(remaining, stripe_end - pos));
    }
    const uint64_t local = LocalOffset(pos);
    uint64_t& last_end = last_end_[st][static_cast<int>(op)];
    const bool sequential = last_end == local;
    SimNanos service =
        profile_.ServiceNs(op, sequential, span) * latency_factor;
    uint32_t pages = span;
    if (joined != nullptr && sched_ != nullptr) {
      // A join adds the transfer of its pages past the group's end (the
      // stream's last write end): a force rewrites the group's partial
      // last block, and that block is already on its way.
      const uint64_t from =
          last_end == UINT64_MAX ? local : std::max(local, last_end);
      const uint32_t added =
          local + span > from ? static_cast<uint32_t>(local + span - from) : 0;
      const SimNanos join_ns =
          profile_.ServiceNs(op, /*sequential=*/true, added) * latency_factor;
      join = sched_->OnJoinableIo(station_base_ + st, service, join_ns);
      if (join) {
        service = join_ns;
        pages = added;
      }
    } else if (sched_ != nullptr) {
      sched_->OnIo(station_base_ + st, service);
    }
    stats_.busy_ns += service;

    const int opi = static_cast<int>(op);
    if (op == IoOp::kRead) {
      ++stats_.read_reqs;
      if (sequential) ++stats_.seq_read_reqs;
      stats_.pages_read += pages;
    } else {
      if (!join) ++stats_.write_reqs;
      if (!join && sequential) ++stats_.seq_write_reqs;
      stats_.pages_written += pages;
    }
    if (obs::Enabled()) {
      if (!join) {
        obs_reqs_[opi]->Increment();
        if (sequential) obs_seq_reqs_[opi]->Increment();
        obs_service_ns_->Add(service);
      }
      obs_pages_[opi]->Add(pages);
      obs_busy_ns_->Add(service);
    }
    last_end = join ? std::max(last_end, local + span) : local + span;
    pos += span;
    remaining -= span;
  }
  if (obs::Enabled() && !join) obs_req_pages_->Add(n);
  if (joined != nullptr) *joined = join;
  return Status::OK();
}

Status SimDevice::Read(uint64_t block, char* out) {
  return DoIo(IoOp::kRead, block, 1, out, nullptr);
}

Status SimDevice::Write(uint64_t block, const char* in) {
  return DoIo(IoOp::kWrite, block, 1, nullptr, in);
}

Status SimDevice::ReadBatch(uint64_t block, uint32_t n, char* out) {
  return DoIo(IoOp::kRead, block, n, out, nullptr);
}

Status SimDevice::WriteBatch(uint64_t block, uint32_t n, const char* in) {
  return DoIo(IoOp::kWrite, block, n, nullptr, in);
}

Status SimDevice::GroupWrite(uint64_t block, uint32_t n, const char* in,
                             bool* joined) {
  return DoIo(IoOp::kWrite, block, n, nullptr, in, joined);
}

double SimDevice::Utilization(SimNanos makespan) const {
  if (makespan == 0) return 0.0;
  return static_cast<double>(stats_.busy_ns) /
         (static_cast<double>(makespan) * profile_.stations);
}

void SimDevice::TrimBefore(uint64_t block, uint64_t keep_below) {
  const uint64_t first_chunk = (keep_below + kChunkPages - 1) / kChunkPages;
  const uint64_t end_chunk = block / kChunkPages;
  for (uint64_t i = first_chunk; i < end_chunk && i < chunks_.size(); ++i) {
    chunks_[i].reset();
  }
}

void SimDevice::Erase() {
  // Contents and sequentiality history reset together; stats survive (see
  // header comment for why).
  for (auto& chunk : chunks_) chunk.reset();
  for (auto& ends : last_end_) ends = {UINT64_MAX, UINT64_MAX};
}

Status SimDevice::CloneContentsFrom(const SimDevice& src) {
  if (src.capacity_pages_ > capacity_pages_) {
    return Status::InvalidArgument("clone source larger than destination");
  }
  Erase();
  for (size_t i = 0; i < src.chunks_.size(); ++i) {
    if (src.chunks_[i] == nullptr) continue;
    auto& dst = chunks_[i];
    dst = std::make_unique<char[]>(kChunkPages * kPageSize);
    memcpy(dst.get(), src.chunks_[i].get(), kChunkPages * kPageSize);
  }
  return Status::OK();
}

}  // namespace face
