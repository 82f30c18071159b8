#include "sim/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace face {

IoScheduler::IoScheduler(uint32_t num_clients)
    : num_clients_(num_clients), token_ready_(num_clients, 0) {
  FACE_CHECK(num_clients > 0, "scheduler needs at least one client");
}

uint32_t IoScheduler::RegisterStations(uint32_t n) {
  const uint32_t base = static_cast<uint32_t>(station_free_.size());
  station_free_.resize(base + n, 0);
  busy_.resize(base + n, 0);
  group_start_.resize(base + n, kNoGroup);
  return base;
}

void IoScheduler::BeginTxn() {
  FACE_DCHECK(!active_, "BeginTxn while another span is open");
  // Next transaction goes to the client that frees up first: the closed-loop
  // "think time zero" discipline of a benchmark driver.
  uint32_t best = 0;
  for (uint32_t i = 1; i < num_clients_; ++i) {
    if (token_ready_[i] < token_ready_[best]) best = i;
  }
  current_token_ = best;
  current_time_ = token_ready_[best];
  active_ = true;
}

SimNanos IoScheduler::EndTxn() {
  FACE_DCHECK(active_, "EndTxn without a matching BeginTxn");
  FACE_DCHECK(!in_batch_, "EndTxn inside an I/O lane batch");
  token_ready_[current_token_] = current_time_;
  last_completion_ = std::max(last_completion_, current_time_);
  ++txns_completed_;
  active_ = false;
  return current_time_;
}

uint32_t IoScheduler::AddBackgroundToken() {
  token_ready_.push_back(0);
  return static_cast<uint32_t>(token_ready_.size() - 1);
}

void IoScheduler::BeginBackground(uint32_t token, SimNanos not_before) {
  FACE_DCHECK(!active_, "BeginBackground while another span is open");
  FACE_DCHECK(token >= num_clients_ && token < token_ready_.size(),
              "background token out of range");
  current_token_ = token;
  current_time_ = std::max(token_ready_[token], not_before);
  active_ = true;
}

SimNanos IoScheduler::EndBackground() {
  FACE_DCHECK(active_, "EndBackground without a matching BeginBackground");
  FACE_DCHECK(!in_batch_, "EndBackground inside an I/O lane batch");
  token_ready_[current_token_] = current_time_;
  last_completion_ = std::max(last_completion_, current_time_);
  active_ = false;
  return current_time_;
}

void IoScheduler::OnIo(uint32_t station, SimNanos service_ns) {
  FACE_DCHECK(station < station_free_.size(), "I/O on unregistered station");
  group_start_[station] = kNoGroup;  // any request closes the open group
  if (!active_) {
    // I/O outside any span (e.g. initial load): charge the station only so
    // utilization stays meaningful, anchored at its own timeline.
    const SimNanos start = station_free_[station];
    station_free_[station] = start + service_ns;
    busy_[station] += service_ns;
    return;
  }
  const SimNanos start = std::max(current_time_, station_free_[station]);
  const SimNanos end = start + service_ns;
  station_free_[station] = end;
  busy_[station] += service_ns;
  current_time_ = end;
}

void IoScheduler::OnCpu(SimNanos think_ns) {
  if (active_) current_time_ += think_ns;
}

bool IoScheduler::OnJoinableIo(uint32_t station, SimNanos service_ns,
                               SimNanos join_ns) {
  FACE_DCHECK(station < station_free_.size(), "I/O on unregistered station");
  const bool groups = active_ && !in_batch_;
  if (groups && group_start_[station] != kNoGroup &&
      current_time_ <= group_start_[station]) {
    // The group's request is still queued: ride along, lengthening it.
    station_free_[station] += join_ns;
    busy_[station] += join_ns;
    current_time_ = station_free_[station];
    return true;
  }
  OnIo(station, service_ns);
  if (groups) group_start_[station] = current_time_ - service_ns;
  return false;
}

void IoScheduler::BeginBatch() {
  FACE_DCHECK(active_, "BeginBatch outside an open span");
  FACE_DCHECK(!in_batch_, "nested I/O lane batch");
  in_batch_ = true;
  batch_start_ = current_time_;
  batch_end_ = current_time_;
}

void IoScheduler::NextLane() { NextLaneAt(batch_start_); }

void IoScheduler::NextLaneAt(SimNanos start) {
  FACE_DCHECK(in_batch_, "NextLane outside an I/O lane batch");
  FACE_DCHECK(start <= batch_start_, "a lane cannot start after its batch");
  // The span clock is the current lane's clock: bank its end, rewind.
  batch_end_ = std::max(batch_end_, current_time_);
  current_time_ = start;
}

SimNanos IoScheduler::EndBatch() {
  FACE_DCHECK(in_batch_, "EndBatch without a matching BeginBatch");
  current_time_ = std::max(batch_end_, current_time_);
  in_batch_ = false;
  return current_time_;
}

void IoScheduler::AdvanceAllTokens(SimNanos t) {
  for (SimNanos& ready : token_ready_) ready = std::max(ready, t);
}

SimNanos IoScheduler::makespan() const {
  SimNanos m = last_completion_;
  for (SimNanos t : token_ready_) m = std::max(m, t);
  for (SimNanos t : station_free_) m = std::max(m, t);
  return m;
}

void IoScheduler::Reset() {
  std::fill(token_ready_.begin(), token_ready_.end(), 0);
  std::fill(station_free_.begin(), station_free_.end(), 0);
  std::fill(busy_.begin(), busy_.end(), 0);
  std::fill(group_start_.begin(), group_start_.end(), kNoGroup);
  current_token_ = 0;
  current_time_ = 0;
  last_completion_ = 0;
  txns_completed_ = 0;
  active_ = false;
  in_batch_ = false;
}

}  // namespace face
