#include "cluster/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace wsva::cluster {

void
DispatchQueue::push_back(const TranscodeStep &step)
{
    if (step.hasDeadline()) {
        edf_.push_back({step, next_seq_++});
        std::push_heap(edf_.begin(), edf_.end());
    } else {
        fifo_.push_back(step);
    }
}

void
DispatchQueue::push_front(const TranscodeStep &step)
{
    if (step.hasDeadline()) {
        // A retried deadline step re-enters the EDF lane; its
        // deadline, not its retry-ness, decides its place. The fresh
        // seq only breaks exact-deadline ties.
        edf_.push_back({step, next_seq_++});
        std::push_heap(edf_.begin(), edf_.end());
    } else {
        fifo_.push_front(step);
    }
}

const TranscodeStep &
DispatchQueue::front() const
{
    WSVA_ASSERT(!empty(), "front() on an empty dispatch queue");
    if (!edf_.empty())
        return edf_.front().step;
    return fifo_.front();
}

void
DispatchQueue::pop_front()
{
    WSVA_ASSERT(!empty(), "pop_front() on an empty dispatch queue");
    if (!edf_.empty()) {
        std::pop_heap(edf_.begin(), edf_.end());
        edf_.pop_back();
        return;
    }
    fifo_.pop_front();
}

size_t
DispatchQueue::parkBatch()
{
    // Single rebuild pass (mid-deque erase would be quadratic). Under
    // sustained surge this is cheap: previously parked steps already
    // sit in shed_, so the pass only touches arrivals since the last
    // park.
    size_t parked = 0;
    std::deque<TranscodeStep> keep;
    for (auto &step : fifo_) {
        if (step.priority == Priority::Batch) {
            shed_.push_back(std::move(step));
            ++parked;
        } else {
            keep.push_back(std::move(step));
        }
    }
    fifo_.swap(keep);
    return parked;
}

void
DispatchQueue::parkStep(const TranscodeStep &step)
{
    shed_.push_back(step);
}

size_t
DispatchQueue::unparkAll()
{
    const size_t released = shed_.size();
    while (!shed_.empty()) {
        fifo_.push_back(shed_.front());
        shed_.pop_front();
    }
    return released;
}

std::vector<TranscodeStep>
DispatchQueue::drainAll()
{
    std::vector<TranscodeStep> out;
    out.reserve(edf_.size() + fifo_.size() + shed_.size());
    // EDF lane in dispatch order (heap pops), then FIFO, then shed —
    // the receiving region re-queues in this order, so relative
    // urgency survives the reroute.
    while (!edf_.empty()) {
        std::pop_heap(edf_.begin(), edf_.end());
        out.push_back(std::move(edf_.back().step));
        edf_.pop_back();
    }
    for (auto &step : fifo_)
        out.push_back(std::move(step));
    fifo_.clear();
    for (auto &step : shed_)
        out.push_back(std::move(step));
    shed_.clear();
    return out;
}

ResourceVector
Scheduler::reservationFor(const ResourceVector &need) const
{
    return need;
}

void
Scheduler::attachMetrics(wsva::MetricsRegistry *metrics)
{
    if (metrics == nullptr) {
        placed_counter_ = wsva::CounterHandle();
        rejected_counter_ = wsva::CounterHandle();
        return;
    }
    placed_counter_ = metrics->counterHandle("sched.placed");
    rejected_counter_ = metrics->counterHandle("sched.rejected");
}

void
Scheduler::recordPick(bool placed)
{
    if (placed) {
        ++stats_.placed;
        placed_counter_.inc();
    } else {
        ++stats_.rejected;
        rejected_counter_.inc();
    }
}

void
AvailabilityIndex::build(std::vector<Worker *> workers)
{
    workers_ = std::move(workers);
    WSVA_ASSERT(!workers_.empty(), "availability index over no workers");

    leaves_ = 1;
    while (leaves_ < workers_.size())
        leaves_ <<= 1;
    // Padding leaves hold -1 so no request ever descends into them.
    tree_.assign(static_cast<size_t>(2) * leaves_ * kDims, -1.0);
    for (size_t pos = 0; pos < workers_.size(); ++pos)
        writeLeaf(static_cast<int>(pos));
    for (uint32_t node = leaves_ - 1; node >= 1; --node) {
        double *dst = &tree_[node * kDims];
        const double *left = &tree_[(2 * node) * kDims];
        const double *right = &tree_[(2 * node + 1) * kDims];
        for (int d = 0; d < kDims; ++d)
            dst[d] = std::max(left[d], right[d]);
    }
}

void
AvailabilityIndex::writeLeaf(int pos)
{
    const Worker *w = workers_[pos];
    double *leaf = &tree_[(leaves_ + static_cast<uint32_t>(pos)) * kDims];
    const bool eligible =
        !w->refused() && !(w->vcu() != nullptr && w->vcu()->disabled);
    if (!eligible) {
        std::fill(leaf, leaf + kDims, -1.0);
        return;
    }
    const auto &avail = w->available().amounts();
    std::copy(avail.begin(), avail.end(), leaf);
}

void
AvailabilityIndex::update(int pos)
{
    writeLeaf(pos);
    for (uint32_t node = (leaves_ + static_cast<uint32_t>(pos)) / 2;
         node >= 1; node /= 2) {
        double *dst = &tree_[node * kDims];
        const double *left = &tree_[(2 * node) * kDims];
        const double *right = &tree_[(2 * node + 1) * kDims];
        bool changed = false;
        for (int d = 0; d < kDims; ++d) {
            const double m = std::max(left[d], right[d]);
            if (dst[d] != m) {
                dst[d] = m;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

Worker *
AvailabilityIndex::descend(uint32_t node, const ResourceVector &need) const
{
    const auto &want = need.amounts();
    const double *vals = &tree_[node * kDims];
    for (int d = 0; d < kDims; ++d) {
        if (want[d] > vals[d] + 1e-9)
            return nullptr;
    }
    if (node >= leaves_) {
        const uint32_t pos = node - leaves_;
        if (pos >= workers_.size())
            return nullptr;
        Worker *w = workers_[pos];
        // Exact guard: the subtree max is necessary, not sufficient.
        return w->canFit(need) ? w : nullptr;
    }
    if (Worker *w = descend(2 * node, need))
        return w;
    return descend(2 * node + 1, need);
}

Worker *
AvailabilityIndex::firstFit(const ResourceVector &need) const
{
    return descend(1, need);
}

size_t
AvailabilityIndex::capacityBytes() const
{
    return tree_.capacity() * sizeof(double) +
           workers_.capacity() * sizeof(Worker *);
}

BinPackScheduler::BinPackScheduler(std::vector<Worker *> workers)
    : workers_(std::move(workers))
{
    std::sort(workers_.begin(), workers_.end(),
              [](const Worker *a, const Worker *b) {
                  return a->id() < b->id();
              });
}

BinPackScheduler::~BinPackScheduler()
{
    if (indexed_) {
        for (Worker *w : workers_)
            w->setAvailabilityListener(nullptr, -1);
    }
}

void
BinPackScheduler::enableIndex()
{
    if (indexed_ || workers_.empty())
        return;
    index_.build(workers_);
    int max_id = 0;
    for (const Worker *w : workers_)
        max_id = std::max(max_id, w->id());
    pos_by_id_.assign(static_cast<size_t>(max_id) + 1, -1);
    for (size_t pos = 0; pos < workers_.size(); ++pos) {
        pos_by_id_[workers_[pos]->id()] = static_cast<int>(pos);
        workers_[pos]->setAvailabilityListener(this,
                                               static_cast<int>(pos));
    }
    indexed_ = true;
}

void
BinPackScheduler::refresh(Worker &worker)
{
    if (!indexed_)
        return;
    const int pos = pos_by_id_[worker.id()];
    WSVA_ASSERT(pos >= 0, "refresh() for an unindexed worker %d",
                worker.id());
    index_.update(pos);
}

void
BinPackScheduler::onWorkerAvailabilityChanged(Worker &worker, int tag)
{
    (void)worker;
    index_.update(tag);
}

Worker *
BinPackScheduler::pick(const ResourceVector &reservation)
{
    // First fit by worker number against the availability cache
    // (Figure 6: Worker 0 lacks decode resources -> Worker 1 takes
    // the request; fully idle trailing workers become stop
    // candidates). The indexed path returns the identical worker via
    // the segment tree.
    if (indexed_) {
        Worker *w = index_.firstFit(reservation);
        recordPick(w != nullptr);
        return w;
    }
    for (Worker *w : workers_) {
        if (w->canFit(reservation)) {
            recordPick(true);
            return w;
        }
    }
    recordPick(false);
    return nullptr;
}

int
BinPackScheduler::idleWorkers() const
{
    int idle = 0;
    for (const Worker *w : workers_)
        idle += w->idle();
    return idle;
}

SlotScheduler::SlotScheduler(std::vector<Worker *> workers,
                             ResourceVector slot_need)
    : workers_(std::move(workers)), slot_need_(slot_need)
{
    std::sort(workers_.begin(), workers_.end(),
              [](const Worker *a, const Worker *b) {
                  return a->id() < b->id();
              });
}

Worker *
SlotScheduler::pick(const ResourceVector &reservation)
{
    // The uniform cost model ignores the request's actual shape; it
    // only asks "is a slot free". The physical reservation is the
    // element-wise max of the slot bundle and the true request
    // (oversized steps still consume what they consume), so that is
    // what must fit — this is exactly the stranding the bin-packing
    // scheduler eliminates.
    for (Worker *w : workers_) {
        if (w->canFit(reservation)) {
            recordPick(true);
            return w;
        }
    }
    recordPick(false);
    return nullptr;
}

ResourceVector
SlotScheduler::reservationFor(const ResourceVector &need) const
{
    // Element-wise max of the slot bundle and the true request: a
    // big step still physically consumes what it consumes, and the
    // slot accounting wastes the rest.
    ResourceVector reservation = slot_need_;
    reservation.maxWith(need);
    return reservation;
}

} // namespace wsva::cluster
