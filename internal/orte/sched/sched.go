// Package sched is the HNP's multi-job checkpoint scheduler: a
// start-time fair queuing (SFQ) discipline over per-flow FIFOs, used by
// the drain pipeline to rate-limit simultaneous drains so a checkpoint
// storm from one job cannot saturate stable-store ingress and starve
// its neighbors.
//
// Each flow is one checkpoint lineage (one job's global snapshot
// directory). Within a flow, order is strict FIFO and at most one item
// is in service at a time — the drain pipeline's invariant that a
// lineage's intervals commit in capture order is preserved by
// construction. Across flows, service is proportional to weight: each
// item is stamped with a virtual start tag max(V, flow's last finish)
// and a finish tag start + cost/weight; dispatch picks the eligible
// item with the smallest start tag and advances the virtual clock V to
// it. A flow with weight w receives a w-proportional share of drain
// bandwidth when backlogged, and an idle flow accumulates no credit
// (SFQ, unlike raw virtual-clock, does not punish a flow for having
// been quiet).
//
// The Queue is deliberately not self-synchronizing: the drain pipeline
// already serializes admission and dispatch under its own mutex, and a
// second lock here would only invite ordering bugs. Callers must hold
// their own lock around every method.
package sched

import "sort"

// Item is one schedulable unit of work.
type Item struct {
	// Key names the flow (checkpoint lineage) the item belongs to.
	Key string
	// Cost is the service demand in arbitrary units (bytes, for
	// drains); it is clamped to at least 1 so zero-byte intervals still
	// advance the virtual clock.
	Cost int64
	// Weight is the flow's QoS weight at enqueue time (clamped to at
	// least 1). Raising a flow's weight affects items enqueued after
	// the change.
	Weight int
	// Payload is the caller's work descriptor, returned by Pop.
	Payload any

	start, finish float64
}

// FlowState is one flow's introspection snapshot.
type FlowState struct {
	Key        string
	Weight     int   // weight of the most recently enqueued item
	Queued     int   // items waiting (excluding the one in service)
	Busy       bool  // an item of this flow is in service
	ServedCost int64 // total cost dispatched so far
	QueuedCost int64 // total cost waiting
}

type flow struct {
	items      []*Item
	lastFinish float64
	weight     int
	busy       bool
	served     int64
	queuedCost int64
}

// Queue is the SFQ scheduler state. The zero value is not usable; call
// New.
type Queue struct {
	flows map[string]*flow
	virt  float64
	size  int
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{flows: make(map[string]*flow)}
}

// Len returns the number of queued (not yet dispatched) items.
func (q *Queue) Len() int { return q.size }

// Push enqueues an item at the tail of its flow, stamping its virtual
// tags from the current clock and the flow's service history.
func (q *Queue) Push(it Item) {
	if it.Cost < 1 {
		it.Cost = 1
	}
	if it.Weight < 1 {
		it.Weight = 1
	}
	f := q.flows[it.Key]
	if f == nil {
		f = &flow{}
		q.flows[it.Key] = f
	}
	f.weight = it.Weight
	it.start = q.virt
	if f.lastFinish > it.start {
		it.start = f.lastFinish
	}
	it.finish = it.start + float64(it.Cost)/float64(it.Weight)
	f.lastFinish = it.finish
	f.items = append(f.items, &it)
	f.queuedCost += it.Cost
	q.size++
}

// Pop dispatches the eligible item with the smallest virtual start tag
// (ties broken by key for determinism) and marks its flow busy. It
// returns ok=false when no flow is eligible — either the queue is empty
// or every backlogged flow already has an item in service; the caller
// waits for a Done or Push. The caller must call Done(item.Key) when
// service completes.
func (q *Queue) Pop() (Item, bool) {
	var best *flow
	bestKey := ""
	for key, f := range q.flows {
		if f.busy || len(f.items) == 0 {
			continue
		}
		head := f.items[0]
		if best == nil || head.start < best.items[0].start ||
			(head.start == best.items[0].start && key < bestKey) {
			best, bestKey = f, key
		}
	}
	return q.dispatch(best)
}

// ExpressPop dispatches the eligible head item whose weight strictly
// exceeds minWeight, preferring the heaviest (ties broken by smaller
// start tag, then key). It is the low-latency-queuing escape hatch on
// top of the fair order: Pop serves by virtual start tag regardless of
// weight, so a high-weight arrival can sit behind a backlog of earlier
// light items — ExpressPop lets a caller with spare express capacity
// pull it out. ok=false when no eligible head qualifies. The caller
// must call Done(item.Key) when service completes, exactly as for Pop.
func (q *Queue) ExpressPop(minWeight int) (Item, bool) {
	var best *flow
	bestKey := ""
	for key, f := range q.flows {
		if f.busy || len(f.items) == 0 {
			continue
		}
		head := f.items[0]
		if head.Weight <= minWeight {
			continue
		}
		if best == nil || head.Weight > best.items[0].Weight ||
			(head.Weight == best.items[0].Weight && (head.start < best.items[0].start ||
				(head.start == best.items[0].start && key < bestKey))) {
			best, bestKey = f, key
		}
	}
	return q.dispatch(best)
}

// dispatch serves the head item of best (nil: nothing eligible): the
// flow turns busy and the virtual clock advances to the item's start.
func (q *Queue) dispatch(best *flow) (Item, bool) {
	if best == nil {
		return Item{}, false
	}
	it := best.items[0]
	best.items = best.items[1:]
	best.busy = true
	best.served += it.Cost
	best.queuedCost -= it.Cost
	q.size--
	if it.start > q.virt {
		q.virt = it.start
	}
	return *it, true
}

// Done marks the flow's in-service item complete, making its next item
// eligible for dispatch.
func (q *Queue) Done(key string) {
	if f := q.flows[key]; f != nil {
		f.busy = false
	}
}

// QueuedFor returns the number of waiting items in one flow.
func (q *Queue) QueuedFor(key string) int {
	if f := q.flows[key]; f != nil {
		return len(f.items)
	}
	return 0
}

// DrainAll removes and returns every queued item in dispatch-tag order,
// ignoring busy flags — used to fail pending work wholesale when the
// coordinator crashes. Flows' service history is preserved.
func (q *Queue) DrainAll() []Item {
	out := make([]Item, 0, q.size)
	for _, f := range q.flows {
		for _, it := range f.items {
			out = append(out, *it)
		}
		f.items = nil
		f.queuedCost = 0
	}
	q.size = 0
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Flows returns a deterministic (key-sorted) snapshot of every flow
// that has ever enqueued, for the control plane's scheduler view.
func (q *Queue) Flows() []FlowState {
	keys := make([]string, 0, len(q.flows))
	for k := range q.flows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]FlowState, 0, len(keys))
	for _, k := range keys {
		f := q.flows[k]
		out = append(out, FlowState{
			Key: k, Weight: f.weight, Queued: len(f.items),
			Busy: f.busy, ServedCost: f.served, QueuedCost: f.queuedCost,
		})
	}
	return out
}
