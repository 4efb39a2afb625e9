// Package fairq is snad's one tenant-fair queue, shared by the
// interactive admission gate (internal/server) and the async job pool
// (internal/jobs): per-tenant FIFO queues, round-robin claims across the
// tenants with queued items, a global running capacity, a per-tenant
// running cap, and explicit removal of a queued item (an expired
// request, a canceled job).
//
// The ring holds exactly the tenants with queued items: a tenant joins
// with its first item and leaves the moment its queue empties, by claim
// or by removal, so the ring never outgrows the set of waiting tenants.
//
// A Queue is not safe for concurrent use: each gate guards it with the
// lock that already guards the gate's own state.
package fairq

// Queue is a tenant-fair queue of items of type T. Create one with New.
type Queue[T comparable] struct {
	capacity  int
	tenantCap int

	running   int
	runningBy map[string]int
	queued    int
	queues    map[string][]T
	// ring lists the tenants with queued items; claims rotate over it
	// starting at rr.
	ring []string
	rr   int
}

// New returns an empty queue that lets at most capacity claims run at
// once, at most tenantCap of them for one tenant. A tenantCap of zero,
// below zero, or above capacity means capacity.
func New[T comparable](capacity, tenantCap int) *Queue[T] {
	if tenantCap <= 0 || tenantCap > capacity {
		tenantCap = capacity
	}
	return &Queue[T]{
		capacity:  capacity,
		tenantCap: tenantCap,
		runningBy: make(map[string]int),
		queues:    make(map[string][]T),
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.queued }

// Running returns the number of running slots charged.
func (q *Queue[T]) Running() int { return q.running }

// Push appends item to tenant's queue.
func (q *Queue[T]) Push(tenant string, item T) {
	if len(q.queues[tenant]) == 0 {
		q.ring = append(q.ring, tenant)
	}
	q.queues[tenant] = append(q.queues[tenant], item)
	q.queued++
}

// Remove withdraws a queued item. It reports false when item is not in
// tenant's queue (already claimed, or never pushed).
func (q *Queue[T]) Remove(tenant string, item T) bool {
	for i, x := range q.queues[tenant] {
		if x == item {
			q.drop(tenant, i)
			return true
		}
	}
	return false
}

// TryAcquire charges tenant a running slot without queueing. It fails
// when capacity is exhausted, the tenant is at its cap, or the tenant
// already has queued items: a newcomer never barges past its own
// tenant's queue.
func (q *Queue[T]) TryAcquire(tenant string) bool {
	if q.running >= q.capacity || q.runningBy[tenant] >= q.tenantCap || len(q.queues[tenant]) > 0 {
		return false
	}
	q.acquire(tenant)
	return true
}

// Claim takes the next item round-robin across tenants, skipping
// tenants at their running cap, and charges its tenant a running slot.
// ok is false when capacity is exhausted or every tenant with queued
// items is at its cap; a later Release may make a claim possible.
func (q *Queue[T]) Claim() (item T, ok bool) {
	if q.running >= q.capacity {
		return item, false
	}
	for scanned := 0; scanned < len(q.ring); scanned++ {
		t := q.ring[q.rr]
		if q.runningBy[t] >= q.tenantCap {
			q.rr = (q.rr + 1) % len(q.ring)
			continue
		}
		item = q.queues[t][0]
		if len(q.queues[t]) > 1 {
			q.rr = (q.rr + 1) % len(q.ring)
		}
		// Taking a tenant's last item drops it from the ring with rr
		// left in place: the next tenant slides into its index.
		q.drop(t, 0)
		q.acquire(t)
		return item, true
	}
	return item, false
}

// Release returns a running slot charged by TryAcquire or Claim.
func (q *Queue[T]) Release(tenant string) {
	q.running--
	if n := q.runningBy[tenant] - 1; n > 0 {
		q.runningBy[tenant] = n
	} else {
		delete(q.runningBy, tenant)
	}
}

func (q *Queue[T]) acquire(tenant string) {
	q.running++
	q.runningBy[tenant]++
}

// drop deletes the i-th item of tenant's queue. A tenant whose queue
// empties leaves the ring; rr keeps pointing at the same next tenant.
func (q *Queue[T]) drop(tenant string, i int) {
	items := q.queues[tenant]
	q.queued--
	switch {
	case len(items) > 1 && i == 0:
		q.queues[tenant] = items[1:]
		return
	case len(items) > 1:
		q.queues[tenant] = append(items[:i], items[i+1:]...)
		return
	}
	delete(q.queues, tenant)
	for k, t := range q.ring {
		if t == tenant {
			q.ring = append(q.ring[:k], q.ring[k+1:]...)
			if k < q.rr {
				q.rr--
			}
			break
		}
	}
	if q.rr >= len(q.ring) {
		q.rr = 0
	}
}
