package server

// Tenant-fair bounded admission: at most capacity requests running, at
// most queueCap waiting, overflow shed immediately. Waiters queue per
// tenant and are granted round-robin across tenants under a per-tenant
// running cap (tenantCap) — the scheduling rules live in internal/fairq,
// which the async job pool shares. With tenantCap == capacity (the
// default) and one tenant, the gate is plain FIFO. The tenant ID is free
// text from the X-Snad-Tenant header; absent means the "" tenant, so
// untagged traffic shares one fair slice instead of bypassing fairness.

import (
	"net/http"
	"sync"

	"repro/internal/fairq"
)

// TenantHeader carries the tenant ID on requests and job submissions
// (exported for the client and load harness).
const TenantHeader = "X-Snad-Tenant"

func tenantOf(r *http.Request) string { return r.Header.Get(TenantHeader) }

// waiter is one queued admission request. ready closes when the slot is
// granted.
type waiter struct {
	tenant string
	ready  chan struct{}
}

type admission struct {
	queueCap int

	mu sync.Mutex
	q  *fairq.Queue[*waiter]
}

func newAdmission(capacity, queueCap, tenantCap int) *admission {
	return &admission{queueCap: queueCap, q: fairq.New[*waiter](capacity, tenantCap)}
}

// tryAcquire takes a slot without waiting (see fairq.Queue.TryAcquire).
func (a *admission) tryAcquire(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.TryAcquire(tenant)
}

// enqueue registers a waiter, or returns nil when the wait queue is at
// queueCap (the caller sheds with 429).
func (a *admission) enqueue(tenant string) *waiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.q.Len() >= a.queueCap {
		return nil
	}
	w := &waiter{tenant: tenant, ready: make(chan struct{})}
	a.q.Push(tenant, w)
	// A slot may be free right now (e.g. other tenants capped); dispatch
	// so the new waiter doesn't wait for the next release.
	a.dispatchLocked()
	return w
}

// abandon withdraws a waiter whose request expired or was drained. It
// reports true when the waiter was still queued; false means the grant
// already happened and the caller owns a slot it must release.
func (a *admission) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.Remove(w.tenant, w)
}

// release returns a slot and dispatches the next waiter.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.q.Release(tenant)
	a.dispatchLocked()
}

// dispatchLocked grants every claimable waiter. Callers hold a.mu.
func (a *admission) dispatchLocked() {
	for {
		w, ok := a.q.Claim()
		if !ok {
			return
		}
		close(w.ready)
	}
}

// snapshot reports the gate's occupancy for /readyz and /metrics.
func (a *admission) snapshot() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.Running(), a.q.Len()
}
