package server

import (
	"testing"
)

// grabbed drains a waiter's ready channel without blocking.
func granted(w *waiter) bool {
	select {
	case <-w.ready:
		return true
	default:
		return false
	}
}

func TestAdmissionTenantCap(t *testing.T) {
	a := newAdmission(4, 8, 2)
	if !a.tryAcquire("a") || !a.tryAcquire("a") {
		t.Fatal("tenant a should get its first two slots")
	}
	if a.tryAcquire("a") {
		t.Fatal("tenant a must be capped at 2 running")
	}
	// Capacity remains for other tenants.
	if !a.tryAcquire("b") || !a.tryAcquire("b") {
		t.Fatal("tenant b should fill the remaining capacity")
	}
	if a.tryAcquire("c") {
		t.Fatal("capacity 4 is exhausted")
	}
	// Releasing an a-slot reopens a for a, not past its cap.
	a.release("a")
	if !a.tryAcquire("a") {
		t.Fatal("released slot should be reacquirable")
	}
}

func TestAdmissionRoundRobinAcrossTenants(t *testing.T) {
	a := newAdmission(1, 16, 1)
	if !a.tryAcquire("bulk") {
		t.Fatal("first slot")
	}
	// bulk floods the queue, then live joins behind it.
	b1 := a.enqueue("bulk")
	b2 := a.enqueue("bulk")
	l1 := a.enqueue("live")
	if b1 == nil || b2 == nil || l1 == nil {
		t.Fatal("waiters should queue")
	}
	// First release grants the tenant next in ring order (bulk queued
	// first): b1.
	a.release("bulk")
	if !granted(b1) || granted(b2) || granted(l1) {
		t.Fatalf("first grant should be b1 (b1=%v b2=%v l1=%v)", granted(b1), granted(b2), granted(l1))
	}
	// Round-robin: the next grant goes to live, NOT to bulk's second
	// waiter — that is the whole point of per-tenant queues.
	a.release("bulk")
	if !granted(l1) || granted(b2) {
		t.Fatal("second grant must rotate to the live tenant")
	}
	a.release("live")
	if !granted(b2) {
		t.Fatal("third grant drains bulk's remaining waiter")
	}
}

func TestAdmissionQueueCapSheds(t *testing.T) {
	a := newAdmission(1, 1, 1)
	if !a.tryAcquire("a") {
		t.Fatal("slot")
	}
	if a.enqueue("a") == nil {
		t.Fatal("first waiter fits the queue")
	}
	if a.enqueue("b") != nil {
		t.Fatal("queueCap 1 must refuse the second waiter")
	}
}

func TestAdmissionNoBargingPastOwnQueue(t *testing.T) {
	a := newAdmission(2, 8, 2)
	if !a.tryAcquire("a") || !a.tryAcquire("a") {
		t.Fatal("slots")
	}
	w := a.enqueue("a")
	if w == nil {
		t.Fatal("waiter")
	}
	// A newcomer must not slip into the released slot ahead of its own
	// tenant's queued waiter: the release hands the slot to the waiter.
	a.release("a")
	if !granted(w) {
		t.Fatal("release should grant the queued waiter")
	}
	if running, _ := a.snapshot(); running != 2 {
		t.Fatalf("running = %d, want 2 (grant reoccupied the slot)", running)
	}
	if a.tryAcquire("a") {
		t.Fatal("capacity is full again after the grant")
	}
}

func TestAdmissionAbandon(t *testing.T) {
	a := newAdmission(1, 8, 1)
	if !a.tryAcquire("a") {
		t.Fatal("slot")
	}
	w := a.enqueue("b")
	if !a.abandon(w) {
		t.Fatal("abandon before any grant should win")
	}
	// The abandoned waiter must not receive the next grant.
	a.release("a")
	if granted(w) {
		t.Fatal("abandoned waiter must not be granted")
	}
	running, queued := a.snapshot()
	if running != 0 || queued != 0 {
		t.Fatalf("snapshot = (%d, %d), want (0, 0)", running, queued)
	}

	// Grant-vs-abandon race, resolved in the grant's favor: abandon
	// reports false and the caller owns the slot.
	if !a.tryAcquire("a") {
		t.Fatal("slot")
	}
	w2 := a.enqueue("c")
	a.release("a") // dispatch grants w2
	if !granted(w2) {
		t.Fatal("w2 should be granted")
	}
	if a.abandon(w2) {
		t.Fatal("abandon after grant must report false (caller owns a slot)")
	}
}
