package fairq

import "testing"

// claimAll claims until the queue refuses, returning the items in claim
// order.
func claimAll(q *Queue[string]) []string {
	var out []string
	for {
		item, ok := q.Claim()
		if !ok {
			return out
		}
		out = append(out, item)
	}
}

func wantOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("claim order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order = %v, want %v", got, want)
		}
	}
}

// ringState reports the ring length and whether any tenant holds more
// than one slot in it (a duplicate slot hands that tenant extra turns
// and grows the ring without bound).
func ringState(q *Queue[string]) (size int, dup bool) {
	seen := make(map[string]bool, len(q.ring))
	for _, t := range q.ring {
		if seen[t] {
			dup = true
		}
		seen[t] = true
	}
	return len(q.ring), dup
}

// TestRoundRobinClaimOrder pins the dispatch order: a tenant's backlog
// queued ahead of another tenant's items is interleaved with them, not
// drained first, and each tenant's own items stay in FIFO order.
func TestRoundRobinClaimOrder(t *testing.T) {
	q := New[string](8, 8)
	for _, it := range []string{"a1", "a2", "a3"} {
		q.Push("a", it)
	}
	q.Push("b", "b1")
	q.Push("c", "c1")
	q.Push("b", "b2")
	wantOrder(t, claimAll(q), "a1", "b1", "c1", "a2", "b2", "a3")
	if q.Len() != 0 || q.Running() != 6 {
		t.Fatalf("len=%d running=%d after claiming everything, want 0 and 6", q.Len(), q.Running())
	}
}

// TestTenantCapAndCapacity pins the running caps: a tenant at its cap
// is skipped, not waited on, and the global capacity bounds every claim.
func TestTenantCapAndCapacity(t *testing.T) {
	q := New[string](3, 1)
	q.Push("a", "a1")
	q.Push("a", "a2")
	q.Push("b", "b1")
	// a2 waits for a's own slot although capacity remains.
	wantOrder(t, claimAll(q), "a1", "b1")
	q.Push("c", "c1")
	wantOrder(t, claimAll(q), "c1")
	// Capacity 3 is full: even an uncapped tenant waits.
	q.Push("d", "d1")
	if _, ok := q.Claim(); ok {
		t.Fatal("claim past capacity")
	}
	// A freed slot goes past the still-capped a to d.
	q.Release("b")
	wantOrder(t, claimAll(q), "d1")
	q.Release("a")
	wantOrder(t, claimAll(q), "a2")
	if q.TryAcquire("e") {
		t.Fatal("TryAcquire past capacity")
	}
}

// TestCapClamp pins the normalization: zero, negative, and
// over-capacity caps all mean capacity.
func TestCapClamp(t *testing.T) {
	for _, cap := range []int{0, -3, 99} {
		q := New[string](2, cap)
		if q.tenantCap != 2 {
			t.Fatalf("tenantCap %d should clamp to capacity 2, got %d", cap, q.tenantCap)
		}
		if !q.TryAcquire("a") || !q.TryAcquire("a") || q.TryAcquire("a") {
			t.Fatalf("tenantCap %d: one tenant should get exactly the 2 slots", cap)
		}
	}
}

// TestNoBargingPastOwnQueue: TryAcquire refuses a tenant with queued
// items even when a slot is free, so a newcomer cannot overtake its own
// tenant's waiters; other tenants are unaffected.
func TestNoBargingPastOwnQueue(t *testing.T) {
	q := New[string](2, 2)
	if !q.TryAcquire("a") || !q.TryAcquire("a") {
		t.Fatal("slots")
	}
	q.Push("a", "a1")
	q.Release("a")
	if q.TryAcquire("a") {
		t.Fatal("a newcomer took the slot ahead of its tenant's queued item")
	}
	wantOrder(t, claimAll(q), "a1")
	q.Release("a")
	if !q.TryAcquire("b") {
		t.Fatal("another tenant should take the free slot")
	}
}

// TestRemoveAndAbandon: a removed item is never claimed, removing an
// item twice (or after its claim) reports false, and removing a
// tenant's last item takes the tenant out of the ring.
func TestRemoveAndAbandon(t *testing.T) {
	q := New[string](1, 1)
	q.Push("a", "a1")
	q.Push("a", "a2")
	q.Push("b", "b1")
	if !q.Remove("a", "a1") {
		t.Fatal("remove of a queued item failed")
	}
	if q.Remove("a", "a1") {
		t.Fatal("second remove of the same item succeeded")
	}
	if !q.Remove("b", "b1") {
		t.Fatal("remove of b's only item failed")
	}
	if size, _ := ringState(q); size != 1 {
		t.Fatalf("ring size %d after b drained by removal, want 1", size)
	}
	if _, ok := q.queues["b"]; ok {
		t.Fatal("drained tenant left a queues entry behind")
	}
	if item, ok := q.Claim(); !ok || item != "a2" {
		t.Fatalf("claim = %q/%v, want a2", item, ok)
	}
	if q.runningBy["a"] != 1 {
		t.Fatalf("claim charged %v, want one slot to a", q.runningBy)
	}
	if q.Remove("a", "a2") {
		t.Fatal("remove after claim succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d, want 0", q.Len())
	}
	// Removing an item behind the rotation point keeps the rotation
	// on the tenant it was about to serve.
	q.Release("a")
	q = New[string](1, 1)
	for _, tn := range []string{"x", "y", "z"} {
		q.Push(tn, tn+"1")
		q.Push(tn, tn+"2")
	}
	wantOrder(t, claimAll(q), "x1")
	q.Release("x")
	q.Remove("x", "x2") // x leaves the ring from behind rr
	wantOrder(t, claimAll(q), "y1")
}

// TestRingStableUnderChurn is the regression test for ring growth under
// drain-then-refill churn: a tenant whose queue empties, by claim or by
// removal, leaves the ring at once, so steady churn never grows the ring
// or gives a tenant a duplicate slot.
func TestRingStableUnderChurn(t *testing.T) {
	q := New[string](1, 1)
	if !q.TryAcquire("") {
		t.Fatal("slot")
	}
	for i := 0; i < 100; i++ {
		q.Push("", "w")
		q.Release("")
		if _, ok := q.Claim(); !ok {
			t.Fatalf("cycle %d: queued item not claimed", i)
		}
		if size, dup := ringState(q); size > 0 || dup {
			t.Fatalf("cycle %d: ring size %d (dup=%v), want empty", i, size, dup)
		}
	}
	for i := 0; i < 100; i++ {
		q.Push("t", "w")
		if !q.Remove("t", "w") {
			t.Fatalf("removal cycle %d: remove failed", i)
		}
		if size, dup := ringState(q); size > 0 || dup {
			t.Fatalf("removal cycle %d: ring size %d (dup=%v)", i, size, dup)
		}
	}
	// Fairness still intact after churn.
	q.Push("", "w1")
	q.Push("live", "l1")
	q.Release("")
	wantOrder(t, claimAll(q), "w1")
	q.Release("")
	wantOrder(t, claimAll(q), "l1")
}
