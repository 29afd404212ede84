package driver

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nvbitgo/internal/sass"
)

// admitAsync queues an Admit on a goroutine and returns a channel that
// yields its result once the gate lets it through (or sheds it).
func admitAsync(g *Gate, tenant uint64) chan error {
	done := make(chan error, 1)
	go func() { done <- g.Admit(tenant) }()
	return done
}

// waitDepth blocks until the gate's wait queue reaches n (admissions queue
// asynchronously).
func waitDepth(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("wait queue stuck at %d, want %d", g.Waiting(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGateExclusiveOwnership(t *testing.T) {
	g := NewGate(DefaultQueueLimit)
	if err := g.Admit(1); err != nil {
		t.Fatal(err)
	}
	second := admitAsync(g, 2)
	waitDepth(t, g, 1)
	select {
	case <-second:
		t.Fatal("second tenant admitted while first owned the device")
	default:
	}
	g.Release(1, 10)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	g.Release(2, 10)
	if g.Waiting() != 0 {
		t.Fatalf("waiters left: %d", g.Waiting())
	}
}

func TestGateFairShareLeastCostFirst(t *testing.T) {
	g := NewGate(DefaultQueueLimit)
	// Pre-charge costs: tenant 2 is the cheapest, then 3, then 1.
	for _, c := range []struct {
		tenant uint64
		cycles uint64
	}{{1, 300}, {2, 100}, {3, 200}} {
		if err := g.Admit(c.tenant); err != nil {
			t.Fatal(err)
		}
		g.Release(c.tenant, c.cycles)
	}

	if err := g.Admit(99); err != nil { // hold the gate
		t.Fatal(err)
	}
	// Queue in reverse-cost order so FIFO would be wrong.
	d1 := admitAsync(g, 1)
	waitDepth(t, g, 1)
	d3 := admitAsync(g, 3)
	waitDepth(t, g, 2)
	d2 := admitAsync(g, 2)
	waitDepth(t, g, 3)

	expect := func(want chan error, others ...chan error) {
		t.Helper()
		select {
		case err := <-want:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("expected waiter not admitted")
		}
		for _, o := range others {
			select {
			case <-o:
				t.Fatal("wrong waiter admitted")
			default:
			}
		}
	}

	g.Release(99, 0)
	expect(d2, d1, d3) // least accumulated cost goes first
	g.Release(2, 0)
	expect(d3, d1)
	g.Release(3, 0)
	expect(d1)
	g.Release(1, 0)
}

func TestGateFIFOAmongTies(t *testing.T) {
	g := NewGate(DefaultQueueLimit)
	if err := g.Admit(99); err != nil {
		t.Fatal(err)
	}
	// Three zero-cost tenants queue in order 5, 6, 7.
	d5 := admitAsync(g, 5)
	waitDepth(t, g, 1)
	d6 := admitAsync(g, 6)
	waitDepth(t, g, 2)
	d7 := admitAsync(g, 7)
	waitDepth(t, g, 3)

	order := []chan error{d5, d6, d7}
	tenants := []uint64{5, 6, 7}
	g.Release(99, 0)
	for i, d := range order {
		select {
		case err := <-d:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tie-break admitted out of FIFO order at position %d", i)
		}
		for _, later := range order[i+1:] {
			select {
			case <-later:
				t.Fatalf("later waiter admitted before position %d", i)
			default:
			}
		}
		g.Release(tenants[i], 0)
	}
}

func TestGateShedsTypedAtLimit(t *testing.T) {
	g := NewGate(1)
	if err := g.Admit(1); err != nil {
		t.Fatal(err)
	}
	queued := admitAsync(g, 2)
	waitDepth(t, g, 1)

	err := g.Admit(3) // queue is full: shed synchronously
	if err == nil {
		t.Fatal("admit beyond the queue limit succeeded")
	}
	if !errors.Is(err, ErrDeviceOverloaded) {
		t.Fatalf("shed error is not ErrDeviceOverloaded: %v", err)
	}
	ov, ok := AsOverload(err)
	if !ok {
		t.Fatalf("shed error is not an OverloadError: %v", err)
	}
	if ov.Tenant != 3 || ov.Waiting != 1 || ov.Limit != 1 {
		t.Fatalf("overload fields = %+v, want Tenant 3, Waiting 1, Limit 1", ov)
	}

	g.Release(1, 0)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	g.Release(2, 0)
}

func TestGateZeroLimitRejectsWhenBusy(t *testing.T) {
	g := NewGate(0)
	if err := g.Admit(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(2); err == nil {
		t.Fatal("zero-limit gate queued a waiter")
	} else if _, ok := AsOverload(err); !ok {
		t.Fatalf("rejection is not typed: %v", err)
	}
	g.Release(1, 0)
	// Idle again: admission succeeds.
	if err := g.Admit(2); err != nil {
		t.Fatal(err)
	}
	g.Release(2, 0)
}

func TestGateSetQueueLimit(t *testing.T) {
	g := NewGate(0)
	g.SetQueueLimit(2)
	if err := g.Admit(1); err != nil {
		t.Fatal(err)
	}
	a := admitAsync(g, 2)
	waitDepth(t, g, 1)
	b := admitAsync(g, 3)
	waitDepth(t, g, 2)
	if err := g.Admit(4); err == nil {
		t.Fatal("admit beyond the retuned limit succeeded")
	}
	g.Release(1, 0)
	<-a
	g.Release(2, 0)
	<-b
	g.Release(3, 0)

	g.SetQueueLimit(-5) // clamps to zero
	if err := g.Admit(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(2); err == nil {
		t.Fatal("negative limit did not clamp to zero")
	}
	g.Release(1, 0)
}

func TestGateCostAccounting(t *testing.T) {
	g := NewGate(DefaultQueueLimit)
	for i := 0; i < 3; i++ {
		if err := g.Admit(7); err != nil {
			t.Fatal(err)
		}
		g.Release(7, 50)
	}
	if got := g.Cost(7); got != 150 {
		t.Fatalf("Cost(7) = %d, want 150", got)
	}
	if got := g.Cost(8); got != 0 {
		t.Fatalf("Cost(8) = %d, want 0", got)
	}
}

// TestGateStress hammers the gate from many tenants under -race: exactly
// one owner at a time, no lost wakeups.
func TestGateStress(t *testing.T) {
	g := NewGate(DefaultQueueLimit)
	var owners int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tenant := uint64(1); tenant <= 8; tenant++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.Admit(tenant); err != nil {
					t.Errorf("tenant %d: %v", tenant, err)
					return
				}
				mu.Lock()
				owners++
				if owners != 1 {
					t.Errorf("%d concurrent owners", owners)
				}
				owners--
				mu.Unlock()
				g.Release(tenant, 1)
			}
		}()
	}
	wg.Wait()
	if g.Waiting() != 0 {
		t.Fatalf("waiters left: %d", g.Waiting())
	}
	for tenant := uint64(1); tenant <= 8; tenant++ {
		if got := g.Cost(tenant); got != 200 {
			t.Fatalf("tenant %d cost = %d, want 200", tenant, got)
		}
	}
}

// TestGateForgetsFinishedScopes: every scope that takes the gate gets a cost
// entry, and forgetting the scope removes it, so scopes that come and go
// leave the gate the size it was.
func TestGateForgetsFinishedScopes(t *testing.T) {
	a := newAPI(t, sass.Volta)
	g := a.Gate()
	base := len(g.cost)
	for i := 0; i < 1000; i++ {
		scope := a.NewScope()
		if _, err := scope.CtxCreate(); err != nil {
			t.Fatal(err)
		}
		if _, ok := g.cost[scope.ID]; !ok {
			t.Fatalf("scope %d took the gate but has no cost entry", scope.ID)
		}
		g.Forget(scope.ID)
	}
	if got := len(g.cost); got != base {
		t.Fatalf("%d cost entries after 1000 forgotten scopes, want %d", got, base)
	}
}
