package runctx

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestHookEmitNilSafe(t *testing.T) {
	var h Hook
	h.Emit(Iteration{N: 1}) // must not panic
}

func TestWithHookComposes(t *testing.T) {
	var order []string
	ctx := WithHook(context.Background(), func(it Iteration) {
		order = append(order, fmt.Sprintf("first:%d", it.N))
	})
	ctx = WithHook(ctx, func(it Iteration) {
		order = append(order, fmt.Sprintf("second:%d", it.N))
	})
	HookFrom(ctx).Emit(Iteration{N: 7})
	if len(order) != 2 || order[0] != "first:7" || order[1] != "second:7" {
		t.Fatalf("hooks did not compose in order: %v", order)
	}
}

func TestWithHookNilIsNoop(t *testing.T) {
	ctx := context.Background()
	if got := WithHook(ctx, nil); got != ctx {
		t.Fatal("WithHook(nil) should return the context unchanged")
	}
	if HookFrom(ctx) != nil {
		t.Fatal("background context should carry no hook")
	}
	if HookFrom(nil) != nil { //nolint:staticcheck // nil tolerance is the contract
		t.Fatal("nil context should carry no hook")
	}
}

func TestMultiHookOrderAndNilHandling(t *testing.T) {
	if MultiHook() != nil || MultiHook(nil, nil) != nil {
		t.Fatal("MultiHook of no live hooks should be nil")
	}
	var single []int
	one := Hook(func(it Iteration) { single = append(single, it.N) })
	MultiHook(nil, one).Emit(Iteration{N: 3})
	if len(single) != 1 || single[0] != 3 {
		t.Fatalf("single live hook not returned unwrapped: %v", single)
	}

	var order []string
	mk := func(name string) Hook {
		return func(it Iteration) { order = append(order, fmt.Sprintf("%s:%d", name, it.N)) }
	}
	h := MultiHook(mk("a"), nil, mk("b"), mk("c"))
	h.Emit(Iteration{N: 5})
	want := []string{"a:5", "b:5", "c:5"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v (argument order)", order, want)
		}
	}
}

func TestMultiHookPanicReportedNotSwallowed(t *testing.T) {
	var before, after int
	h := MultiHook(
		func(Iteration) { before++ },
		func(Iteration) { panic("observer bug") },
		func(Iteration) { after++ },
	)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		h.Emit(Iteration{N: 1})
	}()
	if recovered == nil {
		t.Fatal("sub-hook panic was swallowed")
	}
	if msg, ok := recovered.(string); !ok || msg != "observer bug" {
		t.Fatalf("recovered %v, want the sub-hook's panic value", recovered)
	}
	if before != 1 || after != 1 {
		t.Fatalf("hooks around the panicking one fired %d/%d times, want 1/1", before, after)
	}
}

func TestErrNilTolerant(t *testing.T) {
	if err := Err(nil); err != nil { //nolint:staticcheck // nil tolerance is the contract
		t.Fatalf("Err(nil) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := Err(ctx); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	if !errors.Is(Err(ctx), context.Canceled) {
		t.Fatal("cancelled context not reported")
	}
}

func TestReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("estimator blew up"), ""},
		{context.Canceled, StopCancelled},
		{context.DeadlineExceeded, StopDeadline},
		{fmt.Errorf("wrapped: %w", context.Canceled), StopCancelled},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), StopDeadline},
	}
	for _, c := range cases {
		if got := Reason(c.err); got != c.want {
			t.Errorf("Reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestStopOf(t *testing.T) {
	if StopOf(true) != StopConverged || StopOf(false) != StopIterationCap {
		t.Fatal("StopOf mapping wrong")
	}
}
