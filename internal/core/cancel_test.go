package core

import (
	"context"
	"errors"
	"testing"
)

// TestForEachIndexedCancellation pins the pool's cancellation contract:
// a pre-cancelled context runs nothing, a context cancelled mid-run on
// the sequential path stops after the item that cancelled it, and the
// returned error is exactly the context's.
func TestForEachIndexedCancellation(t *testing.T) {
	t.Run("pre-cancelled runs nothing", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := 0
			err := forEachIndexed(ctx, workers, 100, nil, func(i int) { ran++ })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
			}
			if ran != 0 {
				t.Fatalf("workers=%d: ran %d items on a cancelled context", workers, ran)
			}
		}
	})
	t.Run("sequential cancel stops deterministically", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		err := forEachIndexed(ctx, 1, 100, nil, func(i int) {
			ran++
			if i == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		// The check runs before each claim: item 5 cancels, item 6 never
		// starts.
		if ran != 6 {
			t.Fatalf("ran %d items, want exactly 6", ran)
		}
	})
	t.Run("uncancelled runs everything", func(t *testing.T) {
		var hit [50]bool
		if err := forEachIndexed(context.Background(), 4, len(hit), nil, func(i int) { hit[i] = true }); err != nil {
			t.Fatal(err)
		}
		for i, ok := range hit {
			if !ok {
				t.Fatalf("item %d never ran", i)
			}
		}
	})
}

// TestPartitionCancelled drives cancellation through the public API: a
// cancelled context surfaces context.Canceled from the full pipeline,
// identically for any worker count (the satellite determinism contract —
// no partial fold ever masks the cancellation).
func TestPartitionCancelled(t *testing.T) {
	in, _ := custInfoInput(t, 200)
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := Partition(ctx, in, Options{K: 2, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestPhase3Cancelled cancels between phases: phase2 completes, phase3
// must refuse to fold half-costed candidates and report the cancellation.
func TestPhase3Cancelled(t *testing.T) {
	in, _ := custInfoInput(t, 200)
	p, err := New(in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := p.phase1()
	if err != nil {
		t.Fatal(err)
	}
	classes, err := p.phase2(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.phase3(ctx, pre, classes); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
