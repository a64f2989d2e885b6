package delegation

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestWaitersShareOneWait drives every public waiter through the phases a
// future can complete in, relative to the wait: before the call, during the
// spin, during the sleep, with a typed error, and never (bounded waiters
// only). Each must return the value or the typed error, a still-pending
// future must come back as ErrWaitTimeout or the context's error, and the
// future must stay valid to wait on again.
func TestWaitersShareOneWait(t *testing.T) {
	pe := PanicError{Value: "boom"}
	waiters := []struct {
		name  string
		wait  func(f *Future, bound time.Duration) (any, error)
		ended error // what a still-pending future reports; nil = unbounded waiter
	}{
		{"Wait", func(f *Future, _ time.Duration) (any, error) {
			v := f.Wait()
			if err, ok := v.(error); ok {
				return nil, err
			}
			return v, nil
		}, nil},
		{"Result", func(f *Future, _ time.Duration) (any, error) { return f.Result() }, nil},
		{"WaitTimeout", func(f *Future, bound time.Duration) (any, error) { return f.WaitTimeout(bound) }, ErrWaitTimeout},
		{"WaitCtx", func(f *Future, bound time.Duration) (any, error) {
			ctx, cancel := context.WithTimeout(context.Background(), bound)
			defer cancel()
			return f.WaitCtx(ctx)
		}, context.DeadlineExceeded},
	}
	phases := []struct {
		name    string
		start   func(f *Future)
		wantErr error
		never   bool
	}{
		{"done before the call", func(f *Future) { f.complete(7) }, nil, false},
		{"done during the spin", func(f *Future) { go f.complete(7) }, nil, false},
		{"done during the sleep", func(f *Future) {
			time.AfterFunc(5*time.Millisecond, func() { f.complete(7) })
		}, nil, false},
		{"error completion", func(f *Future) { go f.completeErr(pe) }, pe, false},
		{"never done", func(*Future) {}, nil, true},
	}
	const long = 10 * time.Second
	for _, w := range waiters {
		for _, ph := range phases {
			if ph.never && w.ended == nil {
				continue // an unbounded waiter on a never-done future never returns
			}
			t.Run(w.name+"/"+ph.name, func(t *testing.T) {
				f := &Future{}
				ph.start(f)
				if ph.never {
					if v, err := w.wait(f, 20*time.Millisecond); v != nil || !errors.Is(err, w.ended) {
						t.Fatalf("pending future = (%v, %v), want %v", v, err, w.ended)
					}
					f.complete(7) // still valid: it completes and is waited on again
				} else if v, err := w.wait(f, long); !errors.Is(err, ph.wantErr) || (err == nil && v != 7) || (err != nil && v != nil) {
					t.Fatalf("= (%v, %v), want (7, nil) or (nil, %v)", v, err, ph.wantErr)
				}
				v, err := w.wait(f, long)
				if !errors.Is(err, ph.wantErr) || (err == nil && v != 7) {
					t.Fatalf("second wait = (%v, %v)", v, err)
				}
			})
		}
	}
}

// TestCompletedWaitZeroAlloc pins the bounded waiters' fast path: waiting on
// an already-completed future allocates nothing.
func TestCompletedWaitZeroAlloc(t *testing.T) {
	var f Future
	f.complete(7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, wait := range map[string]func() (any, error){
		"WaitTimeout":          func() (any, error) { return f.WaitTimeout(time.Second) },
		"WaitCtx(Background)":  func() (any, error) { return f.WaitCtx(context.Background()) },
		"WaitCtx(cancellable)": func() (any, error) { return f.WaitCtx(ctx) },
		"WaitTimeout(zero)":    func() (any, error) { return f.WaitTimeout(0) },
	} {
		if n := testing.AllocsPerRun(1000, func() {
			if v, err := wait(); v != 7 || err != nil {
				t.Fatalf("%s = (%v, %v)", name, v, err)
			}
		}); n != 0 {
			t.Errorf("%s on a completed future allocates %.1f objects/op, want 0", name, n)
		}
	}
}
