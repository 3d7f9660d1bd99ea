package exec

import (
	"context"
	"errors"
	"testing"
)

// countingCtx counts its Err calls, one per Governor checkpoint, and is
// canceled from its cancelAt-th call on (never when cancelAt is 0).
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// FuzzGovernorCharge: charge(n) is n calls of tick. A program of
// charges and single ticks runs against a Governor that charges only
// by ticking, under a random work budget and a context canceled at a
// random checkpoint; after every step both must agree on the work,
// the countdown to the next checkpoint, the sticky error, the number of
// checkpoints and the error returned.
func FuzzGovernorCharge(f *testing.F) {
	f.Add(int64(0), uint8(0), []byte{0x00, 0x10, 0x01, 0xff, 0xff, 0x02})
	f.Add(int64(1024), uint8(0), []byte{0x0f, 0xfe, 0x00, 0x00, 0x00, 0x07})
	f.Add(int64(3000), uint8(2), []byte{0x40, 0x01, 0x40, 0x00, 0x3f, 0xff, 0x00, 0x01})
	f.Add(int64(1), uint8(0), []byte{0x00, 0x03})
	f.Add(int64(3020), uint8(0), []byte{0x30, 0x01}) // one charge of 3071 rows trips two boundaries in
	f.Add(int64(16001), uint8(9), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, budget int64, cancelAt uint8, prog []byte) {
		if budget < 0 {
			budget = -budget
		}
		budget %= 1 << 16
		bulkCtx := &countingCtx{Context: context.Background(), cancelAt: int(cancelAt % 16)}
		tickCtx := &countingCtx{Context: context.Background(), cancelAt: int(cancelAt % 16)}
		bulk := NewGovernor(bulkCtx, Options{MaxIntermediateRows: budget})
		ticks := NewGovernor(tickCtx, Options{MaxIntermediateRows: budget})
		for len(prog) >= 2 {
			// An even word ticks once; an odd one charges up to
			// three boundaries' worth of rows, zero included.
			w := int64(prog[0])<<8 | int64(prog[1])
			prog = prog[2:]
			var got, want error
			if w%2 == 0 {
				got, want = bulk.tick(), ticks.tick()
			} else {
				n := (w >> 1) % (3*DefaultCheckEvery + 1)
				got = bulk.charge(n)
				for range n {
					if err := ticks.tick(); want == nil {
						want = err
					}
				}
			}
			if bulk.work != ticks.work || bulk.sinceCheck != ticks.sinceCheck || bulkCtx.calls != tickCtx.calls {
				t.Fatalf("after word %#x: work %d, countdown %d, %d checkpoints; ticking gives %d, %d, %d",
					w, bulk.work, bulk.sinceCheck, bulkCtx.calls, ticks.work, ticks.sinceCheck, tickCtx.calls)
			}
			if !sameErr(got, want) || !sameErr(bulk.stopErr, ticks.stopErr) {
				t.Fatalf("after word %#x: error %v, sticky %v; ticking gives %v, %v", w, got, bulk.stopErr, want, ticks.stopErr)
			}
			if budget > 0 && bulk.work > budget+1 {
				t.Fatalf("work %d past budget %d+1", bulk.work, budget)
			}
		}
	})
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrWorkBudgetExceeded) == errors.Is(b, ErrWorkBudgetExceeded)
}
