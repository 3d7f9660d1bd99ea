package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/memo"
)

// Options bounds one execution. The zero value applies no limits — the
// legacy "run to completion" contract — so library callers opt in per
// call while the HTTP layer enforces its own server-side defaults.
type Options struct {
	// Timeout is the wall-clock budget for the whole execution, enforced
	// cooperatively by the Governor (checked every DefaultCheckEvery
	// rows). Zero means no deadline beyond what ctx carries.
	Timeout time.Duration

	// MaxRows caps the number of output rows materialized into the
	// Result. Reaching it is not an error: the Result comes back with
	// Stats.Truncated set and Reason ReasonRowLimit. Zero = unlimited.
	MaxRows int64

	// MaxIntermediateRows caps the total number of rows flowing through
	// all operators of the plan (the Governor's work budget) — the
	// defense against adversarially bad sampled plans whose intermediate
	// results explode long before any output row appears. Zero =
	// unlimited.
	MaxIntermediateRows int64
}

// DefaultCheckEvery is the cooperative cancellation interval: the
// Governor consults the clock and ctx.Err() once per this many
// intermediate rows — frequent enough that a runaway cross product dies
// within microseconds of its deadline, rare enough that time.Now is
// invisible in the per-row cost.
const DefaultCheckEvery = 1024

// Truncation reasons recorded in ExecStats.Reason and returned verbatim
// by the HTTP layer.
const (
	ReasonRowLimit   = "row_limit"
	ReasonDeadline   = "deadline_exceeded"
	ReasonWorkBudget = "work_budget_exceeded"
	ReasonCanceled   = "canceled"
)

// Sentinel errors the Governor injects into the iterator tree. They
// surface to RunWithOptions, which converts them into a truncated
// Result rather than a failure; any other error is a genuine execution
// fault and propagates.
var (
	ErrDeadlineExceeded   = errors.New("exec: deadline exceeded")
	ErrWorkBudgetExceeded = errors.New("exec: intermediate row budget exceeded")
)

// OpStats is one operator's execution counters: the rows it produced
// and how many times it was opened. Rows an operator examined but
// filtered out (scan predicates, join candidates failing the residual
// predicate) charge the Governor's work budget without appearing in any
// counter.
//
// Opens matters for the adaptive feedback loop: a nested-loop join
// re-opens its inner child once per outer row, so the inner subtree's
// Rows counter accumulates across rescans — Rows/Opens is the observed
// per-execution cardinality, directly comparable to the optimizer's
// estimate for the operator's group (identified by Group, the
// memo.Group ID).
type OpStats struct {
	Name  string `json:"name"`  // paper-style "group.local"
	Op    string `json:"op"`    // operator with payload, e.g. "HashJoin[2 preds]"
	Group int    `json:"group"` // memo group ID (estimates are per group)
	Rows  int64  `json:"rows"`
	Opens int64  `json:"opens"`
}

// ObservedRows returns the operator's per-open output cardinality —
// the quantity the feedback loop compares against the estimate.
func (s *OpStats) ObservedRows() float64 {
	opens := s.Opens
	if opens < 1 {
		opens = 1
	}
	return float64(s.Rows) / float64(opens)
}

// Governor is the shared resource arbiter of one plan execution. Every
// iterator in the tree holds the same Governor and reports each
// intermediate row to it; the Governor charges the row against the work
// budget and, every DefaultCheckEvery rows, against the wall clock and
// the context. Once any limit trips the error is sticky, so the abort
// propagates out of deeply nested operators at every subsequent call.
//
// It also audits the iterator lifecycle: Build registers every operator,
// Open/Close transitions are counted, and OpenIterators reports how many
// registered iterators are open right now — the leak check the error
// paths are tested against. A Governor governs one Build.
type Governor struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	maxWork     int64

	work       int64
	sinceCheck int64
	stopErr    error

	opens, closes int64
	ops           []opSlot // sized by Build for its plan's operators, in build order
}

// opSlot is one registered operator: its counters, and the memo
// operator whose name and description Stats renders.
type opSlot struct {
	stat OpStats
	e    *memo.Expr
}

// NewGovernor returns a governor enforcing opts under ctx. A nil ctx is
// treated as context.Background().
func NewGovernor(ctx context.Context, opts Options) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Governor{ctx: ctx, maxWork: opts.MaxIntermediateRows}
	if opts.Timeout > 0 {
		g.deadline = time.Now().Add(opts.Timeout)
		g.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!g.hasDeadline || d.Before(g.deadline)) {
		g.deadline = d
		g.hasDeadline = true
	}
	g.sinceCheck = DefaultCheckEvery
	return g
}

// tick charges one intermediate row. It is the single hot call on the
// execution path: an increment, a budget compare, and — every
// DefaultCheckEvery rows — a clock read and a context poll.
func (g *Governor) tick() error {
	if g.stopErr != nil {
		return g.stopErr
	}
	g.work++
	if g.maxWork > 0 && g.work > g.maxWork {
		g.stopErr = ErrWorkBudgetExceeded
		return g.stopErr
	}
	g.sinceCheck--
	if g.sinceCheck > 0 {
		return nil
	}
	g.sinceCheck = DefaultCheckEvery
	return g.checkpoint()
}

// checkpoint polls the clock and the context. It runs every
// DefaultCheckEvery ticks and once per iterator Open, so even a plan
// that produces no rows at all (a build phase grinding inside Open)
// observes cancellation.
func (g *Governor) checkpoint() error {
	if g.stopErr != nil {
		return g.stopErr
	}
	if err := g.ctx.Err(); err != nil {
		g.stopErr = fmt.Errorf("exec: canceled: %w", err)
		return g.stopErr
	}
	if g.hasDeadline && !time.Now().Before(g.deadline) {
		g.stopErr = ErrDeadlineExceeded
		return g.stopErr
	}
	return nil
}

// RowsExamined returns the total intermediate rows charged so far.
func (g *Governor) RowsExamined() int64 { return g.work }

// OpenIterators reports how many registered iterators are currently
// open — it must be zero after the root Close, on success and on every
// error path alike. The leak-check harness asserts exactly that.
func (g *Governor) OpenIterators() int64 { return g.opens - g.closes }

// Opens returns the cumulative count of iterator Open transitions.
func (g *Governor) Opens() int64 { return g.opens }

// Stats returns the per-operator counters, in plan build order. The
// operators' names and descriptions are rendered here, into one string.
func (g *Governor) Stats() []OpStats {
	out := make([]OpStats, 0, len(g.ops))
	ends := make([]int, 0, 2*len(g.ops)) // the end of each Name, then of each Op, in text
	var text []byte
	for i := range g.ops {
		out = append(out, g.ops[i].stat)
		text = g.ops[i].e.AppendName(text)
		ends = append(ends, len(text))
		text = g.ops[i].e.AppendDescribe(text)
		ends = append(ends, len(text))
	}
	all, start := string(text), 0
	for i := range out {
		out[i].Name, out[i].Op = all[start:ends[2*i]], all[ends[2*i]:ends[2*i+1]]
		start = ends[2*i+1]
	}
	return out
}

// register creates the operator counter for one iterator (called by
// Build for every node in the tree) in the next slot of ops. Build
// sized ops for its plan, so the slots never move under the iterators
// that point into them; a slot past the size panics instead.
func (g *Governor) register(e *memo.Expr) *OpStats {
	n := len(g.ops)
	g.ops = g.ops[:n+1]
	g.ops[n] = opSlot{stat: OpStats{Group: e.Group.ID}, e: e}
	return &g.ops[n].stat
}

// truncationReason classifies an error from the iterator tree: a
// non-empty reason means the execution was cut off by a limit (and the
// partial result is still valid); empty means a genuine failure.
func truncationReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, ErrWorkBudgetExceeded):
		return ReasonWorkBudget
	case errors.Is(err, context.Canceled):
		return ReasonCanceled
	}
	return ""
}

// opNode is the execution-layer base every iterator embeds: the shared
// Governor, the operator's counter, and the open/close state that keeps
// the lifecycle audit exact under repeated Opens (nested-loop parents
// re-Open their inner child once per outer row) and redundant Closes
// (Close cascades to every child unconditionally, including children an
// error path already closed).
type opNode struct {
	gov  *Governor
	stat *OpStats
	open bool
}

func (o *opNode) bind(gov *Governor, e *memo.Expr) {
	o.gov = gov
	o.stat = gov.register(e)
}

// enter marks the iterator open and runs a governor checkpoint, so
// Open-time build phases start with a fresh clock/context poll. Every
// Open call — including a nested-loop parent re-opening its inner child
// per outer row — counts toward the operator's Opens stat; the
// lifecycle audit (gov.opens) counts only closed→open transitions.
func (o *opNode) enter() error {
	o.stat.Opens++
	if !o.open {
		o.open = true
		o.gov.opens++
	}
	return o.gov.checkpoint()
}

// leave marks the iterator closed (idempotent).
func (o *opNode) leave() {
	if o.open {
		o.open = false
		o.gov.closes++
	}
}

// emit charges one produced row to the operator counter and the work
// budget.
func (o *opNode) emit() error {
	o.stat.Rows++
	return o.gov.tick()
}

// examine charges one examined-but-not-emitted row (a filtered scan
// row, a candidate join pair rejected by the predicate) to the work
// budget only.
func (o *opNode) examine() error { return o.gov.tick() }

// closeAll closes every child, returning the first error but never
// skipping a sibling: the mid-stream error contract is that the root
// Close tears the whole tree down regardless of which operator failed.
func closeAll(its ...Iterator) error {
	var first error
	for _, it := range its {
		if it == nil {
			continue
		}
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
