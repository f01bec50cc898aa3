package hks

// Engine-backed hybrid key switching: the tiles of tiles.go executed as
// one dependency graph per switch on the internal/engine worker pool,
// shaped by the dataflow the caller selects. The ModUp nodes join the
// Apply and ModDown nodes by per-tower edges inside that one graph, so
// a tower's Apply can start while other towers are still raising.

import (
	"fmt"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// State-pool slots, one per graph shape; each matches the obs.Dataflow
// its engine runs record under.
const (
	slotMP = iota
	slotDC
	slotOC
)

// dfKey maps a dataflow to its state-pool slot. OCF executes as OC.
func dfKey(df dataflow.Dataflow) int {
	switch df {
	case dataflow.MP:
		return slotMP
	case dataflow.DC:
		return slotDC
	case dataflow.OC, dataflow.OCF:
		return slotOC
	}
	panic(fmt.Sprintf("hks: unknown dataflow %v", df))
}

// state draws a pooled tile state for slot, binds the active recorder
// under label and starts a run (see Hoisted.run). The clock starts
// before the draw, so a serial run also accounts for building a state
// when the pool is empty.
func (sw *Switcher) state(slot int, label obs.Dataflow, serial bool) *Hoisted {
	rec := obs.Active()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	h, _ := sw.states[slot].Get().(*Hoisted)
	if h == nil {
		h = newHoisted(sw, slot)
	}
	h.rec, h.label, h.serial, h.last = rec, label, serial, start
	return h
}

// sameStorage reports whether two polynomials over the same basis
// share their first residue row (the cheap aliasing check for polys
// whose bases were already validated equal).
func sameStorage(a, b *ring.Poly) bool {
	return len(a.Coeffs) > 0 && len(a.Coeffs[0]) > 0 &&
		len(b.Coeffs) > 0 && len(b.Coeffs[0]) > 0 &&
		&a.Coeffs[0][0] == &b.Coeffs[0][0]
}

// must panics with err's message: the switch entry points treat an
// invalid operand as a programming error (see CheckInput).
func must(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// mustOutputs panics unless (c0, c1) are distinct polynomials over B_ℓ.
func (sw *Switcher) mustOutputs(c0, c1 *ring.Poly) {
	if !c0.Basis.Equal(sw.qBasis) || !c1.Basis.Equal(sw.qBasis) {
		panic("hks: switch output basis mismatch")
	}
	// The two outputs' tiles run concurrently with no cross dependency,
	// so aliased storage would race silently.
	if c0 == c1 || sameStorage(c0, c1) {
		panic("hks: switch outputs must not alias each other")
	}
}

// SwitchParallel runs the complete HKS pipeline on d (NTT domain over
// B_ℓ) as a task graph on e, shaped by the given dataflow, returning
// freshly allocated (c0, c1) over B_ℓ. The result is bit-exact with
// KeySwitch for every dataflow. A nil engine uses engine.Default().
// Safe for concurrent use on one Switcher.
func (sw *Switcher) SwitchParallel(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evk *Evk) (c0, c1 *ring.Poly) {
	c0 = sw.R.NewPoly(sw.qBasis)
	c1 = sw.R.NewPoly(sw.qBasis)
	sw.SwitchParallelInto(e, df, d, evk, c0, c1)
	return c0, c1
}

// SwitchParallelInto is SwitchParallel writing into caller-provided
// output polynomials over B_ℓ, so a steady-state caller reusing its
// outputs performs zero per-op allocations. c0/c1 must not alias d.
func (sw *Switcher) SwitchParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evk *Evk, c0, c1 *ring.Poly) {
	must(sw.CheckInput(d))
	must(sw.CheckEvk(evk))
	if sameStorage(c0, d) || sameStorage(c1, d) {
		panic("hks: SwitchParallel outputs must not alias the input")
	}
	if e == nil {
		e = engine.Default()
	}
	k := dfKey(df)
	h := sw.state(k, obs.Dataflow(k), false)
	h.d = d
	h.bind(evk, c0, c1)
	e.RunGraph(h.switchG)
	h.d = nil
	h.unbind()
	h.Release()
}
