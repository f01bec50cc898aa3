package hks

// Hoisted hybrid key switching: when one input polynomial feeds k
// different evaluation keys (the rotation fan-out of the diagonal
// method, paper §I's private-inference workload), Decompose+ModUp —
// the left half of paper Figure 1 and the bulk of its INTT/BConv/NTT
// work — does not depend on the key. Hoisting runs it once and
// replays only ApplyKey+Reduce+ModDown per key, saving
// (k−1)·ModUpOps weighted modular operations (HoistedOpsSaved).
//
// Hoisting is the switch pipeline of tiles.go split at the ModUp/Apply
// seam: Hoist runs the ModUp tiles serially and HoistParallel runs them
// as the hoist graph; each replay runs the Apply and ModDown tiles
// serially (SwitchInto), as the replay graph (SwitchParallelInto), or
// with Apply waiting on each digit of a streamed key
// (SwitchStreamedInto). The replay graph is the same for every
// dataflow: the key-dependent half has no digit pipeline left to
// reshape. States are pooled on the Switcher, so steady-state hoisted
// switching allocates nothing beyond the engine's per-run completion
// channel.

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// Hoist runs Decompose+ModUp once over d (NTT domain over B_ℓ) on the
// calling goroutine and returns the reusable hoisted state. Call
// Release when done with it.
func (sw *Switcher) Hoist(d *ring.Poly) *Hoisted {
	return sw.hoist(nil, dataflow.MP, d)
}

// HoistParallel is Hoist with the ModUp tiles executed as a task
// graph on e, shaped by the given dataflow (a nil engine uses
// engine.Default()). Bit-exact with Hoist.
func (sw *Switcher) HoistParallel(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly) *Hoisted {
	if e == nil {
		e = engine.Default()
	}
	return sw.hoist(e, df, d)
}

// hoist runs the ModUp tiles over d serially (nil e, recorded under
// DataflowSerial) or as df's hoist graph on e.
func (sw *Switcher) hoist(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly) *Hoisted {
	must(sw.CheckInput(d))
	k := dfKey(df)
	label := obs.Dataflow(k)
	if e == nil {
		label = obs.DataflowSerial
	}
	h := sw.state(k, label, e == nil)
	h.d = d
	if e == nil {
		h.modUp()
	} else {
		e.RunGraph(h.hoistG)
	}
	h.d = nil
	return h
}

// Release returns the state to its switcher's pool. The Hoisted must
// not be used afterwards.
func (h *Hoisted) Release() {
	h.rec = nil
	h.sw.states[h.slot].Put(h)
}

// bind validates the outputs and binds them and the key for one run.
func (h *Hoisted) bind(evk *Evk, c0, c1 *ring.Poly) {
	h.sw.mustOutputs(c0, c1)
	h.evk, h.out = evk, [2]*ring.Poly{c0, c1}
}

func (h *Hoisted) unbind() {
	h.out[0].IsNTT, h.out[1].IsNTT = true, true
	h.evk, h.out = nil, [2]*ring.Poly{}
}

// Switch replays the hoisted ModUp against one evaluation key,
// running ApplyKey+Reduce+ModDown serially into freshly allocated
// (c0, c1) over B_ℓ. Bit-exact with KeySwitch(d, evk).
func (h *Hoisted) Switch(evk *Evk) (c0, c1 *ring.Poly) {
	c0 = h.sw.R.NewPoly(h.sw.qBasis)
	c1 = h.sw.R.NewPoly(h.sw.qBasis)
	h.SwitchInto(evk, c0, c1)
	return c0, c1
}

// SwitchInto is Switch writing into caller-provided outputs; the
// serial replay performs zero allocations.
func (h *Hoisted) SwitchInto(evk *Evk, c0, c1 *ring.Poly) {
	must(h.sw.CheckEvk(evk))
	h.bind(evk, c0, c1)
	h.run(true)
	h.replay()
	h.unbind()
}

// SwitchParallelInto is SwitchInto with the replay executed as a task
// graph on e (nil uses engine.Default()). Bit-exact with SwitchInto.
func (h *Hoisted) SwitchParallelInto(e *engine.Engine, evk *Evk, c0, c1 *ring.Poly) {
	must(h.sw.CheckEvk(evk))
	if e == nil {
		e = engine.Default()
	}
	h.bind(evk, c0, c1)
	h.run(false)
	e.RunGraph(h.replayG)
	h.unbind()
}

// SwitchStreamedInto replays the hoisted ModUp against a compressed
// key's expansion stream, consuming digits in ascending order as they
// become ready, then runs ModDown into (c0, c1). Because the stream's
// producer goroutine runs ahead of the consumer, per-digit seed
// expansion overlaps both the preceding hoist phase (when the stream
// was started before Hoist/HoistParallel) and this apply loop itself.
// Bit-exact with SwitchInto of the expanded dense key.
func (h *Hoisted) SwitchStreamedInto(st *ExpandStream, c0, c1 *ring.Poly) {
	if st.Digits() != h.sw.Dnum {
		panic(fmt.Sprintf("hks: streamed evk has %d digits, switcher expects %d", st.Digits(), h.sw.Dnum))
	}
	h.bind(nil, c0, c1)
	h.run(true)
	for t := range h.sw.dBasis {
		h.zeroAcc(t)
	}
	for j := 0; j < h.sw.Dnum; j++ {
		// Time blocked on the expander: ~0 when the stream runs ahead,
		// the expansion stall the overlap is meant to hide otherwise.
		sp := h.span()
		eb, ea := st.Digit(j)
		sp.stage(obs.StageExpand)
		h.applyDigit(j, eb, ea)
	}
	h.modDown()
	h.unbind()
}

// SwitchStreamed is the full overlapped miss path for one compressed
// key: start the expansion stream, hoist d on the engine under df
// (expansion running concurrently with Decompose+ModUp), then apply
// the key digit by digit. Returns freshly allocated (c0, c1) over
// B_ℓ, bit-exact with KeySwitch(d, cevk.Expand(sw.R)).
func (sw *Switcher) SwitchStreamed(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, cevk *CompressedEvk) (c0, c1 *ring.Poly) {
	st := cevk.StartExpand(sw.R)
	h := sw.HoistParallel(e, df, d)
	defer h.Release()
	c0 = sw.R.NewPoly(sw.qBasis)
	c1 = sw.R.NewPoly(sw.qBasis)
	h.SwitchStreamedInto(st, c0, c1)
	return c0, c1
}

// SwitchHoisted switches d (NTT domain over B_ℓ) with every key in
// evks while running Decompose+ModUp only once, serially, returning
// one freshly allocated (c0, c1) pair per key in input order. Each
// pair is bit-exact with KeySwitch(d, evks[i]).
func (sw *Switcher) SwitchHoisted(d *ring.Poly, evks []*Evk) (c0s, c1s []*ring.Poly) {
	h := sw.Hoist(d)
	defer h.Release()
	c0s = make([]*ring.Poly, len(evks))
	c1s = make([]*ring.Poly, len(evks))
	for i, evk := range evks {
		c0s[i], c1s[i] = h.Switch(evk)
	}
	return c0s, c1s
}

// SwitchHoistedParallelInto is SwitchHoisted on the engine: the shared
// ModUp runs as a df-shaped task graph, then each key's replay graph
// writes into the caller-provided c0s[i], c1s[i]. With reused outputs
// a steady-state caller performs no per-op limb allocations. Outputs
// must be pairwise non-aliased. Bit-exact with per-key KeySwitch for
// every dataflow.
func (sw *Switcher) SwitchHoistedParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evks []*Evk, c0s, c1s []*ring.Poly) {
	if len(c0s) != len(evks) || len(c1s) != len(evks) {
		panic(fmt.Sprintf("hks: SwitchHoistedParallelInto got %d keys but %d/%d outputs",
			len(evks), len(c0s), len(c1s)))
	}
	if e == nil {
		e = engine.Default()
	}
	h := sw.hoist(e, df, d)
	defer h.Release()
	for i, evk := range evks {
		h.SwitchParallelInto(e, evk, c0s[i], c1s[i])
	}
}
