package hks

// The switch pipeline as tiles. Every production path of this package
// — serial KeySwitch, engine-backed SwitchParallel, hoisted Hoist/
// HoistParallel plus per-key replay, and the streamed replay of a
// compressed key — runs the tile bodies below over one pooled state,
// the Hoisted. Only the order differs:
//
//   - serial: the tiles in ascending order on the calling goroutine;
//   - engine: the tiles as one dependency graph shaped by the dataflow,
//     the execution-time counterpart of internal/dataflow's schedules;
//   - hoisting: that graph split at the ModUp/Apply seam — the hoist
//     graph is the ModUp nodes alone, the replay graph the Apply and
//     ModDown nodes alone;
//   - streaming: Apply waiting on each key digit as it is expanded.
//
// The graph shapes: under MP (Max-Parallel) per-tower prep and per-
// (digit, tower) convert tiles meet the Apply tiles at per-tower edges;
// under DC (Digit-Centric) one node per digit runs that digit's whole
// ModUp, so ModUp parallelism is across digits only; under OC (Output-
// Centric), after the prep tiles, one node per extended tower converts
// every digit's contribution to that tower on the fly and applies the
// key to it. OCF schedules as OC: its ModDown fusion is a
// memory-traffic concept, and the tile ModDown already consumes the
// accumulators in place.
//
// Tiles write disjoint rows, readers wait on writers through graph
// edges, and every coefficient sees the same modular operations in the
// same order on every path, so all of them are bit-exact with one
// another and with the staged reference functions of hks.go.

import (
	"time"

	"ciflow/internal/bconv"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// overshootChunk tiles the ModDown overshoot estimate with the same
// granularity as the bconv-internal parallel path.
const overshootChunk = bconv.OvershootChunk

func (sw *Switcher) ell() int { return len(sw.qBasis) }

// digitLo returns the first Q-tower index of digit j; digits are
// contiguous alpha-sized blocks (the last may be shorter).
func (sw *Switcher) digitLo(j int) int { return j * sw.Alpha }

func (sw *Switcher) digitHi(j int) int { return min((j+1)*sw.Alpha, sw.ell()) }

// bypass reports whether extended tower t (a dBasis index) is digit
// j's own tower, which skips INTT→BConv→NTT and reuses the input row
// (paper Figure 1, red towers).
func (sw *Switcher) bypass(j, t int) bool {
	return t < sw.ell() && t/sw.Alpha == j
}

// Hoisted is the one pooled execution state of the switch pipeline:
// the ModUp output of one input polynomial plus all scratch and the
// prebuilt graphs the tiles run in. As a public value it is the
// shared-ModUp state of one input, ready to be replayed against any
// number of evaluation keys: obtain it with Hoist or HoistParallel,
// replay with Switch/SwitchInto/SwitchParallelInto/SwitchStreamedInto,
// and return it to the switcher's pool with Release. A Hoisted must
// not be used concurrently or after Release; concurrent hoisting of
// different inputs on one Switcher is safe.
type Hoisted struct {
	sw   *Switcher
	slot int // state-pool slot (dfKey)

	// Bound per call. rec is obs.Active() captured at the entry point
	// (nil when profiling is off: the tiles then read no clock) and
	// label the dataflow the samples are recorded under; serial and
	// last chain the spans of a serial run (see span).
	d      *ring.Poly // input, during the ModUp tiles only
	evk    *Evk       // dense key, during the Apply tiles only
	out    [2]*ring.Poly
	rec    *obs.Recorder
	label  obs.Dataflow
	serial bool
	last   time.Time

	// Scratch, allocated once per state.
	ups []*ring.Poly  // dnum ModUp outputs over D_ℓ (bypass rows copied in)
	y   [][]uint64    // ℓ rows: INTT'd + ŷ-scaled Q towers
	acc [2]*ring.Poly // Apply accumulators over D_ℓ
	yP  [2][][]uint64 // per output: K ŷ-scaled ModDown rows
	u   [2][]uint64   // per output: overshoot estimates

	switchG *engine.Graph // ModUp joined to Apply + ModDown (SwitchParallel)
	hoistG  *engine.Graph // ModUp alone (HoistParallel)
	replayG *engine.Graph // Apply + ModDown alone (SwitchParallelInto)
}

func newHoisted(sw *Switcher, slot int) *Hoisted {
	r, n := sw.R, sw.R.N
	h := &Hoisted{sw: sw, slot: slot}
	h.ups = make([]*ring.Poly, sw.Dnum)
	for j := range h.ups {
		h.ups[j] = r.NewPoly(sw.dBasis)
		h.ups[j].IsNTT = true
	}
	h.y = newRows(sw.ell(), n)
	for p := range h.acc {
		h.acc[p] = r.NewPoly(sw.dBasis)
		h.acc[p].IsNTT = true
		h.yP[p] = newRows(len(sw.pBasis), n)
		h.u[p] = make([]uint64, n)
	}

	h.switchG = engine.NewGraph()
	var acc []int
	if slot == slotOC {
		acc = h.buildOC(h.switchG)
	} else {
		acc = h.buildApply(h.switchG, h.buildModUp(h.switchG))
	}
	h.buildModDown(h.switchG, acc)
	h.hoistG = engine.NewGraph()
	h.buildModUp(h.hoistG)
	h.replayG = engine.NewGraph()
	h.buildModDown(h.replayG, h.buildApply(h.replayG, nil))
	return h
}

func newRows(k, n int) [][]uint64 {
	out := make([][]uint64, k)
	for i := range out {
		out[i] = make([]uint64, n)
	}
	return out
}

// ---- Timing ----

// span times one tile for the recorder bound to its state. It is a
// plain value: when the state has no recorder it reads no clock and
// records nothing, and it never allocates.
type span struct {
	h           *Hoisted
	start, mark time.Time
}

// span starts timing a tile. In a serial run it starts where the
// previous tile's span ended, so the serial profile tiles the run's
// wall time with no gaps; graph tiles start their own clocks.
func (h *Hoisted) span() span {
	s := span{h: h}
	if h.rec != nil {
		s.start = h.last
		if !h.serial {
			s.start = time.Now()
		}
		s.mark = s.start
	}
	return s
}

// run marks the start of a run of tiles, serial or as a graph.
func (h *Hoisted) run(serial bool) {
	h.serial = serial
	if h.rec != nil {
		h.last = time.Now()
	}
}

// kernel records the time since the previous mark as one kernel sample.
func (s *span) kernel(k obs.Kernel) {
	if h := s.h; h.rec != nil {
		now := time.Now()
		h.rec.Kernel(k, h.label, now.Sub(s.mark))
		s.mark = now
	}
}

// stage records the time since the span started (or since the previous
// stage) as one stage sample, and starts the next.
func (s *span) stage(st obs.Stage) {
	if h := s.h; h.rec != nil {
		now := time.Now()
		h.rec.Stage(st, h.label, h.sw.Level, now.Sub(s.start))
		s.start, s.mark = now, now
		if h.serial {
			h.last = now
		}
	}
}

// ---- Tiles ----

// prep is the ModUp tile for Q tower i. Decompose copies the tower into
// its digit's ModUp output (the bypass row, so the state outlives the
// input); P1 then INTTs a copy and applies the digit's ŷ scaling,
// folded here so it runs once per tower, as the dataflow model's
// inttWithPreOps charges it.
func (h *Hoisted) prep(i int) {
	sw := h.sw
	j := i / sw.Alpha
	sp := h.span()
	copy(h.ups[j].Coeffs[i], h.d.Coeffs[i])
	sp.stage(obs.StageDecompose)
	row := h.y[i]
	copy(row, h.d.Coeffs[i])
	sw.R.INTTTower(sw.qBasis[i], row)
	sp.kernel(obs.KernelNTT)
	sw.upConv[j].YScaleRow(i-sw.digitLo(j), row, row)
	sp.kernel(obs.KernelBConv)
	sp.stage(obs.StageModUp)
}

// convert is ModUp P2+P3 for digit j's extended tower t (not a bypass
// tower): BConv from the digit's ŷ rows, then NTT, into the digit's
// ModUp output.
func (h *Hoisted) convert(j, t int) {
	sw := h.sw
	sp := h.span()
	row := h.ups[j].Coeffs[t]
	sw.upConv[j].ConvertTowerFromY(h.y[sw.digitLo(j):sw.digitHi(j)], sw.dstIdxOf[j][t], row)
	sp.kernel(obs.KernelBConv)
	sw.R.NTTTower(sw.dBasis[t], row)
	sp.kernel(obs.KernelNTT)
	sp.stage(obs.StageModUp)
}

// modUpDigit is the DC tile: digit j's whole ModUp, prep then convert.
func (h *Hoisted) modUpDigit(j int) {
	sw := h.sw
	for i := sw.digitLo(j); i < sw.digitHi(j); i++ {
		h.prep(i)
	}
	for _, t := range sw.convDstIdx[j] {
		h.convert(j, t)
	}
}

// mac multiply-accumulates digit j's ModUp row for extended tower t
// against key digit (b, a) into both accumulators.
func (h *Hoisted) mac(j, t int, b, a *ring.Poly) {
	m := h.sw.R.Mods[h.sw.dBasis[t]]
	up, eb, ea := h.ups[j].Coeffs[t], b.Coeffs[t], a.Coeffs[t]
	b0, b1 := h.acc[0].Coeffs[t], h.acc[1].Coeffs[t]
	for k := range b0 {
		b0[k] = m.Add(b0[k], m.Mul(up[k], eb[k]))
		b1[k] = m.Add(b1[k], m.Mul(up[k], ea[k]))
	}
}

func (h *Hoisted) zeroAcc(t int) {
	clear(h.acc[0].Coeffs[t])
	clear(h.acc[1].Coeffs[t])
}

// apply is P4+P5 for extended tower t: every digit's partial product
// against the bound key, accumulated in ascending digit order.
func (h *Hoisted) apply(t int) {
	sp := h.span()
	h.zeroAcc(t)
	for j := 0; j < h.sw.Dnum; j++ {
		h.mac(j, t, h.evk.B[j], h.evk.A[j])
	}
	sp.stage(obs.StageApply)
}

// applyDigit folds one streamed key digit into every accumulator tower.
// Called for digits in ascending order after zeroing, it performs
// exactly apply's operations on every (tower, coefficient).
func (h *Hoisted) applyDigit(j int, b, a *ring.Poly) {
	sp := h.span()
	for t := range h.sw.dBasis {
		h.mac(j, t, b, a)
	}
	sp.stage(obs.StageApply)
}

// ocTower is the OC tile: finish extended tower t end to end, converting
// every digit's contribution to it on the fly before applying the key.
func (h *Hoisted) ocTower(t int) {
	for j := 0; j < h.sw.Dnum; j++ {
		if !h.sw.bypass(j, t) {
			h.convert(j, t)
		}
	}
	h.apply(t)
}

// downPrep is ModDown P1 for P tower i of output p, plus the ŷ scaling
// of the P→Q conversion.
func (h *Hoisted) downPrep(p, i int) {
	sw := h.sw
	sp := h.span()
	row := h.yP[p][i]
	copy(row, h.acc[p].Coeffs[sw.ell()+i])
	sw.R.INTTTower(sw.pBasis[i], row)
	sp.kernel(obs.KernelNTT)
	sw.downConv.YScaleRow(i, row, row)
	sp.kernel(obs.KernelBConv)
	sp.stage(obs.StageModDown)
}

// downOvershoot estimates the exact-conversion overshoot for
// coefficient chunk c of output p.
func (h *Hoisted) downOvershoot(p, c int) {
	from := c * overshootChunk
	sp := h.span()
	h.sw.downConv.Overshoot(h.yP[p], h.u[p], from, min(from+overshootChunk, h.sw.R.N))
	sp.kernel(obs.KernelBConv)
	sp.stage(obs.StageModDown)
}

// downOut is ModDown P2–P4 for Q tower i of output p: exact-convert the
// P part into tower i, NTT it, and fold the subtract-and-scale by P⁻¹
// in place.
func (h *Hoisted) downOut(p, i int) {
	sw := h.sw
	sp := h.span()
	dst := h.out[p].Coeffs[i]
	sw.downConv.ConvertExactTowerFromY(h.yP[p], h.u[p], i, dst)
	sp.kernel(obs.KernelBConv)
	sw.R.NTTTower(sw.qBasis[i], dst)
	sp.kernel(obs.KernelNTT)
	m := sw.R.Mods[sw.qBasis[i]]
	cRow := h.acc[p].Coeffs[i]
	pInv := sw.pInvModQ[i]
	for k := range dst {
		dst[k] = m.Mul(m.Sub(cRow[k], dst[k]), pInv)
	}
	sp.stage(obs.StageModDown)
}

func (sw *Switcher) overshootChunks() int {
	return (sw.R.N + overshootChunk - 1) / overshootChunk
}

// ---- Serial order ----

func (h *Hoisted) modUp() {
	for j := 0; j < h.sw.Dnum; j++ {
		h.modUpDigit(j)
	}
}

func (h *Hoisted) replay() {
	for t := range h.sw.dBasis {
		h.apply(t)
	}
	h.modDown()
}

func (h *Hoisted) modDown() {
	sw := h.sw
	for p := range h.out {
		for i := range sw.pBasis {
			h.downPrep(p, i)
		}
		for c := 0; c < sw.overshootChunks(); c++ {
			h.downOvershoot(p, c)
		}
		for i := range sw.qBasis {
			h.downOut(p, i)
		}
	}
}

// ---- Graph builders ----

func (h *Hoisted) buildPrep(g *engine.Graph) []int {
	prep := make([]int, h.sw.ell())
	for i := range prep {
		prep[i] = g.NodeNamed("modup.prep", func() { h.prep(i) })
	}
	return prep
}

// buildModUp adds the ModUp nodes of the state's dataflow to g — one
// node per digit under DC, per-tower prep and per-(digit, tower)
// convert nodes otherwise — and returns rows[j][t], the node that
// writes digit j's ModUp row for extended tower t.
func (h *Hoisted) buildModUp(g *engine.Graph) [][]int {
	sw := h.sw
	rows := make([][]int, sw.Dnum)
	for j := range rows {
		rows[j] = make([]int, len(sw.dBasis))
	}
	if h.slot == slotDC {
		for j := range rows {
			node := g.NodeNamed("modup.digit", func() { h.modUpDigit(j) })
			for t := range rows[j] {
				rows[j][t] = node
			}
		}
		return rows
	}
	prep := h.buildPrep(g)
	for i, node := range prep {
		rows[i/sw.Alpha][i] = node
	}
	for j := range rows {
		deps := prep[sw.digitLo(j):sw.digitHi(j)]
		for _, t := range sw.convDstIdx[j] {
			rows[j][t] = g.NodeNamed("modup.conv", func() { h.convert(j, t) }, deps...)
		}
	}
	return rows
}

// buildApply adds one Apply node per extended tower to g, each waiting
// on the ModUp rows it reads (rows is nil when g holds no ModUp nodes),
// and returns them.
func (h *Hoisted) buildApply(g *engine.Graph, rows [][]int) []int {
	acc := make([]int, len(h.sw.dBasis))
	var deps []int
	for t := range acc {
		deps = deps[:0]
		for _, r := range rows {
			deps = append(deps, r[t])
		}
		acc[t] = g.NodeNamed("apply", func() { h.apply(t) }, deps...)
	}
	return acc
}

// buildOC adds the prep nodes and one OC tower node per extended tower
// to g and returns the tower nodes.
func (h *Hoisted) buildOC(g *engine.Graph) []int {
	sw := h.sw
	prep := h.buildPrep(g)
	acc := make([]int, len(sw.dBasis))
	var deps []int
	for t := range acc {
		deps = deps[:0]
		for i, node := range prep {
			// Tower t reads the ŷ rows of every digit it converts and,
			// on a Q tower, its own bypass row.
			if !sw.bypass(i/sw.Alpha, t) || i == t {
				deps = append(deps, node)
			}
		}
		acc[t] = g.NodeNamed("oc", func() { h.ocTower(t) }, deps...)
	}
	return acc
}

// buildModDown adds the ModDown nodes for both outputs to g. acc[t] is
// the node that finishes extended tower t of the accumulators.
func (h *Hoisted) buildModDown(g *engine.Graph, acc []int) {
	sw := h.sw
	ell := sw.ell()
	for p := range h.out {
		prep := make([]int, len(sw.pBasis))
		for i := range prep {
			prep[i] = g.NodeNamed("down.prep", func() { h.downPrep(p, i) }, acc[ell+i])
		}
		over := make([]int, sw.overshootChunks())
		for c := range over {
			over[c] = g.NodeNamed("down.over", func() { h.downOvershoot(p, c) }, prep...)
		}
		for i := 0; i < ell; i++ {
			g.NodeNamed("down.out", func() { h.downOut(p, i) }, append([]int{acc[i]}, over...)...)
		}
	}
}
